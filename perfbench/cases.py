"""Workload case sets: the so(n) generator and the seeded config generator.

Everything here is pure data.  The program under test receives only the
generated configs; the seed never reaches it except as ``CaseConfig.seed``.
"""

from __future__ import annotations

import itertools
import json
import random

# (name, representative mu).  The representative fixes the orbit type; a
# seeded nonzero multiple of it keeps that type (regular stays regular).
CATALOG = [
    ("so3", [0.0, 0.0, 1.0]),
    ("su2", [0.0, 0.0, 1.0]),
    ("sl2r", [1.0, 0.0, 0.0]),
    ("heis3", [0.0, 0.0, 1.0]),
    ("se2", [0.0, 1.0, 0.0]),
]

# aff(1) without a realization: the pipeline takes the ``sigma: null`` path.
AFF1_NO_REALIZATION = {"dim": 2, "name": "aff1", "brackets": [[0, 1, [1, 1.0]]]}


def so_n_basis(n: int) -> list:
    """The matrices L_ij = E_ij - E_ji for i < j, in lexicographic order."""
    basis = []
    for i, j in itertools.combinations(range(n), 2):
        m = [[0.0] * n for _ in range(n)]
        m[i][j], m[j][i] = 1.0, -1.0
        basis.append(m)
    return basis


def _matmul(x: list, y: list) -> list:
    n = len(x)
    return [[sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def so_n_group(n: int) -> dict:
    """Inline JSON ``group`` document for so(n) with its defining realization.

    Brackets come from matrix commutators; every L_ij has Frobenius norm^2 = 2
    and the basis is Frobenius-orthogonal, so a coordinate is <C, L_k> / 2.
    """
    basis = so_n_basis(n)
    brackets = []
    for i, j in itertools.combinations(range(len(basis)), 2):
        xy, yx = _matmul(basis[i], basis[j]), _matmul(basis[j], basis[i])
        comm = [[xy[r][c] - yx[r][c] for c in range(n)] for r in range(n)]
        terms = []
        for k, lk in enumerate(basis):
            coeff = sum(comm[r][c] * lk[r][c] for r in range(n) for c in range(n)) / 2.0
            if coeff:
                terms.append([k, coeff])
        if terms:
            brackets.append([i, j, *terms])
    return {"dim": len(basis), "name": f"so{n}", "brackets": brackets,
            "realization": basis, "det_one": True, "orthogonal": True}


def so_n_mu(n: int, weights: dict) -> list:
    """Covector with the given weights on the basis elements L_ij, keyed (i, j)."""
    pairs = list(itertools.combinations(range(n), 2))
    return [float(weights.get(p, 0.0)) for p in pairs]


# so(n) cases: (label, n, weights of the representative mu, stabilizer dim, samples)
SO4_CASES = [
    ("so4-regular", 4, {(0, 1): 1.0, (2, 3): 2.0}, 2, 2),
    ("so4-singular", 4, {(0, 1): 1.0, (2, 3): 1.0}, 4, None),
]
SO5_CASES = [
    ("so5-regular", 5, {(0, 1): 1.0, (2, 3): 2.0}, 2, 1),
    ("so5-singular", 5, {(0, 1): 1.0}, 4, 1),
]


def _scale(rng: random.Random) -> float:
    """A nonzero multiple: sign times 2**u with u uniform in [-0.03, 0.03].

    FD defects grow steeply with |mu| (about |mu|^6 for so(5) fiber
    independence), so a wider range would make the accuracy metric track the
    draw rather than the code.
    """
    return rng.choice((-1.0, 1.0)) * 2.0 ** rng.uniform(-0.03, 0.03)


def _case(label: str, verb: str, doc: dict, *, expect_exit: int = 0,
          expect_k: int | None = None, expect_error: str | None = None,
          orbit_dim: int | None = None) -> dict:
    return {"label": label, "verb": verb, "config": doc, "expect_exit": expect_exit,
            "expect_k": expect_k, "expect_error": expect_error, "orbit_dim": orbit_dim}


def catalog_cli_cases(seed: int) -> list:
    rng = random.Random(seed)
    cases = []
    for name, rep in CATALOG:
        s = _scale(rng)
        doc = {"group": name, "mu": [s * x if x else 0.0 for x in rep],
               "seed": rng.randrange(2**31)}
        cases.append(_case(f"{name}-curvature", "curvature", doc, expect_k=1, orbit_dim=2))
        cases.append(_case(f"{name}-verify", "verify", doc, expect_k=1, orbit_dim=2))
    s = _scale(rng)
    cases.append(_case("abelian3-curvature", "curvature",
                       {"group": "abelian(3)", "mu": [s, 0.5 * s, -s],
                        "seed": rng.randrange(2**31)}, expect_k=3, orbit_dim=0))
    s = _scale(rng)
    cases.append(_case("aff1-norealization-curvature", "curvature",
                       {"group": AFF1_NO_REALIZATION, "mu": [0.0, s],
                        "seed": rng.randrange(2**31)}, expect_k=0, orbit_dim=2))
    s = _scale(rng)
    cases.append(_case("sl2r-nilpotent-reduce", "reduce",
                       {"group": "sl2r", "mu": [0.0, s, 0.0], "seed": rng.randrange(2**31)},
                       expect_exit=3, expect_error="NonReductiveStabilizer"))
    cases.append(_case("missing-mu-validate", "validate",
                       {"group": "so3", "seed": rng.randrange(2**31)},
                       expect_exit=2, expect_error="ConfigError"))
    return cases


def _so_n_cases(seed: int, table: list, verbs: tuple) -> list:
    rng = random.Random(seed)
    cases = []
    for label, n, weights, k, samples in table:
        s = _scale(rng)
        doc = {"group": so_n_group(n), "mu": [s * x if x else 0.0 for x in so_n_mu(n, weights)],
               "seed": rng.randrange(2**31)}
        if samples is not None:
            doc["samples"] = samples
        orbit_dim = n * (n - 1) // 2 - k
        for verb in verbs:
            cases.append(_case(f"{label}-{verb}", verb, doc, expect_k=k, orbit_dim=orbit_dim))
    return cases


def so4_full_cases(seed: int) -> list:
    return _so_n_cases(seed, SO4_CASES, ("curvature", "verify"))


def so5_reduce_cases(seed: int) -> list:
    return _so_n_cases(seed, SO5_CASES, ("reduce",))


WORKLOADS = {
    "catalog-cli": catalog_cli_cases,
    "so4-full": so4_full_cases,
    "so5-reduce": so5_reduce_cases,
}


def config_bytes(case: dict) -> bytes:
    """Canonical bytes of a case config: the same seed gives the same bytes."""
    return json.dumps(case["config"], sort_keys=True, separators=(",", ":")).encode()
