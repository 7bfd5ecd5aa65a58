"""Configuration ingestion, pipeline orchestration, and the check battery.

The pipeline runs validate -> connect -> reduce -> curvature with fail-fast
semantics on hard errors; a report is always assembled, including on failure.
``verify_suite`` is those stages, run by the same code on the same rng, plus
verify-only checks drawing on that rng after them: every structural property
the library promises is a named check with its measured defect and threshold,
read from the run record's stage results where a stage computes it.  Each part
of the battery yields its checks; ``_record`` turns each into a report entry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field
from types import SimpleNamespace

import numpy as np

from . import linalg, report as report_mod
from .connections import (baseline_coefficients, frame_structure, frame_transport,
                          nabla_omega_defect, pullback_coefficients, symplectized_coefficients,
                          torsion_defect)
from .curvature import curvature_battery
from .errors import (AssumptionTwoFailure, ConfigError, NonReductiveStabilizer,
                     ReductionError)
from .liealg import (LieAlgebra, _is_number, algebra_from_json, coadjoint_matrix, group_exp,
                     named_algebra)
from .orbits import kks_gap, kks_pairs
from .phasespace import constraint_split, right_generator, symplectic_form
from .reduction import (SigmaGeometry, _central, autoparallel_check, build_context,
                        default_chart, gram_oracle_solve, totally_geodesic_defect)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ASSUMPTION = 3
EXIT_NUMERICAL = 4

STAGES = ("validate", "connect", "reduce", "curvature")

_ASSUMPTION_ERRORS = (NonReductiveStabilizer, AssumptionTwoFailure)

JET_FD_STEP = 1e-5  # step of the central differences of the red/jet-fd check

THRESHOLDS = {
    "jacobi": 1e-12,
    "stabilizer_annihilation": 1e-12,
    "complement_equivariance": 1e-10,
    "coad_fixes_mu": 1e-8,
    "ad_homomorphism": 1e-9,
    "coad_group_law": 1e-10,
    "omega_closed": 1e-10,
    "tsigma_delta_pairing": 1e-12,
    "tperp_span": 1e-10,
    "radical_span": 1e-10,
    "baseline_torsion": 1e-14,
    "symplectized_torsion": 1e-10,
    "symplectized_nabla_omega": 1e-10,
    "a_symmetry": 1e-10,
    "symplectize_idempotent": 1e-10,
    "right_invariance": 1e-9,
    "isotropy": 1e-10,
    "projector_idempotent": 1e-12,
    "projector_spaces": 1e-10,
    "alpha_identities": 1e-10,
    "l_equivariance": 1e-8,
    "sigma_equivariance": 1e-8,
    "sigma_torsion": 1e-10,
    "reduced_torsion": 1e-6,
    "reduced_oracle": 1e-8,
    "fiber_independence": 1e-8,
    "kks_match": 1e-8,
    "reduced_form_closed": 1e-6,
    "reduced_form_parallel": 1e-6,
    "jet_fd": 1e-6,
    "lift_projection": 1e-10,
    "geodesic_oracle": 1e-10,
    "curvature_agreement": 1e-4,
    "curvature_antisymmetry": 1e-4,
    "curvature_symplectic": 1e-4,
    "curvature_bianchi": 1e-4,
}


def _is_number_rows(value) -> bool:
    return isinstance(value, list) and all(isinstance(row, list) and all(map(_is_number, row))
                                           for row in value)


@dataclass
class CaseConfig:
    """One reduction case: which group, which level, and solver settings."""

    group: object
    mu: list
    samples: int = 5
    seed: int = 0
    s_tilde: object = "default"
    tol: dict = dc_field(default_factory=dict)
    tol_scale: float = 1.0
    connection: str = "symplectic"
    xi_list: list | None = None

    @staticmethod
    def from_dict(doc: dict) -> "CaseConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(doc) - set(CaseConfig.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "group" not in doc or "mu" not in doc:
            raise ConfigError("config needs at least 'group' and 'mu'")
        cfg = CaseConfig(**doc)
        if not (_is_number(cfg.tol_scale) and cfg.tol_scale > 0):
            raise ConfigError("tol_scale must be a positive finite number")
        for name, least in (("samples", 1), ("seed", 0)):
            if type(getattr(cfg, name)) is not int or getattr(cfg, name) < least:
                raise ConfigError(f"{name} must be an integer >= {least}")
        if not isinstance(cfg.mu, list) or not all(map(_is_number, cfg.mu)):
            raise ConfigError("mu must be a list of finite numbers")
        if cfg.xi_list is not None and not _is_number_rows(cfg.xi_list):
            raise ConfigError("xi_list must be null or a list of number lists")
        if cfg.s_tilde != "default" and not (_is_number_rows(cfg.s_tilde)
                                             and len(set(map(len, cfg.s_tilde))) <= 1):
            raise ConfigError("s_tilde must be 'default' or a list of equal-length number lists")
        if cfg.connection not in ("symplectic", "baseline"):
            raise ConfigError("connection must be 'symplectic' or 'baseline'")
        if not isinstance(cfg.tol, dict):
            raise ConfigError("tol must be a table of named thresholds")
        unknown = set(cfg.tol) - set(THRESHOLDS)
        if unknown:
            raise ConfigError(f"unknown threshold names in tol: {sorted(unknown)}")
        if not all(_is_number(v) and v >= 0 for v in cfg.tol.values()):
            raise ConfigError("tol values must be finite numbers >= 0")
        return cfg

    def algebra(self) -> LieAlgebra:
        if isinstance(self.group, str):
            return named_algebra(self.group)
        return algebra_from_json(self.group)

    def mu_vector(self, a: LieAlgebra) -> np.ndarray:
        """μ as a vector, once μ and every ξ sample match the algebra's dimension."""
        mu = np.asarray(self.mu, dtype=float)
        if mu.shape != (a.dim,):
            raise ConfigError(f"mu has length {mu.size}, algebra dimension is {a.dim}")
        for xi in self.xi_list or []:
            if len(xi) != a.dim:
                raise ConfigError(f"xi_list entry has length {len(xi)}, "
                                  f"algebra dimension is {a.dim}")
        return mu

    def threshold(self, name: str) -> float:
        return float(self.tol.get(name, THRESHOLDS[name])) * self.tol_scale

    def as_dict(self) -> dict:
        return {
            "group": self.group, "mu": list(map(float, self.mu)),
            "samples": self.samples, "seed": self.seed,
            "s_tilde": self.s_tilde if isinstance(self.s_tilde, str)
            else np.asarray(self.s_tilde, dtype=float).tolist(),
            "tol": dict(self.tol), "tol_scale": self.tol_scale,
            "connection": self.connection,
        }


def _error_record(exc: Exception, stage: str) -> dict:
    return {"type": type(exc).__name__, "message": str(exc), "stage": stage}


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, ConfigError):
        return EXIT_CONFIG
    if isinstance(exc, _ASSUMPTION_ERRORS):
        return EXIT_ASSUMPTION
    if isinstance(exc, (ReductionError, np.linalg.LinAlgError, ValueError, MemoryError)):
        return EXIT_NUMERICAL
    raise exc


def _stage_validate(cfg: CaseConfig, run) -> dict:
    """The level-set checks at μ.  Sets the constraint split, which the reduce
    stage's context reads."""
    a, mu = run.a, run.mu
    run.split = split = constraint_split(a, mu)
    n, k = a.dim, split.g_mu.shape[1]
    # TΣ^⊥ should be the span of the right-action generators at μ
    gens = right_generator(a, mu, np.eye(n)).T
    return {
        "status": "ok",
        "algebra": a.name,
        "dim": n,
        "stabilizer_dim": k,
        "level_set_checks": {
            "tperp_equals_generator_span": linalg.subspace_distance(split.t_perp, gens),
        },
    }


def connection_coefficients(cfg: CaseConfig, a: LieAlgebra, xis: np.ndarray) -> np.ndarray:
    """Γ(ξ) of the configured connection (``cfg.connection``) over the stack of
    fiber points ``xis`` (rows)."""
    base = baseline_coefficients(a)
    gammas = np.broadcast_to(base, xis.shape[:1] + base.shape)
    return symplectized_coefficients(a, xis, gammas) if cfg.connection == "symplectic" else gammas


def _stage_connect(cfg: CaseConfig, run) -> dict:
    """Torsion and ∇ω of the configured connection over the ξ samples: μ first,
    then three draws.  Sets the baseline's Γ°, the ξ samples and the configured
    connection's Γ(ξ) over them, as a stack."""
    a = run.a
    run.base = baseline_coefficients(a)
    run.xi_samples = xis = np.vstack([run.mu, run.rng.standard_normal((3, a.dim))])
    run.gammas = gammas = connection_coefficients(cfg, a, xis)
    return {
        "status": "ok",
        "connection": cfg.connection,
        "torsion_defect": torsion_defect(a, gammas),
        "nabla_omega_defect": nabla_omega_defect(a, xis, gammas),
    }


def _stage_reduce(cfg: CaseConfig, run) -> dict:
    """The reduce stage on the configured connection with its Γ(μ).  Sets the
    run's reduction context and stabilizer sample, and its geometry, chart sweep
    and kernels for the curvature stage and ``verify`` (these three stay None
    without a chart: zero-dimensional base, or no realization by the policy below)."""
    a, mu = run.a, run.mu
    run.ctx = ctx = build_context(a, mu, s_tilde=cfg.s_tilde, gamma_mu=run.gammas[0],
                                  split=run.split)
    stage = {
        "status": "ok",
        **ctx.diagnostics,
        "totally_geodesic_defect": totally_geodesic_defect(ctx),
    }
    # The chart needs only Ad, but an algebra without a matrix realization still
    # stops here (``sigma: null``, curvature skipped): perfbench/run.py's
    # ``check_case`` pins that layout for its unrealized catalog case, so lifting
    # this gate is a change of the benchmark's expectations.
    if ctx.zero_dimensional_base or a.realization is None:
        run.stabilizer = _stabilizer_sample(ctx, run.rng)
        stage["sigma"] = None
        stage["autoparallel"] = autoparallel_check(ctx, rng=run.rng)
        return stage
    run.geom = geom = SigmaGeometry(ctx, default_chart(ctx))
    # t = 0, then samples − 1 chart points drawn in one call
    pts = np.vstack([np.zeros(geom.chart.dim),
                     run.rng.uniform(-0.4, 0.4, (cfg.samples - 1, geom.chart.dim))])
    run.stabilizer = _stabilizer_sample(ctx, run.rng)
    sweep, run.kernels = _chart_sweep(geom, pts, run.stabilizer)
    run.sweep = sweep
    stage.update({
        "sigma": sweep["sigma"],
        "kks_residual": sweep["kks"],
        "reduced_torsion_defect": sweep["torsion"],
        "reduced_form_parallel_defect": sweep["parallel"],
        "fiber_independence": sweep["fiber"],
        "autoparallel": autoparallel_check(ctx, geom=geom, rng=run.rng),
        "chart_points": pts.tolist(),
    })
    return stage


def _stabilizer_sample(ctx, rng: np.random.Generator) -> np.ndarray:
    """The run's G_μ sample: Ad(exp(g_μ·u)) for five u ~ U[−1, 1]^k, one draw; none at k = 0."""
    u = rng.uniform(-1.0, 1.0, (5 if ctx.stabilizer_dim else 0, ctx.stabilizer_dim))
    return group_exp(ctx.algebra, linalg.matvec(ctx.split.g_mu, u))


def _chart_sweep(geom: SigmaGeometry, pts, fibers: np.ndarray) -> tuple:
    """Every reduced-connection defect, from arrays stacked over the chart points,
    and the sweep's kernels: at those points (identity fiber), then at pts[0] on each fiber.

    At each point t: the kernel's D = dν(t), lifts L of D's columns and their
    jet J, the reduced form matrix Ω(t) = L·ω(μ)·Lᵀ and its exact derivatives
    ∂ₓΩ = J[x]·ω(μ)·Lᵀ minus its transpose, and the kernel's table ``cov`` of
    reduced derivatives ∇ʳ(f_i) f_j of the coordinate fields with the
    level-set derivatives ``level`` they are pushed down from.  Torsion, the Gram
    oracle, KKS match, parallelism (∂ₓΩ_ij = Ω(∇ʳ_x f_i, f_j) + Ω(f_i, ∇ʳ_x f_j))
    and closedness (the cyclic sum of ∂Ω on the first two points, a 3-form:
    identically 0 on 2-dimensional orbits, such as the catalog's and so(4)
    singular's) read these; fiber independence compares the table at pts[0]
    with the same table at the stabilizer ``fibers`` (Ad matrices, the run's
    sample).  At each of these points, the lifts (the horizontal projection of
    the section velocity) are compared with the quotient-map solve ``lift`` of
    D's columns, relative to max(1, |lift|).  One batch of kernels holds every
    table, and the lift solves read it; each solve is stacked.
    """
    ctx = geom.ctx
    km = geom.chart.dim
    e = geom.identity
    swept = (np.vstack([pts] + [pts[0]] * len(fibers)), np.array([e] * len(pts) + list(fibers)))
    K = geom.kernels(*swept)
    gap = np.linalg.norm(K.lifts - geom.lift(K, K.D.swapaxes(1, 2)), axis=-1)
    projection = float(np.max(gap / np.maximum(1.0, np.linalg.norm(K.lifts, axis=-1))))
    P = len(pts)  # the fibers' points enter the projection gaps and fiber independence only
    fiber = float(np.max(np.abs(K.cov[P:] - K.cov[0]), initial=0.0))
    batch, K = K, K[:P]  # all the kernels, and the chart points', which the curvature stage reads
    D, coad, lifts, jet, level, cov = K.D, K.coad, K.lifts, K.jet, K.level, K.cov
    pairs = kks_pairs(ctx.algebra, D, linalg.matvec(coad, ctx.mu), geom.form_table(lifts, lifts))
    jw = geom.form_table(jet[:, :km].reshape(P, km * km, -1), lifts).reshape(P, km, km, km)
    d_omega = jw - jw.swapaxes(-1, -2)
    # Pc[p, x, i, j] = Ω(∇ʳ_x f_i, f_j), so Ω(f_i, ∇ʳ_x f_j) = -Pc[p, x, j, i]
    cov_lifts = geom.lift(K, cov.reshape(P, km * km, -1))
    Pc = geom.form_table(cov_lifts, lifts).reshape(P, km, km, km)
    oracle = gram_oracle_solve(geom, D, lifts, level.reshape(P, km * km, -1)).reshape(cov.shape)
    cyclic = d_omega + d_omega.transpose(0, 3, 1, 2) + d_omega.transpose(0, 2, 3, 1)
    return {"sigma": next((float(np.sign(red / ref)) for red, ref in pairs), None),
            "kks": kks_gap(pairs), "fiber": fiber,
            "torsion": float(np.max(np.abs(cov - cov.transpose(0, 2, 1, 3)))),
            "oracle": float(np.max(np.abs(cov - oracle))),
            "parallel": float(np.max(np.abs(d_omega - Pc + Pc.swapaxes(-1, -2)))),
            "closed": float(np.max(np.abs(cyclic[:2]))), "projection": projection}, batch


def _stage_curvature(cfg: CaseConfig, run) -> dict:
    if run.geom is None:  # the reduce stage built no chart
        return {"status": "skipped", "reason": "zero-dimensional base"
                if run.stages["reduce"]["zero_dimensional_base"] else "no matrix realization"}
    # the first of the reduce stage's chart points, with their kernels: the stage draws nothing
    pts = np.array(run.stages["reduce"]["chart_points"][: max(1, cfg.samples // 2)])
    return {
        "status": "ok",
        **curvature_battery(run.geom, pts, run.kernels[: len(pts)]),
    }


_STAGE_RUNS = {"validate": _stage_validate, "connect": _stage_connect,
               "reduce": _stage_reduce, "curvature": _stage_curvature}


def _run_stages(cfg: CaseConfig, stop_after: str, stages: dict, timings: dict):
    """Run the stages through ``stop_after`` on the seed's rng, filling ``stages``
    and ``timings``.  Each stage takes the config and the run record, returns its
    report and sets on the run what it builds for later stages and ``verify``.
    Returns the run (geometry, sweep and kernels stay None without a chart)."""
    a = cfg.algebra()
    run = SimpleNamespace(stages=stages, rng=np.random.default_rng(cfg.seed), a=a,
                          mu=cfg.mu_vector(a), geom=None, sweep=None, kernels=None)
    for stage in STAGES[: STAGES.index(stop_after) + 1]:
        ts = time.perf_counter()
        stages[stage] = _STAGE_RUNS[stage](cfg, run)
        timings[stage] = time.perf_counter() - ts
    return run


def run_pipeline(cfg: CaseConfig, stop_after: str = "curvature") -> tuple[dict, int]:
    """Run the staged pipeline and assemble the report.

    Returns (report, exit_code); the report is always complete up to the
    failing stage, with the error recorded.
    """
    if stop_after not in STAGES:
        raise ConfigError(f"unknown stage {stop_after!r}")
    t0 = time.perf_counter()
    rep = {"schema_version": report_mod.SCHEMA_VERSION, "config": cfg.as_dict(),
           "stages": {}, "error": None}
    code = EXIT_OK
    timings = {}
    try:
        _run_stages(cfg, stop_after, rep["stages"], timings)
    except Exception as exc:  # noqa: BLE001 - mapped to exit codes below
        stage_name = next((s for s in STAGES if s not in rep["stages"]), "setup")
        rep["error"] = _error_record(exc, stage_name)
        code = _exit_code(exc)
    rep["timings"] = {**timings, "total": time.perf_counter() - t0}
    return rep, code


# --- verification battery ------------------------------------------------------
#
# Each ``_verify_*`` part is a generator over the run that yields its checks in
# order as (name, value[, THRESHOLDS key[, note]]): a defect held to the key's
# threshold (0 without a key), or a bool, the verdict of a pass/fail check.  A
# check that mirrors a stage value yields that value from the stage results.

BASELINE_NOTE = "fails by construction when connection='baseline'"


def _record(cfg: CaseConfig, name: str, value, key: str | None = None, note: str = "") -> dict:
    """The report's entry for one yielded check.  A bool verdict (numpy's
    included) is recorded with value and threshold 0."""
    if isinstance(value, (bool, np.bool_)):
        passed, value, threshold = bool(value), 0.0, 0.0
    else:
        threshold = 0.0 if key is None else cfg.threshold(key)
        passed = bool(value <= threshold)
    return {"name": name, "value": float(value), "threshold": threshold, "passed": passed,
            "note": note}


def verify_suite(cfg: CaseConfig) -> tuple[dict, int]:
    """Run every structural property as a named check with measured defect.

    The four stages run first, as ``run_pipeline(cfg, "curvature")`` runs them
    on the same rng; the mirrored checks read their values, the checks on G_μ
    the reduce stage's sample, and the others draw from the rng after the stages.
    """
    checks: list[dict] = []
    rep = {"schema_version": report_mod.SCHEMA_VERSION, "config": cfg.as_dict(),
           "checks": checks, "error": None}
    t0 = time.perf_counter()
    try:
        run = _run_stages(cfg, "curvature", {}, {})
        for part in (_verify_algebra, _verify_phase, _verify_connections, _verify_reduction,
                     _verify_curvature):
            for check in part(cfg, run):
                checks.append(_record(cfg, *check))
        rep["passed"] = all(c["passed"] for c in checks)
        code = EXIT_OK if rep["passed"] else EXIT_NUMERICAL
    except Exception as exc:  # noqa: BLE001
        rep["error"] = _error_record(exc, "verify")
        rep["passed"], code = False, _exit_code(exc)
    rep["timings"] = {"total": time.perf_counter() - t0}
    return rep, code


def _verify_algebra(cfg, run):
    a, mu, rng = run.a, run.mu, run.rng
    n = a.dim
    yield "lie/jacobi", a.jacobi_defect, "jacobi"
    X, Y, xi = np.split(rng.standard_normal((10, 3 * n)), 3, axis=1)  # ten draws, one per row
    pair = np.max(np.abs(linalg.vecdot(xi, a.bracket(X, Y)) + linalg.vecdot(xi, a.bracket(Y, X))))
    yield "lie/bracket-pairing-antisymmetry", pair
    g_mu, m = run.ctx.split.g_mu, run.ctx.m
    k = g_mu.shape[1]
    # [Y, e_j] for every stabilizer basis vector Y and every basis vector e_j
    ann = np.max(np.abs(linalg.vecdot(a.bracket(g_mu.T[:, None], np.eye(n)), mu)), initial=0.0)
    yield "lie/stabilizer-annihilation", ann, "stabilizer_annihilation"
    if k and m.shape[1]:
        Q = np.hstack([g_mu, m])
        pi = Q @ np.diag([1.0] * k + [0.0] * m.shape[1]) @ np.linalg.inv(Q)
        adY = a.ad(g_mu.T)
        yield ("lie/complement-equivariance", np.max(np.abs(pi @ adY - adY @ pi)),
               "complement_equivariance")
    fix = np.max(np.abs(linalg.matvec(coadjoint_matrix(run.stabilizer), mu) - mu), initial=0.0)
    yield "lie/coad-fixes-mu", fix, "coad_fixes_mu"
    Ad = group_exp(a, rng.uniform(-1, 1, n))
    X, Y = np.split(rng.standard_normal((5, 2 * n)), 2, axis=1)  # five draws, one per row
    hom = np.max(np.abs(linalg.matvec(Ad, a.bracket(X, Y))
                        - a.bracket(linalg.matvec(Ad, X), linalg.matvec(Ad, Y))))
    yield "lie/ad-homomorphism", hom, "ad_homomorphism"
    law = float(np.max(np.abs(coadjoint_matrix(Ad) @ coadjoint_matrix(np.linalg.inv(Ad))
                              - np.eye(n))))
    yield "lie/coad-group-law", law, "coad_group_law"


def _verify_phase(cfg, run):
    a, rng = run.a, run.rng
    n = a.dim
    split = run.ctx.split
    # five draws, one row (ξ, u, v, w) each
    draws = np.split(rng.standard_normal((5, 7 * n)), [n, 3 * n, 5 * n], axis=1)
    yield "phase/omega-closed", np.max(np.abs(_cyclic_domega(a, *draws))), "omega_closed"
    om = run.ctx.omega_mu
    pairing = float(np.max(np.abs(split.t_sigma.T @ om @ split.delta), initial=0.0))
    yield "phase/tsigma-delta-pairing", pairing, "tsigma_delta_pairing"
    yield ("phase/tperp-span",
           run.stages["validate"]["level_set_checks"]["tperp_equals_generator_span"], "tperp_span")
    gram = split.sum.T @ om @ split.sum
    radical = split.sum @ linalg.nullspace(gram)
    yield "phase/radical-span", linalg.subspace_distance(radical, split.delta), "radical_span"


def _cyclic_domega(a, xi, u, v, w) -> np.ndarray:
    """Exterior derivative of ω on frame-constant extensions, row by row over
    stacks of draws; zero when closed."""
    n = a.dim
    total = 0.0
    for x, y, z in ((u, v, w), (v, w, u), (w, u, v)):
        # moving along x changes the fiber point at rate eta_x; only the
        # bracket term of ω(y, z) depends on the fiber point
        total -= linalg.vecdot(x[:, n:], a.bracket(y[:, :n], z[:, :n]))
        bx = np.hstack([a.bracket(x[:, :n], y[:, :n]), np.zeros_like(xi)])
        total -= symplectic_form(a, xi, bx, z)
    return total


def _verify_connections(cfg, run):
    a, base, xi_samples = run.a, run.base, run.xi_samples
    connect = run.stages["connect"]
    yield "conn/baseline-torsion", torsion_defect(a, base), "baseline_torsion"
    yield "conn/torsion", connect["torsion_defect"], "symplectized_torsion"
    yield ("conn/nabla-omega", connect["nabla_omega_defect"], "symplectized_nabla_omega",
           BASELINE_NOTE)
    # Γ(ξ) of the symplectization over the stack of ξ samples, evaluated once per run
    gammas = run.gammas if cfg.connection == "symplectic" else \
        symplectized_coefficients(a, xi_samples, base)
    A = gammas - base
    yield "conn/a-symmetry", np.max(np.abs(A - np.swapaxes(A, -3, -2))), "a_symmetry"
    idem = np.max(np.abs(symplectized_coefficients(a, xi_samples, gammas) - gammas))
    yield "conn/symplectize-idempotent", idem, "symplectize_idempotent"
    # the symplectization pulled back by a random element, from its Γ at the moved ξ
    g = group_exp(a, run.rng.uniform(-0.5, 0.5, a.dim))
    moved = linalg.matvec(coadjoint_matrix(np.linalg.inv(g)), xi_samples)
    pulled = pullback_coefficients(g, symplectized_coefficients(a, moved, base))
    yield "conn/right-invariance", np.max(np.abs(pulled - gammas)), "right_invariance"


def _verify_reduction(cfg, run):
    a, mu, ctx, rng, sweep, h = run.a, run.mu, run.ctx, run.rng, run.sweep, run.stabilizer
    reduced = run.stages["reduce"]
    om = ctx.omega_mu
    yield "red/s-isotropic", reduced["isotropy_defect"], "isotropy"
    yield "red/projector-idempotent", reduced["projector_defect"], "projector_idempotent"
    t_sigma = ctx.split.t_sigma
    range_dist = linalg.subspace_distance(ctx.p_matrix @ t_sigma, t_sigma)
    kernel = linalg.nullspace(ctx.p_matrix)
    kernel_dist = linalg.subspace_distance(kernel, np.hstack([ctx.w2, ctx.S]))
    yield "red/projector-range", range_dist, "projector_spaces"
    yield "red/projector-kernel", kernel_dist, "projector_spaces"
    g_mu = ctx.split.g_mu
    back = linalg.matvec(g_mu, ctx.alpha(right_generator(a, mu, g_mu.T)))
    alpha_defect = max(float(np.max(np.abs(back - g_mu.T), initial=0.0)),
                       float(np.max(np.abs(ctx.alpha_mat @ ctx.w1), initial=0.0)))
    yield "red/alpha-identities", alpha_defect, "alpha_identities"
    if ctx.w1.shape[1]:
        s = np.linalg.svd(ctx.w1.T @ om @ ctx.w1, compute_uv=False)
        yield ("red/w1-omega-nondegenerate", s[-1] > linalg.RANK_RTOL * s[0], None,
               f"ratio {s[-1] / s[0]:.3e}")
    yield "red/l-equivariance", _l_equivariance_defect(ctx, h[:3]), "l_equivariance"
    geod = reduced["totally_geodesic_defect"]
    yield ("red/geodesic-oracle", _geodesic_oracle_gap(ctx, geod), "geodesic_oracle",
           f"defect {geod:.3e}")
    auto = reduced["autoparallel"]
    note = f"defect {auto['defect']:.3e}"
    if run.geom is not None:
        yield ("red/sigma-equivariance", _sigma_equivariance_defect(ctx, h[:3], rng),
               "sigma_equivariance")
        yield "red/sigma-torsion", _sigma_torsion_defect(ctx), "sigma_torsion"
        yield "red/reduced-torsion", sweep["torsion"], "reduced_torsion"
        yield "red/reduced-oracle", sweep["oracle"], "reduced_oracle"
        yield "red/kks-match", sweep["kks"], "kks_match"
        yield "red/reduced-form-parallel", sweep["parallel"], "reduced_form_parallel"
        yield "red/reduced-form-closed", sweep["closed"], "reduced_form_closed"
        yield "red/fiber-independence", sweep["fiber"], "fiber_independence"
        yield "red/lift-projection", sweep["projection"], "lift_projection"
        t, fibers = reduced["chart_points"][0], np.array([run.geom.identity, *h[:1]])
        K = run.kernels[len(reduced["chart_points"]) * np.arange(len(fibers))]  # t on 1, on h₀
        yield "red/jet-fd", _jet_fd_defect(run.geom, t, fibers, K), "jet_fd"
        if auto["independence"] is not None:
            yield "red/autoparallel-independence", auto["independence"], "fiber_independence", note
            return
    yield "red/autoparallel-report", True, None, note


def _verify_curvature(cfg, run):
    if run.geom is None:  # the curvature stage was skipped
        return
    curv = run.stages["curvature"]
    yield "curv/formula-oracle", curv["max_discrepancy"], "curvature_agreement"
    sym = curv["symmetry"]
    yield "curv/antisymmetry", sym["antisymmetry_defect"], "curvature_antisymmetry"
    yield "curv/symplectic-valued", sym["symplectic_defect"], "curvature_symplectic"
    yield "curv/bianchi", sym["bianchi_defect"], "curvature_bianchi"
    # flat cases sit on the roundoff floor where no truncation is measurable; the
    # factor carries roundoff of about ±0.01, so the note prints one decimal
    conv = curv["convergence"]
    measurable = conv["oracle_error_coarse"] >= 1e-6
    yield ("curv/convergence-factor", not measurable or 3.0 <= conv["factor"] <= 5.0, None,
           f"factor {conv['factor']:.1f}" if measurable else "flat, below floor")


def _l_equivariance_defect(ctx, elements: np.ndarray) -> float:
    """Transport L by the stabilizer ``elements`` (Ad matrices) and compare."""
    st, delta, lam = ctx.s_tilde, ctx.split.delta, ctx.iso_map
    L_full = delta @ lam @ np.linalg.pinv(st)
    T = frame_transport(np.linalg.inv(elements))
    moved = T @ (L_full @ (np.linalg.inv(T) @ st)) - L_full @ st
    return float(np.max(np.abs(moved), initial=0.0))


def _geodesic_oracle_gap(ctx, value: float) -> float:
    """Re-derive the totally-geodesic defect by a least-squares projection route."""
    n, k = ctx.algebra.dim, ctx.stabilizer_dim
    gens = ctx.split.delta.T  # rows (g_μ e_i, 0)
    products = np.einsum("abc,ia,jb->ijc", ctx.gamma_mu, gens, gens).reshape(k * k, 2 * n)
    # the TΣ components along W2 ⊕ S of the frame vectors and the products, one solve
    basis = np.hstack([ctx.split.t_sigma, ctx.w2, ctx.S])
    coords, *_ = np.linalg.lstsq(basis, np.hstack([np.eye(2 * n), products.T]), rcond=None)
    proj = ctx.split.t_sigma @ coords[:n]
    pairs = proj[:, 2 * n:].T @ ctx.omega_mu @ proj[:, : 2 * n]
    return abs(float(np.max(np.abs(pairs), initial=0.0)) - value)


def _sigma_equivariance_defect(ctx, elements: np.ndarray, rng) -> float:
    """Transport constant level-set fields by the three stabilizer ``elements``
    (Ad matrices) and compare, on three (u, v) pairs each, drawn from rng."""
    n, k, gamma, P = ctx.algebra.dim, ctx.stabilizer_dim, ctx.gamma_mu, ctx.p_matrix
    if k == 0:
        return 0.0
    pairs = rng.standard_normal((3, 3, 2 * n))
    T = frame_transport(np.linalg.inv(elements))[:, None]
    # rows (X, 0) of u and v, [element, pair, X]
    u, v = np.moveaxis(np.pad(pairs.reshape(3, 3, 2, n), [(0, 0)] * 3 + [(0, n)]), 2, 0)
    Tu, Tv = linalg.matvec(T, np.stack([u, v]))
    lhs = linalg.matvec(T, linalg.matvec(P, np.einsum("abc,...a,...b->...c", gamma, u, v)))
    rhs = linalg.matvec(P, np.einsum("abc,...a,...b->...c", gamma, Tu, Tv))
    return float(np.max(np.abs(lhs - rhs)))


def _jet_fd_defect(geom: SigmaGeometry, t, fibers: np.ndarray, K) -> float:
    """Largest gap, relative to max(1, |exact|), between the exact derivatives
    of ``lifts`` (from K, the kernels at t on each of ``fibers``, Ad matrices)
    and their central differences at ``JET_FD_STEP`` along each lift and
    stabilizer generator: every fiber's stencil points in one ``_stencil_points``
    call, their lifts from the chart's lift block alone (``lift_frames``)."""
    gens = np.pad(geom.ctx.split.g_mu.T, ((0, 0), (0, geom.n)))  # rows (g_μ e_b, 0)
    us = np.concatenate([K.lifts, np.broadcast_to(gens, (len(fibers),) + gens.shape)], axis=1)
    exact = geom.lift_derivatives(K, us)
    d = us.shape[1]  # directions per fiber
    points = geom._stencil_points(t, np.repeat(fibers, d, axis=0), us.reshape(-1, 2 * geom.n),
                                  JET_FD_STEP, np.repeat(K.F, d, axis=0))
    fd = _central(geom.lift_frames(*points)[0], JET_FD_STEP).reshape(exact.shape)
    return float(np.max(np.max(np.abs(exact - fd), axis=(-2, -1))
                        / np.maximum(1.0, np.max(np.abs(exact), axis=(-2, -1)))))


def _sigma_torsion_defect(ctx) -> float:
    """Torsion of P∘∇ on the frame-constant level-set fields (e_i, 0)."""
    n, P = ctx.algebra.dim, ctx.p_matrix
    gamma = ctx.gamma_mu[:n, :n]
    cov = linalg.matvec(P, gamma) - linalg.matvec(P, gamma.transpose(1, 0, 2))
    return float(np.max(np.abs(cov - frame_structure(ctx.algebra)[:n, :n])))
