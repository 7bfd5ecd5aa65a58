"""Run a committed list of source mutants against the report dumps and tier-1.

    python3 tools/mutants.py [--root DIR] [--out FILE]

Each entry of ``MUTANTS`` is one fault: an exact text replacement (module of
``src/redconn``, old text, new text) whose old text occurs once in that
module.  A ``program`` mutant breaks what the library computes; a ``check``
mutant breaks a check's own code, most of them so that it can no longer fail.  A mutant
with a reason under ``equivalent`` computes what the original computes (to
roundoff), so no check should tell it apart.  A graded family applies one fault
at ε = 1e-9, 1e-7 and 1e-5 (``GRADED_EPSILONS``): its largest ε is a
``program`` mutant, the smaller ones ``graded``, and the table reports the
smallest ε each family is caught at.

The tree at ``--root`` (this checkout by default) is copied once unchanged and
once per mutant into a temporary directory, without ``.git`` and caches.  On each
copy, ``tools/compare_reports.py``'s ``dump`` (this checkout's) writes the 46
reports of the copy's ``src``.  A mutant is killed by the dumps when, against
the unchanged copy's dumps, any verify verdict changes (a check passing, failing,
appearing or vanishing: the check *flipped*) or an exit code changes that no
flipped check explains (a non-verify dump, a changed error type, or a report
the dump no longer wrote).  The dumps whose bytes moved are counted as well.  A
mutant the dumps do not kill runs tier-1 (``python -m pytest -x -q`` in its
copy, without ``tests/test_mutants.py``, which holds this list to the unmutated
source); a failing test kills it.  When that test is
``test_dumps_match_the_committed_reference``, whose sha256 pin fails on any
report whose bytes moved, tier-1 runs again without it: a mutant no other test
fails is ``pin-only``, caught by no test of behaviour.

The table prints one line per mutant: its status (``dumps``, ``tier-1``,
``pin-only``, ``survived``), the flipped checks and the dumps whose exit code
changed.  Then each check that alone killed a mutant: with that check gone, the
dumps would no longer kill it, and each graded family's smallest ε caught, by
any route and by the dumps alone.
``--out`` writes the same as JSON.  The exit status is 0 when every mutant
applies and every one that is neither equivalent nor ``graded`` is killed by
the dumps or by a tier-1 test other than the pin, 1 otherwise.  The standard
library alone runs it.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IGNORED = (".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_work",
           ".bench_build", "*.egg-info")
# compare_reports.dump of <src> into <dir>, on the labels that follow (all without any)
DUMP = ("import sys; sys.path.insert(0, sys.argv[1]); import compare_reports; "
        "compare_reports.dump(sys.argv[2], sys.argv[3], sys.argv[4:] or None)")
DUMP_TIMEOUT_S = 300
TIER1_TIMEOUT_S = 900
PIN = "tests/test_compare_reports.py::test_dumps_match_the_committed_reference"
GRADED_EPSILONS = (1e-9, 1e-7, 1e-5)


def _graded(family: str, module: str, old: str, new: str) -> tuple:
    """The family's mutants, one per ε of ``GRADED_EPSILONS`` (``{eps}`` in ``new``)."""
    return tuple((f"{family}-{eps:.0e}", module, "program" if eps == GRADED_EPSILONS[-1]
                  else "graded", old, new.format(eps=eps), None) for eps in GRADED_EPSILONS)


# (name, module, kind, old, new, equivalent): one fault each.
MUTANTS = (
    # --- __init__.py
    ("init-no-verify-suite", "__init__.py", "program",
     "from .pipeline import CaseConfig, run_pipeline, verify_suite",
     "from .pipeline import CaseConfig, run_pipeline", None),
    # --- errors.py
    ("errors-rankloss-not-a-reduction-error", "errors.py", "program",
     "class RankLoss(ReductionError):", "class RankLoss(Exception):", None),
    ("errors-nonreductive-not-a-reduction-error", "errors.py", "program",
     "class NonReductiveStabilizer(ReductionError):", "class NonReductiveStabilizer(Exception):",
     None),
    # --- report.py
    ("report-int-as-float", "report.py", "program",
     "return int.__repr__(value)", "return float.__repr__(float(value))", None),
    ("report-nan-lowercase", "report.py", "program",
     'return "NaN" if value != value', 'return "nan" if value != value', None),
    # --- cli.py
    ("cli-export-draws-another-seed", "cli.py", "program",
     "rng = np.random.default_rng(cfg.seed)", "rng = np.random.default_rng(cfg.seed + 1)", None),
    ("cli-config-error-exits-one", "cli.py", "program",
     '"error": _error_record(exc, "config")}, args.out, EXIT_CONFIG)',
     '"error": _error_record(exc, "config")}, args.out, 1)', None),
    ("cli-seed-flag-ignored", "cli.py", "program",
     'for key in ("seed", "tol_scale")', 'for key in ("tol_scale",)', None),
    # --- linalg.py
    ("linalg-nullspace-drops-a-vector", "linalg.py", "program",
     "return vh[_svd_rank(s):].T.copy()", "return vh[_svd_rank(s) + 1:].T.copy()", None),
    ("linalg-matvec-transposed", "linalg.py", "program",
     "return (A @ np.asarray(v, dtype=float)[..., None])[..., 0]",
     "return (np.swapaxes(A, -1, -2) @ np.asarray(v, dtype=float)[..., None])[..., 0]", None),
    ("linalg-pade9-theta-tenfold", "linalg.py", "program",
     "(9, 2.097847961257068e0)", "(9, 2.097847961257068e1)", None),
    ("linalg-one-squaring-short", "linalg.py", "program",
     "    for _ in range(s):\n", "    for _ in range(s - 1):\n", None),
    ("linalg-rank-cutoff-loose", "linalg.py", "program",
     "RANK_RTOL = 1e-10", "RANK_RTOL = 1e-2", None),
    # --- phasespace.py
    ("phase-gram-k-sign", "phasespace.py", "program",
     "om[..., :n, :n] = -K", "om[..., :n, :n] = K", None),
    ("phase-form-bracket-sign", "phasespace.py", "program",
     "- linalg.vecdot(xi, a.bracket(X, Xp))", "+ linalg.vecdot(xi, a.bracket(X, Xp))", None),
    ("phase-generator-sign", "phasespace.py", "program",
     "return np.concatenate([X, a.coad_star(X, xi)], axis=-1)",
     "return np.concatenate([X, -a.coad_star(X, xi)], axis=-1)", None),
    # the radical δ with a fiber part, which pairs with TΣ (phase/tsigma-delta-pairing)
    ("phase-delta-fiber-part", "phasespace.py", "program",
     "delta = np.vstack([g_mu, np.zeros((n, g_mu.shape[1]))])",
     "delta = np.vstack([g_mu, 1e-6 * g_mu])", None),
    # ω's pairing term halved in one slot: dω on frame-constant fields keeps an η term
    # (phase/omega-closed)
    ("phase-form-pairing-half", "phasespace.py", "program",
     "return linalg.vecdot(eta, Xp) - linalg.vecdot(etap, X) -",
     "return linalg.vecdot(eta, Xp) - 0.5 * linalg.vecdot(etap, X) -", None),
    # --- liealg.py
    ("liealg-ad-transposed", "liealg.py", "program",
     'return np.einsum("ijk,...i->...kj", self.c, X)',
     'return np.einsum("ijk,...i->...jk", self.c, X)', None),
    ("liealg-group-exp-transposed", "liealg.py", "program",
     "return linalg.expm(a.ad(X))", "return linalg.expm(np.swapaxes(a.ad(X), -1, -2))", None),
    ("liealg-coad-transpose", "liealg.py", "program",
     "return np.swapaxes(np.linalg.inv(Ad), -1, -2)", "return np.swapaxes(Ad, -1, -2)", None),
    ("liealg-coad-scaled", "liealg.py", "program",
     "return np.swapaxes(np.linalg.inv(Ad), -1, -2)",
     "return np.swapaxes(np.linalg.inv(Ad), -1, -2) * (1.0 + 1e-6)", None),
    ("liealg-se2-breaks-jacobi", "liealg.py", "program",
     "    c[0, 2, 1], c[2, 0, 1] = -1.0, 1.0\n",
     "    c[0, 2, 1], c[2, 0, 1] = -1.0, 1.0\n    c[1, 2, 1], c[2, 1, 1] = 1.0, -1.0\n", None),
    ("liealg-jacobi-gate-loose", "liealg.py", "check",
     "JACOBI_TOL = 1e-12", "JACOBI_TOL = 1e-3", None),
    ("liealg-bracket-unmasked", "liealg.py", "program",
     "anti = np.where(self._upper, W - np.swapaxes(W, -1, -2), 0.0)", "anti = W",
     "c is antisymmetric in its first two slots, so the full sum over (i, j) is the "
     "bracket; only its bitwise antisymmetry goes"),
    ("liealg-stabilizer-kernel-of-k", "liealg.py", "program",
     "return linalg.nullspace(a.bracket_pairing(mu).T)",
     "return linalg.nullspace(a.bracket_pairing(mu))",
     "K(μ) is antisymmetric, so K and Kᵀ have one kernel"),
    # --- connections.py
    ("conn-baseline-not-half", "connections.py", "program",
     "gamma[:n, :n, :n] = 0.5 * a.c", "gamma[:n, :n, :n] = 0.6 * a.c", None),
    ("conn-baseline-symmetric-part", "connections.py", "program",
     "gamma[:n, :n, :n] = 0.5 * a.c", "gamma[:n, :n, :n] = 0.5 * a.c + 0.1 * np.abs(a.c)", None),
    ("conn-symplectize-half", "connections.py", "program",
     "rhs = (N + np.swapaxes(N, -3, -2)) / 3.0", "rhs = (N + np.swapaxes(N, -3, -2)) / 2.0", None),
    ("conn-symplectize-antisymmetric", "connections.py", "program",
     "rhs = (N + np.swapaxes(N, -3, -2)) / 3.0", "rhs = (N - np.swapaxes(N, -3, -2)) / 3.0", None),
    ("conn-torsion-structure-sign", "connections.py", "program",
     "return gamma - np.swapaxes(gamma, -3, -2) - frame_structure(a)",
     "return gamma - np.swapaxes(gamma, -3, -2) + frame_structure(a)", None),
    ("conn-pullback-last-factor", "connections.py", "program",
     "frame_transport(g), (-3, 1))", "frame_transport(g), (-3, 0))", None),
    ("conn-transport-ad-for-coad", "connections.py", "program",
     "T[..., n:, n:] = coadjoint_matrix(Ad)", "T[..., n:, n:] = Ad", None),
    # --- orbits.py
    ("orbits-kks-sign", "orbits.py", "program",
     "KKS_MATCH_SIGN = -1.0", "KKS_MATCH_SIGN = 1.0", None),
    ("orbits-tangent-rule-strict", "orbits.py", "program",
     "TANGENT_RTOL = 1e-8", "TANGENT_RTOL = 1e-18", None),
    ("orbits-coad-untransposed", "orbits.py", "program",
     "coad = E[inverse, :n, :n].transpose(0, 2, 1)", "coad = E[inverse, :n, :n]", None),
    ("orbits-chart-velocity-sign", "orbits.py", "program",
     "block[:, :n, :n] = -a.ad(linalg.matvec(m, ts[first]))",
     "block[:, :n, :n] = a.ad(linalg.matvec(m, ts[first]))", None),
    ("orbits-kks-pairs-none", "orbits.py", "check",
     "if abs(ref) > 1e-12]", "if abs(ref) > 1e12]", None),
    ("orbits-solve-without-cutoff", "orbits.py", "program",
     "where=s > np.finfo(float).eps * max(A.shape[-2:]) * s[..., :1])", "where=s > 0)", None),
    # --- reduction.py
    ("red-isotropic-shear-doubled", "reduction.py", "program",
     "lam = 0.5 * np.linalg.solve(B.T, W)", "lam = np.linalg.solve(B.T, W)", None),
    ("red-alpha-wrong-rows", "reduction.py", "program",
     "alpha_mat = Q_inv[:k, :]", "alpha_mat = Q_inv[k:2 * k, :]", None),
    # α off the rows of Q⁻¹ by 1e-6 (red/alpha-identities)
    ("red-alpha-scaled", "reduction.py", "program",
     "alpha_mat = Q_inv[:k, :]", "alpha_mat = Q_inv[:k, :] * (1.0 + 1e-6)", None),
    # the totally-geodesic defect paired against the unprojected frame (red/geodesic-oracle)
    ("red-geodesic-unprojected", "reduction.py", "program",
     "rows[..., None, :] @ ctx.omega_mu @ P)", "rows[..., None, :] @ ctx.omega_mu)", None),
    ("red-horizontal-sign", "reduction.py", "program",
     "return v - self.alpha_star(v)", "return v + self.alpha_star(v)", None),
    ("red-induced-gamma-sign", "reduction.py", "program",
     "d + linalg.matvec(gamma_u.swapaxes(-1, -2), base)",
     "d - linalg.matvec(gamma_u.swapaxes(-1, -2), base)", None),
    ("red-central-step", "reduction.py", "program",
     "return (v[:, 0] - v[:, 1]) / (2.0 * np.reshape(",
     "return (v[:, 0] - v[:, 1]) / (1.9 * np.reshape(", None),
    ("red-fiber-jet-sign", "reduction.py", "program",
     "-rows[:, None] @ self.ad_fiber_T], axis=1)", "rows[:, None] @ self.ad_fiber_T], axis=1)",
     None),
    ("red-lift-derivatives-scaled", "reduction.py", "program",
     "return _along(K.jet, self._params(K.F[:, None], us))",
     "return _along(K.jet, self._params(K.F[:, None], us) * (1.0 + 1e-4))", None),
    ("red-never-autoparallel", "reduction.py", "program",
     "autoparallel = defect <= 1e-10", "autoparallel = defect <= -1.0", None),
    ("red-autoparallel-unperturbed", "reduction.py", "check",
     "ctx.s_tilde + 0.4 * rng.standard_normal", "ctx.s_tilde + 0.0 * rng.standard_normal", None),
    # the geometry's Γ(μ), which every reduced derivative reads, scaled by 1 + ε
    *_graded("red-geometry-gamma-scaled", "reduction.py",
             "self.gamma_T = ctx.gamma_mu.reshape(2 * self.n, -1).T",
             "self.gamma_T = ctx.gamma_mu.reshape(2 * self.n, -1).T * (1.0 + {eps:.0e})"),
    # --- curvature.py
    ("curv-probe-step-large", "curvature.py", "program",
     "PROBE_STEP = 4e-3", "PROBE_STEP = 4e-1", None),
    ("curv-tensor-quadratic-sign", "curvature.py", "program",
     "r_chart = dg + quad - (dg + quad).transpose(1, 0, 2, 3)",
     "r_chart = dg - quad - (dg - quad).transpose(1, 0, 2, 3)", None),
    ("curv-formula-term3-sign", "curvature.py", "program",
     "r_amb = (outer[oi, J, :, 0] - outer[oj, I, :, 0]) - term3",
     "r_amb = (outer[oi, J, :, 0] - outer[oj, I, :, 0]) + term3", None),
    ("curv-exact-bracket-sign", "curvature.py", "program",
     "r_mu = (NE[:, None] @ NE[None] - NE[None] @ NE[:, None] - NB)",
     "r_mu = (NE[:, None] @ NE[None] - NE[None] @ NE[:, None] + NB)", None),
    ("curv-bianchi-sum-sign", "curvature.py", "check",
     "cyclic = R + R.transpose(0, 3, 1, 2, 4) + R.transpose(0, 2, 3, 1, 4)",
     "cyclic = R + R.transpose(0, 3, 1, 2, 4) - R.transpose(0, 2, 3, 1, 4)", None),
    # --- pipeline.py
    ("pipe-symplectic-means-baseline", "pipeline.py", "program",
     'if cfg.connection == "symplectic" else gammas', 'if cfg.connection != "symplectic" else gammas',
     None),
    # the reduce stage's Γ(μ) off the connect stage's by 1e-6: P applied to a level-set
    # torsion T(μ) that conn/torsion does not read (red/sigma-torsion)
    ("pipe-reduce-gamma-scaled", "pipeline.py", "program",
     "gamma_mu=run.gammas[0],", "gamma_mu=run.gammas[0] * (1.0 + 1e-6),", None),
    ("pipe-tperp-generators-at-minus-mu", "pipeline.py", "check",
     "gens = right_generator(a, mu, np.eye(n)).T", "gens = right_generator(a, -mu, np.eye(n)).T",
     None),
    ("pipe-stabilizer-sample-identity", "pipeline.py", "check",
     "u = rng.uniform(-1.0, 1.0, (5 if", "u = rng.uniform(-0.0, 0.0, (5 if", None),
    ("pipe-verdict-tenfold", "pipeline.py", "check",
     "passed = bool(value <= threshold)", "passed = bool(value <= 10.0 * threshold)", None),
    ("pipe-fiber-independence-against-itself", "pipeline.py", "check",
     "np.abs(K.cov[P:] - K.cov[0])", "np.abs(K.cov[P:] - K.cov[P:])", None),
    ("pipe-l-equivariance-untransported", "pipeline.py", "check",
     "moved = T @ (L_full @ (np.linalg.inv(T) @ st)) - L_full @ st",
     "moved = L_full @ st - L_full @ st", None),
)


def _name_fields(entry) -> dict:
    name, module, kind, old, new, equivalent = entry
    return {"name": name, "module": module, "kind": kind, "old": old, "new": new,
            "equivalent": equivalent}


def _copy_tree(root: Path, dest: Path) -> Path:
    shutil.copytree(root, dest, ignore=shutil.ignore_patterns(*IGNORED))
    return dest


def apply(tree: Path, mutant: dict) -> bool:
    """Replace the mutant's old text in its module of ``tree``; False, with the
    module untouched, unless the old text occurs there exactly once."""
    path = tree / "src" / "redconn" / mutant["module"]
    text = path.read_text(encoding="utf-8")
    if text.count(mutant["old"]) != 1:
        return False
    path.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")
    return True


def dump(tree: Path, out: Path, labels=()) -> dict:
    """label -> {"exit", "error", "verdicts", "bytes"} of the dumps of ``tree``'s
    src (the reports named in ``labels``, or all), one entry per report written."""
    try:
        subprocess.run([sys.executable, "-c", DUMP, str(ROOT / "tools"), str(tree / "src"),
                        str(out), *labels], capture_output=True, timeout=DUMP_TIMEOUT_S,
                       env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    except subprocess.TimeoutExpired:
        pass  # the reports written so far are compared; the missing ones kill
    reports = {}
    for path in sorted(out.glob("*.json")):
        raw = path.read_bytes()
        try:
            doc = json.loads(raw)
        except ValueError:
            doc = {"exit_code": None, "report": {"error": {"type": "unreadable report"}}}
        rep = doc["report"]
        reports[path.stem] = {"exit": doc["exit_code"],
                              "error": (rep.get("error") or {}).get("type"),
                              "verdicts": {c["name"]: c["passed"] for c in rep.get("checks", [])},
                              "bytes": raw}
    return reports


def compare(base: dict, mutated: dict) -> dict:
    """The flipped checks, the dumps whose exit code changed unexplained by them,
    and the number of dumps whose bytes moved, of ``mutated`` against ``base``."""
    flipped, exits, moved = set(), [], 0
    for label in sorted(set(base) | set(mutated)):
        b, m = base.get(label), mutated.get(label)
        if b is None or m is None:
            exits.append(label)
            continue
        moved += b["bytes"] != m["bytes"]
        changed = {name for name in {**b["verdicts"], **m["verdicts"]}
                   if b["verdicts"].get(name) != m["verdicts"].get(name)}
        flipped |= changed
        if b["exit"] != m["exit"] and not (changed and b["error"] == m["error"]):
            exits.append(label)
    return {"flipped": sorted(flipped), "exits": exits, "moved": moved}


def _first_failure(tree: Path, *deselect: str) -> str | None:
    """The first failing tier-1 test of ``tree`` without the ``deselect`` ones (or
    why the run failed), None if it passes."""
    args = [arg for test in deselect for arg in ("--deselect", test)]
    try:
        run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                              "--ignore", "tests/test_mutants.py", *args],
                             cwd=tree, capture_output=True, text=True, timeout=TIER1_TIMEOUT_S,
                             env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                                      PYTHONPATH=str(tree / "src")))
    except subprocess.TimeoutExpired:
        return "timeout"
    if run.returncode == 0:
        return None
    failed = [line for line in run.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return failed[0] if failed else f"exit {run.returncode}"


def tier1(tree: Path) -> tuple[str, str | None]:
    """(status, first failing test) of ``tree``'s tier-1: ``survived`` when it
    passes; ``pin-only`` when the first failure is the sha256 pin and the run
    without it passes; else ``tier-1`` with the first failure other than the pin."""
    failed = _first_failure(tree)
    if failed is None:
        return "survived", None
    if failed.split()[1:2] == [PIN]:
        failed = _first_failure(tree, PIN)
        if failed is None:
            return "pin-only", PIN
    return "tier-1", failed


def run(mutants, root: Path = ROOT, labels=(), with_tier1: bool = True, log=print) -> list:
    """Each mutant's record: its fields, whether it applied, its comparison
    against the unchanged tree's dumps (``compare``), and its status."""
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        base = dump(_copy_tree(root, tmp / "base"), tmp / "base-dumps", labels)
        for i, mutant in enumerate(mutants):
            tree = _copy_tree(root, tmp / f"m{i}")
            record = dict(mutant, applied=apply(tree, mutant), flipped=[], exits=[], moved=0,
                          tier1=None)
            if record["applied"]:
                record.update(compare(base, dump(tree, tmp / f"m{i}-dumps", labels)))
                if record["flipped"] or record["exits"]:
                    record["status"] = "dumps"
                elif with_tier1:
                    record["status"], record["tier1"] = tier1(tree)
                else:
                    record["status"] = "survived"
            else:
                record["status"] = "not applied"
            shutil.rmtree(tree)
            log(_line(record))
            results.append(record)
    return results


def sole_killers(results: list) -> dict:
    """check -> the mutants the dumps killed by that check's flip alone."""
    out: dict = {}
    for r in results:
        if r["status"] == "dumps" and not r["exits"] and len(r["flipped"]) == 1:
            out.setdefault(r["flipped"][0], []).append(r["name"])
    return out


def graded_catches(results: list) -> dict:
    """graded family -> {"any": the smallest ε at which the dumps or a tier-1 test
    other than the pin killed it, "dumps": the smallest at which the dumps did}
    (None where none did)."""
    out: dict = {}
    for r in results:
        family, eps = re.fullmatch(r"(.*?)(?:-(\de-\d+))?", r["name"]).groups()
        if r["kind"] == "graded" or family in out:
            seen = out.setdefault(family, {"any": None, "dumps": None})
            for key, killed in (("any", r["status"] in ("dumps", "tier-1")),
                                ("dumps", r["status"] == "dumps")):
                seen[key] = seen[key] or (float(eps) if killed else None)
    return out


def _line(r: dict) -> str:
    flipped = r["flipped"]
    what = ", ".join(flipped) if len(flipped) <= 6 else f"{len(flipped)} checks"
    what = what or "-"
    if r["exits"]:
        what += f"; exit code of {len(r['exits'])} dumps ({', '.join(r['exits'][:3])}" \
                f"{', …' if len(r['exits']) > 3 else ''})"
    if r["tier1"]:
        what += f"; {r['tier1']}"
    tag = " [equivalent]" if r["equivalent"] else ""
    return f"{r['name']:<44} {r['status']:<11} moved {r['moved']:>2}  {what}{tag}"


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(prog="mutants.py",
                                     description=__doc__.strip().splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT, help="the tree to mutate")
    parser.add_argument("--out", type=Path, help="write the records as JSON")
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    results = run(list(map(_name_fields, MUTANTS)), args.root.resolve(),
                  log=lambda line: print(line, flush=True))
    solo = sole_killers(results)
    graded = graded_catches(results)
    print("checks that alone killed a mutant:")
    for check, names in sorted(solo.items()):
        print(f"  {check}: {', '.join(names)}")
    for family, eps in graded.items():
        print(f"graded {family}: smallest ε caught {eps['any']}, by the dumps {eps['dumps']}")
    counts = {s: sum(r["status"] == s for r in results)
              for s in ("dumps", "tier-1", "pin-only", "survived", "not applied")}
    print(f"{len(results)} mutants: " + ", ".join(f"{n} {s}" for s, n in counts.items())
          + f" ({time.perf_counter() - t0:.0f} s)")
    if args.out:
        args.out.write_text(json.dumps({"root": str(args.root), "mutants": results,
                                        "sole_killers": solo, "graded": graded}, indent=1) + "\n")
    bad = [r["name"] for r in results if r["status"] == "not applied"
           or (r["status"] in ("survived", "pin-only") and not r["equivalent"]
               and r["kind"] != "graded")]
    if bad:
        print(f"not applied, pin-only or survived: {', '.join(bad)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
