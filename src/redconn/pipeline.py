"""Configuration ingestion, pipeline orchestration, and the check battery.

The pipeline runs validate -> connect -> reduce -> curvature with fail-fast
semantics on hard errors; a report is always assembled, including on failure.
``verify_suite`` is those stages, run by the same code on the same rng, plus
verify-only checks drawing on that rng after them: every structural property
the library promises is a named check with its measured defect and threshold,
read from the stage results where a stage computes it (``MIRRORED``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field
from types import SimpleNamespace

import numpy as np

from . import linalg, report as report_mod
from .connections import (baseline_connection, baseline_nabla_omega, finite_cyclic_rule,
                          frame_transport, nabla_omega_components, nabla_omega_defect,
                          perturbed_connection, pullback_connection, average_connection,
                          symplectize, torsion_defect)
from .curvature import curvature_battery
from .errors import (AssumptionTwoFailure, ConfigError, NonReductiveStabilizer,
                     ReductionError)
from .liealg import LieAlgebra, algebra_from_json, coadjoint_matrix, group_exp, named_algebra
from .orbits import orbit_chart
from .phasespace import (PhasePoint, constraint_split, fundamental_field, regularity_report,
                         symplectic_form)
from .reduction import (KKS_MATCH_SIGN, SigmaGeometry, autoparallel_check, build_context,
                        gram_oracle_solve, kks_gap, kks_pairs, totally_geodesic_defect)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ASSUMPTION = 3
EXIT_NUMERICAL = 4

STAGES = ("validate", "connect", "reduce", "curvature")

_ASSUMPTION_ERRORS = (NonReductiveStabilizer, AssumptionTwoFailure)

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
    "baseline_closed_form": 1e-12,
    "symplectized_torsion": 1e-10,
    "symplectized_nabla_omega": 1e-10,
    "a_symmetry": 1e-10,
    "symplectize_idempotent": 1e-10,
    "right_invariance": 1e-9,
    "isotropy": 1e-10,
    "projector_idempotent": 1e-12,
    "projector_spaces": 1e-10,
    "alpha_identities": 1e-10,
    "delta_tsigma_pairing": 1e-12,
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
    "geodesic_oracle": 1e-10,
    "curvature_agreement": 1e-4,
    "curvature_antisymmetry": 1e-4,
    "curvature_symplectic": 1e-4,
    "curvature_bianchi": 1e-4,
    "averaging_torsion": 1e-10,
    "averaging_fixed": 1e-10,
}


def _is_number(value) -> bool:
    """A finite int or float: Python's json also reads NaN and ±Infinity."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, int) or math.isfinite(value)


def _is_number_rows(value) -> bool:
    return isinstance(value, list) and all(isinstance(row, list) and all(map(_is_number, row))
                                           for row in value)


@dataclass
class CaseConfig:
    """One reduction case: which group, which level, and solver settings."""

    group: object
    mu: list
    fd_step: float = 1e-5
    fd_step2: float = 1e-4
    chart_radius: float = 1.0
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
        for name in ("fd_step", "fd_step2", "chart_radius", "tol_scale"):
            if not (_is_number(getattr(cfg, name)) and getattr(cfg, name) > 0):
                raise ConfigError(f"{name} must be a positive finite number")
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
            "fd_step": self.fd_step, "fd_step2": self.fd_step2,
            "chart_radius": self.chart_radius, "samples": self.samples,
            "seed": self.seed,
            "s_tilde": self.s_tilde if isinstance(self.s_tilde, str)
            else np.asarray(self.s_tilde, dtype=float).tolist(),
            "tol": dict(self.tol), "tol_scale": self.tol_scale,
            "connection": self.connection,
        }


def _sample_points(cfg: CaseConfig, km: int, rng: np.random.Generator) -> np.ndarray:
    pts = rng.uniform(-0.4, 0.4, size=(cfg.samples, km)) * cfg.chart_radius
    pts[0] = 0.0
    return pts


def _error_record(exc: Exception, stage: str) -> dict:
    return {"type": type(exc).__name__, "message": str(exc), "stage": stage}


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, ConfigError):
        return EXIT_CONFIG
    if isinstance(exc, _ASSUMPTION_ERRORS):
        return EXIT_ASSUMPTION
    if isinstance(exc, (ReductionError, np.linalg.LinAlgError, ValueError)):
        return EXIT_NUMERICAL
    raise exc


def _stage_validate(cfg: CaseConfig, a: LieAlgebra, mu: np.ndarray,
                    rng: np.random.Generator) -> dict:
    a.validate()
    split = constraint_split(a, mu)
    n, k = a.dim, split.g_mu.shape[1]
    # TΣ^⊥ should be the span of the right-action generators at μ
    gens = np.column_stack([fundamental_field(a, "right", e, PhasePoint(None, mu)).as_vector()
                            for e in np.eye(n)])
    regularity = {}
    for side in ("right", "left"):
        points = [PhasePoint(group_exp(a, rng.uniform(-1, 1, n)), mu) for _ in range(5)]
        regularity[side] = regularity_report(a, mu, points, side=side)
    return {
        "status": "ok",
        "algebra": a.name,
        "dim": n,
        "stabilizer_dim": k,
        "split_dims": {name: int(getattr(split, name).shape[1])
                       for name in ("t_sigma", "t_perp", "delta", "sum")},
        "level_set_checks": {
            "momentum_rank_regular": all(r["regular"] for r in regularity.values()),
            "tperp_equals_generator_span": linalg.subspace_distance(split.t_perp, gens),
            "delta_dim_equals_stabilizer_dim": bool(split.delta.shape[1] == k),
        },
        "regularity": regularity,
    }


def _stage_connect(cfg: CaseConfig, a: LieAlgebra, mu: np.ndarray,
                   rng: np.random.Generator):
    """The baseline closed-form residual, then torsion and ∇ω of the configured
    connection over the ξ samples.  Returns (the stage report, the baseline, its
    symplectization, the configured connection, the ξ samples)."""
    base = baseline_connection(a)
    residual = 0.0
    for _ in range(10):
        xi = rng.standard_normal(a.dim)
        u, v, w = (rng.standard_normal(2 * a.dim) for _ in range(3))
        comps = nabla_omega_components(base, xi)
        val = float(np.einsum("abc,a,b,c->", comps, u, v, w))
        residual = max(residual, abs(val - baseline_nabla_omega(a, xi, u, v, w)))
    sympl = symplectize(base)
    conn = sympl if cfg.connection == "symplectic" else base
    xi_samples = [mu] + [rng.standard_normal(a.dim) for _ in range(3)]
    stage = {
        "status": "ok",
        "connection": cfg.connection,
        "baseline_closed_form_residual": residual,
        "torsion_defect": max(torsion_defect(conn, xi) for xi in xi_samples),
        "nabla_omega_defect": max(nabla_omega_defect(conn, xi) for xi in xi_samples),
    }
    return stage, base, sympl, conn, xi_samples


def _stage_reduce(cfg: CaseConfig, a: LieAlgebra, mu: np.ndarray, conn,
                  rng: np.random.Generator):
    """The reduce stage, the run's reduction context, and its geometry and
    chart sweep for the curvature stage and ``verify`` (both None without a
    chart: zero-dimensional base, or no realization by the policy below)."""
    ctx = build_context(a, mu, s_tilde=cfg.s_tilde, connection=conn)
    stage = {
        "status": "ok",
        "dims": ctx.diagnostics["dims"],
        "decomposition_cond": ctx.diagnostics["decomposition_cond"],
        "isotropy_defect": ctx.diagnostics["isotropy_defect"],
        "projector_defect": ctx.diagnostics["projector_defect"],
        "zero_dimensional_base": ctx.zero_dimensional_base,
        "totally_geodesic_defect": totally_geodesic_defect(ctx),
    }
    # The chart needs only Ad, but an algebra without a matrix realization still
    # stops here (``sigma: null``, curvature skipped): perfbench/run.py's
    # ``check_case`` pins that layout for its unrealized catalog case, so lifting
    # this gate is a change of the benchmark's expectations.
    if ctx.zero_dimensional_base or not a.has_realization:
        stage["sigma"] = None
        auto = autoparallel_check(ctx, rng=rng)
        stage["autoparallel"] = {"defect": auto.defect, "independence": auto.independence}
        return stage, ctx, None, None
    geom = SigmaGeometry(ctx, orbit_chart(a, mu, ctx.m, cfg.chart_radius))
    pts = _sample_points(cfg, geom.chart.dim, rng)
    sweep = _chart_sweep(geom, pts, rng)
    auto = autoparallel_check(ctx, geom=geom, rng=rng)
    stage.update({
        "sigma": sweep["sigma"],
        "kks_sign_constant": KKS_MATCH_SIGN,
        "kks_residual": sweep["kks"],
        "reduced_torsion_defect": sweep["torsion"],
        "reduced_form_parallel_defect": sweep["parallel"],
        "fiber_independence": sweep["fiber"],
        "autoparallel": {"defect": auto.defect, "independence": auto.independence},
        "chart_points": pts.tolist(),
    })
    return stage, ctx, geom, sweep


def _chart_sweep(geom: SigmaGeometry, pts, rng: np.random.Generator) -> dict:
    """Every reduced-connection defect, from arrays evaluated once per chart point.

    At each point t: the kernel's D = dnu(t), lifts L of D's columns and their
    jet J, the reduced form matrix Ω(t) = L·ω(μ)·Lᵀ and its exact derivatives
    ∂ₓΩ = J[x]·ω(μ)·Lᵀ minus its transpose, and the geometry's ``cov_table`` of
    reduced derivatives ∇ʳ(f_i) f_j of the coordinate fields with the
    level-set derivatives they are pushed down from.  Torsion, the Gram
    oracle, KKS match, parallelism (∂ₓΩ_ij = Ω(∇ʳ_x f_i, f_j) + Ω(f_i, ∇ʳ_x f_j))
    and closedness (the cyclic sum of ∂Ω, on the first two points) read these;
    fiber independence compares the table at pts[0] with the same table at
    five random stabilizer fibers drawn from rng.  The kernels at all these
    points are built in one batch.
    """
    ctx = geom.ctx
    km = geom.chart.dim
    e = geom.identity
    k = ctx.stabilizer_dim
    fibers = [group_exp(ctx.algebra, ctx.g_mu @ rng.uniform(-1.0, 1.0, k))
              for _ in range(5 if k else 0)]
    geom.points(np.vstack([pts] + [pts[0]] * len(fibers)), np.array([e] * len(pts) + fibers))
    out = {"sigma": None, "kks": 0.0, "torsion": 0.0, "oracle": 0.0, "parallel": 0.0,
           "closed": 0.0, "fiber": 0.0}
    for index, t in enumerate(pts):
        p = geom.point(t, e)
        lifts = geom.lifts(t, e)
        omega = geom.form_table(lifts, lifts)
        pairs = kks_pairs(ctx, p.D, p.coad @ ctx.mu, omega)
        if out["sigma"] is None:
            out["sigma"] = next((float(np.sign(red / ref)) for red, ref in pairs), None)
        level, cov = geom.cov_table(t, e)
        if index == 0:
            base_cov = cov
        jw = geom.form_table(p.jet[:km].reshape(km * km, -1), lifts).reshape(km, km, km)
        d_omega = jw - jw.transpose(0, 2, 1)
        # P[x, i, j] = Ω(∇ʳ_x f_i, f_j), so Ω(f_i, ∇ʳ_x f_j) = -P[x, j, i]
        cov_lifts = geom.lift(t, e, cov.reshape(km * km, -1))
        P = geom.form_table(cov_lifts, lifts).reshape(km, km, km)
        oracle = gram_oracle_solve(geom, p.D, lifts, level.reshape(km * km, -1)).reshape(cov.shape)
        out["kks"] = max(out["kks"], kks_gap(pairs))
        out["torsion"] = max(out["torsion"],
                             float(np.max(np.abs(cov - cov.transpose(1, 0, 2)))))
        out["oracle"] = max(out["oracle"], float(np.max(np.abs(cov - oracle))))
        out["parallel"] = max(out["parallel"],
                              float(np.max(np.abs(d_omega - P + P.transpose(0, 2, 1)))))
        if index < 2:
            cyclic = d_omega + d_omega.transpose(2, 0, 1) + d_omega.transpose(1, 2, 0)
            out["closed"] = max(out["closed"], float(np.max(np.abs(cyclic))))
    for fiber in fibers:
        _, cov = geom.cov_table(pts[0], fiber)
        out["fiber"] = max(out["fiber"], float(np.max(np.abs(base_cov - cov))))
    return out


def _stage_curvature(cfg: CaseConfig, reduced: dict, geom: SigmaGeometry | None,
                     rng: np.random.Generator) -> dict:
    if geom is None:  # the reduce stage built no chart
        return {"status": "skipped", "reason": "zero-dimensional base"
                if reduced["zero_dimensional_base"] else "no matrix realization"}
    pts = _sample_points(cfg, geom.chart.dim, rng)[: max(1, cfg.samples // 2)]
    return {
        "status": "ok",
        "fd_step2_note": "second-derivative step trades truncation against "
                         "cancellation; the convergence probe reports the balance",
        **curvature_battery(geom, pts, fd_step2=cfg.fd_step2),
    }


def _run_stages(cfg: CaseConfig, stop_after: str, stages: dict, timings: dict):
    """Run the stages through ``stop_after`` on the seed's rng, filling ``stages``
    and ``timings``.  Returns the run: the reports, the rng and what the stages
    built beside them (None where no stage built it)."""
    rng = np.random.default_rng(cfg.seed)
    a = cfg.algebra()
    run = SimpleNamespace(stages=stages, rng=rng, a=a, mu=cfg.mu_vector(a), geom=None)
    for stage in STAGES[: STAGES.index(stop_after) + 1]:
        ts = time.perf_counter()
        if stage == "validate":
            stages[stage] = _stage_validate(cfg, a, run.mu, rng)
        elif stage == "connect":
            stages[stage], run.base, run.sympl, run.conn, run.xi_samples = \
                _stage_connect(cfg, a, run.mu, rng)
        elif stage == "reduce":
            stages[stage], run.ctx, run.geom, run.sweep = \
                _stage_reduce(cfg, a, run.mu, run.conn, rng)
        else:
            stages[stage] = _stage_curvature(cfg, stages["reduce"], run.geom, rng)
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

BASELINE_NOTE = "fails by construction when connection='baseline'"

# Checks that mirror a value the stages computed: name -> (path to the value,
# THRESHOLDS key).  A path starts at a stage report or at "sweep", the reduce
# stage's chart sweep, whose oracle and closedness defects are not reported.
MIRRORED = {
    "phase/tperp-span": ("validate/level_set_checks/tperp_equals_generator_span", "tperp_span"),
    "conn/baseline-closed-form": ("connect/baseline_closed_form_residual", "baseline_closed_form"),
    "conn/torsion": ("connect/torsion_defect", "symplectized_torsion"),
    "conn/nabla-omega": ("connect/nabla_omega_defect", "symplectized_nabla_omega"),
    "red/s-isotropic": ("reduce/isotropy_defect", "isotropy"),
    "red/projector-idempotent": ("reduce/projector_defect", "projector_idempotent"),
    "red/reduced-torsion": ("sweep/torsion", "reduced_torsion"),
    "red/reduced-oracle": ("sweep/oracle", "reduced_oracle"),
    "red/kks-match": ("sweep/kks", "kks_match"),
    "red/reduced-form-parallel": ("sweep/parallel", "reduced_form_parallel"),
    "red/reduced-form-closed": ("sweep/closed", "reduced_form_closed"),
    "red/fiber-independence": ("sweep/fiber", "fiber_independence"),
    "red/autoparallel-independence": ("reduce/autoparallel/independence", "fiber_independence"),
    "curv/formula-oracle": ("curvature/max_discrepancy", "curvature_agreement"),
    "curv/antisymmetry": ("curvature/symmetry/antisymmetry_defect", "curvature_antisymmetry"),
    "curv/symplectic-valued": ("curvature/symmetry/symplectic_defect", "curvature_symplectic"),
    "curv/bianchi": ("curvature/symmetry/bianchi_defect", "curvature_bianchi"),
}


def _check(checks: list, name: str, value: float, threshold: float, note: str = "",
           passed: bool | None = None) -> None:
    ok = bool(value <= threshold) if passed is None else bool(passed)
    checks.append({"name": name, "value": float(value), "threshold": float(threshold),
                   "passed": ok, "note": note})


def _mirror(checks: list, cfg: CaseConfig, run, *names: str, note: str = "") -> None:
    """Append the named ``MIRRORED`` checks, each reading its stage value."""
    for name in names:
        path, key = MIRRORED[name]
        value = dict(run.stages, sweep=run.sweep)
        for part in path.split("/"):
            value = value[part]
        _check(checks, name, value, cfg.threshold(key), note)


def verify_suite(cfg: CaseConfig) -> tuple[dict, int]:
    """Run every structural property as a named check with measured defect.

    The four stages run first, as ``run_pipeline(cfg, "curvature")`` runs them
    on the same rng; the checks in ``MIRRORED`` read their values, and the
    verify-only checks draw their samples from the rng after the stages.
    """
    checks: list[dict] = []
    rep = {"schema_version": report_mod.SCHEMA_VERSION, "config": cfg.as_dict(),
           "checks": checks, "error": None}
    t0 = time.perf_counter()
    try:
        run = _run_stages(cfg, "curvature", {}, {})
        for part in (_verify_algebra, _verify_phase, _verify_connections, _verify_reduction,
                     _verify_curvature, _verify_averaging):
            part(cfg, run, checks)
    except Exception as exc:  # noqa: BLE001
        rep["error"] = _error_record(exc, "verify")
        rep["passed"] = False
        rep["timings"] = {"total": time.perf_counter() - t0}
        return rep, _exit_code(exc)
    rep["passed"] = all(c["passed"] for c in checks)
    rep["timings"] = {"total": time.perf_counter() - t0}
    return rep, EXIT_OK if rep["passed"] else EXIT_NUMERICAL


def _verify_algebra(cfg, run, checks) -> None:
    a, mu, rng = run.a, run.mu, run.rng
    n = a.dim
    c = a.c
    _check(checks, "lie/antisymmetry", float(np.max(np.abs(c + c.transpose(1, 0, 2)))), 0.0)
    t = np.einsum("ijl,lkm->ijkm", c, c)
    jac = t + t.transpose(1, 2, 0, 3) + t.transpose(2, 0, 1, 3)
    _check(checks, "lie/jacobi", float(np.max(np.abs(jac))), cfg.threshold("jacobi"))
    pair = 0.0
    for _ in range(10):
        X, Y = rng.standard_normal(n), rng.standard_normal(n)
        xi = rng.standard_normal(n)
        pair = max(pair, abs(float(xi @ a.bracket(X, Y)) + float(xi @ a.bracket(Y, X))))
    _check(checks, "lie/bracket-pairing-antisymmetry", pair, 0.0)
    g_mu, m = run.ctx.g_mu, run.ctx.m
    k = g_mu.shape[1]
    ann = 0.0
    for i in range(k):
        for j in range(n):
            ann = max(ann, abs(float(mu @ a.bracket(g_mu[:, i], np.eye(n)[j]))))
    _check(checks, "lie/stabilizer-annihilation", ann, cfg.threshold("stabilizer_annihilation"))
    if k and m.shape[1]:
        Q = np.hstack([g_mu, m])
        pi = Q @ np.diag([1.0] * k + [0.0] * m.shape[1]) @ np.linalg.inv(Q)
        comm = 0.0
        for i in range(k):
            adY = a.ad(g_mu[:, i])
            comm = max(comm, float(np.max(np.abs(pi @ adY - adY @ pi))))
        _check(checks, "lie/complement-equivariance", comm,
               cfg.threshold("complement_equivariance"))
    fix = 0.0
    for tval in np.linspace(-1, 1, 5):
        for i in range(k):
            g = group_exp(a, tval * g_mu[:, i])
            fix = max(fix, float(np.max(np.abs(coadjoint_matrix(g) @ mu - mu))))
    _check(checks, "lie/coad-fixes-mu", fix, cfg.threshold("coad_fixes_mu"))
    Ad = group_exp(a, rng.uniform(-1, 1, n))
    hom = 0.0
    for _ in range(5):
        X, Y = rng.standard_normal(n), rng.standard_normal(n)
        hom = max(hom, float(np.max(np.abs(Ad @ a.bracket(X, Y) - a.bracket(Ad @ X, Ad @ Y)))))
    _check(checks, "lie/ad-homomorphism", hom, cfg.threshold("ad_homomorphism"))
    law = float(np.max(np.abs(coadjoint_matrix(Ad) @ coadjoint_matrix(np.linalg.inv(Ad))
                              - np.eye(n))))
    _check(checks, "lie/coad-group-law", law, cfg.threshold("coad_group_law"))


def _verify_phase(cfg, run, checks) -> None:
    a, rng = run.a, run.rng
    n = a.dim
    split = run.ctx.split
    closed = 0.0
    for _ in range(5):
        xi = rng.standard_normal(n)
        vecs = [rng.standard_normal(2 * n) for _ in range(3)]
        closed = max(closed, abs(_cyclic_domega(a, xi, *vecs)))
    _check(checks, "phase/omega-closed", closed, cfg.threshold("omega_closed"))
    om = run.ctx.omega_mu
    pairing = float(np.max(np.abs(split.t_sigma.T @ om @ split.delta))) \
        if split.delta.shape[1] else 0.0
    _check(checks, "phase/tsigma-delta-pairing", pairing,
           cfg.threshold("tsigma_delta_pairing"))
    _mirror(checks, cfg, run, "phase/tperp-span")
    gram = split.sum.T @ om @ split.sum
    radical = split.sum @ linalg.nullspace(gram)
    _check(checks, "phase/radical-span", linalg.subspace_distance(radical, split.delta),
           cfg.threshold("radical_span"))
    k = split.g_mu.shape[1]
    _check(checks, "phase/split-dims", 0.0, 0.0,
           passed=(split.sum.shape[1] == 2 * n - k and split.delta.shape[1] == k))


def _cyclic_domega(a, xi, u, v, w) -> float:
    """Exterior derivative of ω on frame-constant extensions; zero when closed."""
    n = a.dim
    total = 0.0
    for x, y, z in ((u, v, w), (v, w, u), (w, u, v)):
        # moving along x changes the fiber point at rate eta_x; only the
        # bracket term of ω(y, z) depends on the fiber point
        total += -float(x[n:] @ a.bracket(y[:n], z[:n]))
        bx = np.concatenate([a.bracket(x[:n], y[:n]), np.zeros(n)])
        total -= symplectic_form(a, xi, bx, z)
    return total


def _verify_connections(cfg, run, checks) -> None:
    a, base, sympl, xi_samples = run.a, run.base, run.sympl, run.xi_samples
    _check(checks, "conn/baseline-torsion", torsion_defect(base, run.mu),
           cfg.threshold("baseline_torsion"))
    _mirror(checks, cfg, run, "conn/baseline-closed-form", "conn/torsion")
    _mirror(checks, cfg, run, "conn/nabla-omega", note=BASELINE_NOTE)
    twice = symplectize(sympl)
    asym = idem = 0.0
    for xi in xi_samples:
        A = sympl.coefficients(xi) - base.coefficients(xi)
        asym = max(asym, float(np.max(np.abs(A - A.transpose(1, 0, 2)))))
        idem = max(idem, float(np.max(np.abs(twice.coefficients(xi) - sympl.coefficients(xi)))))
    _check(checks, "conn/a-symmetry", asym, cfg.threshold("a_symmetry"))
    _check(checks, "conn/symplectize-idempotent", idem,
           cfg.threshold("symplectize_idempotent"))
    pulled = pullback_connection(sympl, group_exp(a, run.rng.uniform(-0.5, 0.5, a.dim)))
    inv = max(float(np.max(np.abs(pulled.coefficients(xi) - sympl.coefficients(xi))))
              for xi in xi_samples)
    _check(checks, "conn/right-invariance", inv, cfg.threshold("right_invariance"))


def _verify_reduction(cfg, run, checks) -> None:
    a, mu, ctx, rng = run.a, run.mu, run.ctx, run.rng
    reduced = run.stages["reduce"]
    k = ctx.stabilizer_dim
    om = ctx.omega_mu
    _mirror(checks, cfg, run, "red/s-isotropic", "red/projector-idempotent")
    t_sigma = ctx.split.t_sigma
    range_dist = linalg.subspace_distance(ctx.p_matrix @ t_sigma, t_sigma)
    kernel = linalg.nullspace(ctx.p_matrix)
    kernel_dist = linalg.subspace_distance(kernel, np.hstack([ctx.w2, ctx.S])) \
        if k or ctx.w2.shape[1] else 0.0
    _check(checks, "red/projector-range", range_dist, cfg.threshold("projector_spaces"))
    _check(checks, "red/projector-kernel", kernel_dist, cfg.threshold("projector_spaces"))
    alpha_defect = 0.0
    for i in range(k):
        gen = fundamental_field(a, "right", ctx.g_mu[:, i], PhasePoint(None, mu)).as_vector()
        coords = ctx.alpha(gen)
        alpha_defect = max(alpha_defect, float(np.max(np.abs(ctx.g_mu @ coords
                                                             - ctx.g_mu[:, i]))))
    if k and ctx.w1.shape[1]:
        alpha_defect = max(alpha_defect, float(np.max(np.abs(ctx.alpha_mat @ ctx.w1))))
    _check(checks, "red/alpha-identities", alpha_defect, cfg.threshold("alpha_identities"))
    pairing = float(np.max(np.abs(ctx.split.delta.T @ om @ ctx.split.t_sigma))) if k else 0.0
    _check(checks, "red/delta-tsigma-pairing", pairing,
           cfg.threshold("delta_tsigma_pairing"))
    if ctx.w1.shape[1]:
        s = np.linalg.svd(ctx.w1.T @ om @ ctx.w1, compute_uv=False)
        _check(checks, "red/w1-omega-nondegenerate", 0.0, 0.0,
               passed=bool(s[-1] > 1e-10 * s[0]), note=f"ratio {s[-1] / s[0]:.3e}")
    _check(checks, "red/l-equivariance", _l_equivariance_defect(ctx, rng),
           cfg.threshold("l_equivariance"))
    geod = reduced["totally_geodesic_defect"]
    _check(checks, "red/geodesic-oracle", _geodesic_oracle_gap(ctx, geod),
           cfg.threshold("geodesic_oracle"), note=f"defect {geod:.3e}")
    auto = reduced["autoparallel"]
    note = f"defect {auto['defect']:.3e}"
    if run.geom is not None:
        _check(checks, "red/sigma-equivariance", _sigma_equivariance_defect(ctx, rng),
               cfg.threshold("sigma_equivariance"))
        _check(checks, "red/sigma-torsion", _sigma_torsion_defect(ctx),
               cfg.threshold("sigma_torsion"))
        _mirror(checks, cfg, run, "red/reduced-torsion", "red/reduced-oracle", "red/kks-match",
                "red/reduced-form-parallel", "red/reduced-form-closed",
                "red/fiber-independence")
        t = np.asarray(reduced["chart_points"][0])
        _check(checks, "red/jet-fd", _jet_fd_defect(run.geom, t, cfg.fd_step),
               cfg.threshold("jet_fd"))
        if auto["independence"] is not None:
            _mirror(checks, cfg, run, "red/autoparallel-independence", note=note)
            return
    _check(checks, "red/autoparallel-report", 0.0, 0.0, passed=True, note=note)


def _verify_curvature(cfg, run, checks) -> None:
    if run.geom is None:  # the curvature stage was skipped
        return
    _mirror(checks, cfg, run, "curv/formula-oracle", "curv/antisymmetry")
    _mirror(checks, cfg, run, "curv/symplectic-valued", note=BASELINE_NOTE)
    _mirror(checks, cfg, run, "curv/bianchi")
    _check_convergence(checks, run.stages["curvature"]["convergence"])


def _check_convergence(checks: list, conv: dict) -> None:
    # flat cases sit on the roundoff floor where no truncation is measurable; the
    # factor carries roundoff of about ±0.01, so the note prints one decimal
    measurable = conv["oracle_error_coarse"] >= 1e-6
    _check(checks, "curv/convergence-factor", 0.0, 0.0,
           passed=bool(not measurable or 3.0 <= conv["factor"] <= 5.0),
           note=f"factor {conv['factor']:.1f}" if measurable else "flat, below floor")


def _l_equivariance_defect(ctx, rng) -> float:
    a = ctx.algebra
    k = ctx.stabilizer_dim
    if k == 0:
        return 0.0
    st, delta, lam = ctx.s_tilde, ctx.split.delta, ctx.iso_map
    L_full = delta @ lam @ np.linalg.pinv(st)
    defect = 0.0
    for _ in range(3):
        T = frame_transport(np.linalg.inv(group_exp(a, ctx.g_mu @ rng.uniform(-1, 1, k))))
        T_inv = np.linalg.inv(T)
        moved = T @ (L_full @ (T_inv @ st)) - L_full @ st
        defect = max(defect, float(np.max(np.abs(moved))))
    return defect


def _geodesic_oracle_gap(ctx, value: float) -> float:
    """Re-derive the totally-geodesic defect by a least-squares projection route."""
    n = ctx.algebra.dim
    k = ctx.stabilizer_dim
    if k == 0:
        return 0.0
    om = ctx.omega_mu
    basis = np.hstack([ctx.split.t_sigma, ctx.w2, ctx.S])

    def project(v):  # TΣ component of v along W2 ⊕ S
        return ctx.split.t_sigma @ linalg.solve_columns(basis, v)[:n]

    frame = [project(zc) for zc in np.eye(2 * n)]
    best = 0.0
    for i in range(k):
        ui = np.concatenate([ctx.g_mu[:, i], np.zeros(n)])
        for j in range(k):
            vj = np.concatenate([ctx.g_mu[:, j], np.zeros(n)])
            proj = project(np.einsum("abc,a,b->c", ctx.gamma_mu, ui, vj))
            for pz in frame:
                best = max(best, abs(float(proj @ om @ pz)))
    return abs(best - value)


def _sigma_equivariance_defect(ctx, rng) -> float:
    """Transport constant level-set fields by stabilizer elements and compare."""
    a = ctx.algebra
    n = a.dim
    k = ctx.stabilizer_dim
    if k == 0:
        return 0.0
    gamma = ctx.gamma_mu
    P = ctx.p_matrix
    defect = 0.0
    for _ in range(3):
        T = frame_transport(np.linalg.inv(group_exp(a, ctx.g_mu @ rng.uniform(-1, 1, k))))
        for _ in range(3):
            u = np.concatenate([rng.standard_normal(n), np.zeros(n)])
            v = np.concatenate([rng.standard_normal(n), np.zeros(n)])
            lhs = T @ (P @ np.einsum("abc,a,b->c", gamma, u, v))
            rhs = P @ np.einsum("abc,a,b->c", gamma, T @ u, T @ v)
            defect = max(defect, float(np.max(np.abs(lhs - rhs))))
    return defect


def _jet_fd_defect(geom: SigmaGeometry, t, step: float) -> float:
    """Largest gap, relative to max(1, |exact|), between the exact derivatives
    of ``lifts`` and their central differences at ``step`` along each lift and
    stabilizer generator at t, on the fibers 1 and exp(g_μ·(½, …, ½))."""
    ctx = geom.ctx
    k = ctx.stabilizer_dim
    fibers = [geom.identity] + ([group_exp(ctx.algebra, ctx.g_mu @ np.full(k, 0.5))] if k else [])
    gap = 0.0
    for fiber in fibers:
        us = np.vstack([geom.lifts(t, fiber), np.pad(ctx.g_mu.T, ((0, 0), (0, geom.n)))])
        for exact, fd in zip(geom.lift_derivatives(t, fiber, us),
                             geom._stencil(t, fiber, us, step, geom.lifts)):
            gap = max(gap, float(np.max(np.abs(exact - fd)) / max(1.0, np.max(np.abs(exact)))))
    return gap


def _sigma_torsion_defect(ctx) -> float:
    """Torsion of P∘∇ on the frame-constant level-set fields (e_i, 0)."""
    a, gamma, P = ctx.algebra, ctx.gamma_mu, ctx.p_matrix
    n = a.dim
    defect = 0.0
    for i in range(n):
        for j in range(n):
            cov = P @ gamma[i, j] - P @ gamma[j, i]
            br = np.concatenate([a.bracket(np.eye(n)[i], np.eye(n)[j]), np.zeros(n)])
            defect = max(defect, float(np.max(np.abs(cov - br))))
    return defect


def _verify_averaging(cfg, run, checks) -> None:
    a, rng = run.a, run.rng
    if a.name not in ("so3", "su2"):
        return
    delta = rng.standard_normal((2 * a.dim,) * 3) * 0.1
    pert = perturbed_connection(run.base, delta, symmetric=True)
    rule = finite_cyclic_rule(a, np.eye(a.dim)[2], 4)
    avg = average_connection(pert, rule)
    xi_samples = [rng.standard_normal(a.dim) for _ in range(3)]
    _check(checks, "avg/torsion-free",
           max(torsion_defect(avg, xi) for xi in xi_samples),
           cfg.threshold("averaging_torsion"))
    pulled = [pullback_connection(avg, g) for g in rule.nodes]
    fixed = max(float(np.max(np.abs(p.coefficients(xi) - avg.coefficients(xi))))
                for p in pulled for xi in xi_samples)
    _check(checks, "avg/node-fixed", fixed, cfg.threshold("averaging_fixed"))
