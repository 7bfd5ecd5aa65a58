"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here and matches the defaults the library
ships with.
"""

import time

import numpy as np
import pytest
import scipy.linalg

import redconn as rc
from redconn import linalg
from redconn.connections import baseline_nabla_omega
from redconn.curvature import convergence_factor
from redconn.errors import AssumptionTwoFailure, NonReductiveStabilizer
from redconn.pipeline import CaseConfig, run_pipeline
from redconn.reduction import SigmaGeometry, isotropic_correction_gram
from tests import oracles
from tests.conftest import run_battery, symmetrized

GROUPS = ["so3", "su2", "sl2r", "heis3", "se2"]
CATALOG = [("so3", [0.0, 0.0, 1.0]), ("su2", [0.0, 0.0, 1.0]),
           ("sl2r", [1.0, 0.0, 0.0]), ("heis3", [0.0, 0.0, 1.0]),
           ("se2", [0.0, 1.0, 0.0]), ("abelian(2)", [1.0, 0.5])]
MU_FOR = {"so3": [0, 0, 1], "su2": [0, 0, 1], "sl2r": [1, 0, 0],
          "heis3": [0, 0, 1], "se2": [0, 1, 0]}


def _verdict(num, name, ok, detail):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_symplectization():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst_torsion = 0.0
    worst_nabla = 0.0
    for name in GROUPS:
        a = rc.named_algebra(name)
        base = rc.baseline_coefficients(a)
        for _ in range(20):
            xi = rng.standard_normal(a.dim)
            gamma = rc.symplectized_coefficients(a, xi, base)
            worst_torsion = max(worst_torsion, rc.torsion_defect(a, gamma))
            worst_nabla = max(worst_nabla, rc.nabla_omega_defect(a, xi, gamma))
    worst_closed = 0.0
    for _ in range(100):
        a = rc.named_algebra(GROUPS[rng.integers(len(GROUPS))])
        xi = rng.standard_normal(a.dim)
        u, v, w = (rng.standard_normal(2 * a.dim) for _ in range(3))
        val = rc.nabla_omega(a, xi, rc.baseline_coefficients(a), u, v, w)
        worst_closed = max(worst_closed, abs(val - baseline_nabla_omega(a, xi, u, v, w)))
    elapsed = time.perf_counter() - start
    ok = worst_torsion <= 1e-10 and worst_nabla <= 1e-10 and worst_closed <= 1e-12 \
        and elapsed < 30.0
    _verdict(1, "symplectization correctness", ok,
             f"torsion {worst_torsion:.2e}, nabla-omega {worst_nabla:.2e}, "
             f"closed-form {worst_closed:.2e}, {elapsed:.2f}s")


def test_criterion_2_level_set_checks():
    rng = np.random.default_rng(2)
    worst_rank_ratio = np.inf
    worst_span = 0.0
    dims_ok = True
    for name, mu in CATALOG:
        a = rc.named_algebra(name)
        mu = np.asarray(mu, float)
        split = rc.constraint_split(a, mu)
        g_mu = rc.stabilizer_algebra(a, mu)
        dims_ok = dims_ok and split.delta.shape[1] == g_mu.shape[1]
        for g in rc.group_exp(a, rng.uniform(-1, 1, (5, a.dim))):
            s = np.linalg.svd(oracles.momentum_differential(a, g, mu), compute_uv=False)
            worst_rank_ratio = min(worst_rank_ratio, s[-1] / s[0])
        gens = rc.right_generator(a, mu, np.eye(a.dim)).T
        worst_span = max(worst_span, linalg.subspace_distance(split.t_perp, gens))
    ok = worst_rank_ratio > 1e-10 and worst_span <= 1e-10 and dims_ok
    _verdict(2, "momentum level-set checks", ok,
             f"min rank ratio {worst_rank_ratio:.2e}, span distance {worst_span:.2e}, "
             f"radical dims {'match' if dims_ok else 'MISMATCH'}")


def test_criterion_3_flagship_reduction():
    a = rc.so3()
    mu = np.array([0.0, 0.0, 1.0])
    ctx = rc.build_context(a, mu)
    chart = rc.default_chart(ctx)
    geom = SigmaGeometry(ctx, chart)
    h = 1e-5
    grid = [np.array([s, t]) for s in np.linspace(-0.5, 0.5, 5)
            for t in np.linspace(-0.5, 0.5, 5)]
    assert len(grid) == 25
    torsion = 0.0
    parallel = 0.0
    closed = 0.0
    kks_resid = 0.0
    signs = set()
    for t in grid:
        D = oracles.dnu(chart, t)
        nu = oracles.nu(chart, t)
        red = rc.reduced_form(geom, D[:, 0], D[:, 1], t)
        ref = oracles.kks_form(a, nu, D[:, 0], D[:, 1])
        signs.add(float(np.sign(red / ref)))
        kks_resid = max(kks_resid, abs(red - rc.KKS_MATCH_SIGN * ref) / abs(ref))
        # cov[i, j] = ∇ʳ(f_i) f_j over the chart coordinate fields at t
        cov = geom.kernels(t, geom.identity).cov[0]
        torsion = max(torsion, float(np.max(np.abs(cov[0, 1] - cov[1, 0]))))

        def omega_at(tt, i, j):
            DD = oracles.dnu(chart, tt)
            return rc.reduced_form(geom, DD[:, i], DD[:, j], tt)

        for x in range(2):
            e_x = np.eye(2)[x] * h
            for i in range(2):
                for j in range(2):
                    lead = (omega_at(t + e_x, i, j) - omega_at(t - e_x, i, j)) / (2 * h)
                    term1 = rc.reduced_form(geom, cov[x, i], D[:, j], t)
                    term2 = rc.reduced_form(geom, D[:, i], cov[x, j], t)
                    parallel = max(parallel, abs(lead - term1 - term2))
            # cyclic finite-difference exterior derivative on coordinate fields
            total = 0.0
            for (aa, bb, cc) in ((0, 1, x), (1, x, 0), (x, 0, 1)):
                e_a = np.eye(2)[aa] * h
                total += (omega_at(t + e_a, bb, cc) - omega_at(t - e_a, bb, cc)) / (2 * h)
            closed = max(closed, abs(total))
    rng = np.random.default_rng(3)
    fiber_diff = 0.0
    t0 = grid[7]
    base = geom.kernels(t0, geom.identity).cov[0, 0, 1]
    for _ in range(5):
        fib = rc.group_exp(a, ctx.split.g_mu @ rng.uniform(-1, 1, 1))
        moved = geom.kernels(t0, fib).cov[0, 0, 1]
        fiber_diff = max(fiber_diff, float(np.max(np.abs(base - moved))))
    ok = (torsion <= 1e-6 and parallel <= 1e-6 and closed <= 1e-6
          and kks_resid <= 1e-8 and signs == {rc.KKS_MATCH_SIGN}
          and fiber_diff <= 1e-8)
    _verdict(3, "flagship reduction validity", ok,
             f"torsion {torsion:.2e}, parallel {parallel:.2e}, closed {closed:.2e}, "
             f"kks {kks_resid:.2e} at sigma {rc.KKS_MATCH_SIGN:+.0f}, "
             f"fiber {fiber_diff:.2e}")


def test_criterion_4_curvature_cross_validation():
    rng = np.random.default_rng(4)
    agreement = 0.0
    factors = []
    symmetry = {"antisymmetry_defect": 0.0, "symplectic_defect": 0.0,
                "bianchi_defect": 0.0}
    for name in ("so3", "su2"):
        a = rc.named_algebra(name)
        mu = np.asarray(MU_FOR[name], float)
        ctx = rc.build_context(a, mu)
        chart = rc.default_chart(ctx)
        pts = [np.zeros(2), rng.uniform(-0.3, 0.3, 2)]
        geom = SigmaGeometry(ctx, chart)
        battery = run_battery(geom, pts)
        agreement = max(agreement, battery["max_discrepancy"])
        factors.append(convergence_factor(geom, np.array([0.15, -0.1]))["factor"])
        rep = battery["symmetry"]
        for key in symmetry:
            symmetry[key] = max(symmetry[key], rep[key])
    # negative control: a torsion-free connection left unprojected; the
    # default battery must flag the broken symplectic-valuedness
    a = rc.so3()
    mu = np.array([0.0, 0.0, 1.0])
    delta = np.random.default_rng(7).standard_normal((6, 6, 6)) * 0.5
    ctx_bad = rc.build_context(a, mu, gamma_mu=rc.baseline_coefficients(a) + symmetrized(delta))
    chart = rc.default_chart(ctx_bad)
    control = run_battery(SigmaGeometry(ctx_bad, chart),
                          [np.array([0.12, -0.07])])["symmetry"]["symplectic_defect"]
    ok = (agreement <= 1e-4 and all(3.0 <= f <= 5.0 for f in factors)
          and all(v <= 1e-4 for v in symmetry.values()) and control > 1e-2)
    _verdict(4, "curvature cross-validation", ok,
             f"agreement {agreement:.2e}, halving factors "
             + "/".join(f"{f:.2f}" for f in factors)
             + f", symmetry {max(symmetry.values()):.2e}, control {control:.2e}")


def test_criterion_5_error_paths():
    rep, code = run_pipeline(CaseConfig.from_dict({"group": "sl2r", "mu": [0, 1, 0]}))
    nilpotent_ok = code == 3 and rep["error"]["type"] == "NonReductiveStabilizer"
    with pytest.raises(NonReductiveStabilizer):
        rc.build_context(rc.sl2r(), np.array([0.0, 1.0, 0.0]))
    rep, code = run_pipeline(CaseConfig.from_dict({"group": "abelian(2)",
                                                   "mu": [1.0, 0.5]}))
    abelian_ok = code == 0 and rep["stages"]["reduce"]["zero_dimensional_base"]
    bad = np.zeros((6, 1))
    bad[3, 0] = 1.0  # lies inside the span it must complement
    with pytest.raises(AssumptionTwoFailure):
        rc.build_context(rc.so3(), np.array([0.0, 0.0, 1.0]), s_tilde=bad)
    ok = nilpotent_ok and abelian_ok
    _verdict(5, "error paths", ok,
             f"nilpotent exit 3 {'yes' if nilpotent_ok else 'NO'}, "
             f"zero-dimensional flag {'yes' if abelian_ok else 'NO'}, "
             "bad complement raises")


def test_criterion_6_isotropic_solver():
    rng = np.random.default_rng(6)
    p = 3
    om = np.zeros((2 * p, 2 * p))
    om[:p, p:] = np.eye(p)
    om[p:, :p] = -np.eye(p)
    worst_iso = 0.0
    worst_span = 0.0
    for _ in range(100):
        Ssym = rng.standard_normal((2 * p, 2 * p))
        M = scipy.linalg.expm(om @ (Ssym + Ssym.T) * 0.15)  # symplectic map
        delta = M @ np.vstack([np.eye(p), np.zeros((p, p))])
        B = rng.standard_normal((p, p))
        s_tilde = M @ np.vstack([B, np.eye(p)])
        S, _ = isotropic_correction_gram(om, s_tilde, delta)
        worst_iso = max(worst_iso, float(np.max(np.abs(S.T @ om @ S))))
        lhs = linalg.orthonormal_columns(np.hstack([S, delta]))
        rhs = linalg.orthonormal_columns(np.hstack([s_tilde, delta]))
        worst_span = max(worst_span, linalg.subspace_distance(lhs, rhs))
    worst_zero = 0.0
    for _ in range(20):
        B = rng.standard_normal((p, p))
        sym = np.vstack([B + B.T, np.eye(p)])
        delta = np.vstack([np.eye(p), np.zeros((p, p))])
        _, lam = isotropic_correction_gram(om, sym, delta)
        worst_zero = max(worst_zero, float(np.max(np.abs(lam))))
    ok = worst_iso <= 1e-10 and worst_span <= 1e-10 and worst_zero <= 1e-12
    _verdict(6, "isotropic correction solver", ok,
             f"isotropy {worst_iso:.2e}, span {worst_span:.2e}, "
             f"already-isotropic map {worst_zero:.2e}")


def test_criterion_7_averaging():
    rng = np.random.default_rng(7)
    a = rc.so3()
    delta = rng.standard_normal((6, 6, 6)) * 0.4
    nodes = oracles.finite_cyclic_rule(a, np.eye(3)[2], 4)
    # the mean of a ξ-independent Γ is ξ-independent: one array at every fiber point
    avg = oracles.average_coefficients(rc.baseline_coefficients(a) + symmetrized(delta), nodes)
    worst_torsion = rc.torsion_defect(a, avg)
    worst_fixed = max(float(np.max(np.abs(rc.pullback_coefficients(g, avg) - avg)))
                      for g in nodes)
    ok = worst_torsion <= 1e-10 and worst_fixed <= 1e-10
    _verdict(7, "finite-subgroup averaging", ok,
             f"torsion {worst_torsion:.2e}, node-fixed {worst_fixed:.2e}")
