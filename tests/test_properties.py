"""Property tests of the level-set lift array and its exact jet over random
chart points and stabilizer fibers: on the so(4) benchmark cases (regular and
non-abelian stabilizer), and, for the jet against a Richardson stencil, on
so(4) and so(5) regular at random scales of μ."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import redconn as rc
from redconn.pipeline import THRESHOLDS, CaseConfig
from tests.conftest import perfbench_cases, pushdown, richardson_stencil

SO4_CASES = perfbench_cases().SO4_CASES
REGULAR_CASES = [SO4_CASES[0], perfbench_cases().SO5_CASES[0]]


@pytest.fixture(scope="module", params=SO4_CASES, ids=[c[0] for c in SO4_CASES])
def so4_case(request):
    cases = perfbench_cases()
    _, n, weights, k, _ = request.param
    cfg = CaseConfig.from_dict({"group": cases.so_n_group(n), "mu": cases.so_n_mu(n, weights)})
    ctx = rc.build_context(cfg.algebra(), np.asarray(cfg.mu, dtype=float))
    assert ctx.stabilizer_dim == k
    return ctx, rc.default_chart(ctx)


unit = st.floats(-1.0, 1.0, allow_nan=False)


@settings(derandomize=True, max_examples=8, deadline=None)
@given(t_unit=st.lists(unit, min_size=6, max_size=6), y=st.lists(unit, min_size=4, max_size=4))
def test_lifts_and_tables_at_random_points_and_fibers(so4_case, t_unit, y):
    # t in ±0.4; the fiber h = exp(g_μ·y) is a random stabilizer element
    ctx, chart = so4_case
    a, km, k = ctx.algebra, chart.dim, ctx.stabilizer_dim
    t = 0.4 * np.asarray(t_unit[:km])
    fiber = rc.group_exp(a, ctx.split.g_mu @ np.asarray(y[:k]))
    geom = rc.SigmaGeometry(ctx, chart)

    K = geom.kernels([t, t], [geom.identity, fiber])
    lifts = K.lifts[1]
    assert lifts.shape == (km, 2 * a.dim)
    assert np.max(np.abs(ctx.alpha_mat @ lifts.T)) <= 1e-10  # horizontal
    D = chart.dnu(t)
    pushed = np.array([pushdown(geom, K.coad[1], row) for row in lifts]).T
    assert np.max(np.abs(pushed - D)) <= 1e-10 * np.max(np.abs(D))

    cov, moved = K.cov
    assert np.max(np.abs(moved - cov)) <= THRESHOLDS["fiber_independence"]
    assert np.max(np.abs(cov - cov.transpose(1, 0, 2))) <= THRESHOLDS["reduced_torsion"]


@pytest.fixture(scope="module", params=REGULAR_CASES, ids=[c[0] for c in REGULAR_CASES])
def regular_case(request):
    cases = perfbench_cases()
    _, n, weights, _, _ = request.param
    return cases.so_n_group(n), cases.so_n_mu(n, weights)


@settings(derandomize=True, max_examples=6, deadline=None)
@given(scale=st.floats(0.5, 2.0), t_unit=st.lists(unit, min_size=8, max_size=8),
       y=st.lists(unit, min_size=2, max_size=2))
def test_jet_matches_richardson_stencil(regular_case, scale, t_unit, y):
    # the exact derivatives of the lifts along each lift and each stabilizer
    # generator against a Richardson stencil at 1e-3 (error about 1e-11)
    group, mu = regular_case
    cfg = CaseConfig.from_dict({"group": group, "mu": [scale * m for m in mu]})
    ctx = rc.build_context(cfg.algebra(), np.asarray(cfg.mu, dtype=float))
    chart = rc.default_chart(ctx)
    a, km, k = ctx.algebra, chart.dim, ctx.stabilizer_dim
    t = 0.4 * np.asarray(t_unit[:km])
    geom = rc.SigmaGeometry(ctx, chart)
    for fiber in (geom.identity, rc.group_exp(a, ctx.split.g_mu @ np.asarray(y[:k]))):
        K = geom.kernels(t, fiber)
        us = np.vstack([K.lifts[0], np.pad(ctx.split.g_mu.T, ((0, 0), (0, a.dim)))])
        exact = geom.lift_derivatives(K, us)[0]
        assert exact.shape == (km + k, km, 2 * a.dim)
        for u, d in zip(us, exact):
            fd = richardson_stencil(geom, t, fiber, u, 1e-3, K.F,
                                    lambda ts, fibers: geom.kernels(ts, fibers).lifts)
            assert np.max(np.abs(fd - d)) <= 1e-9 * max(1.0, float(np.max(np.abs(d))))
