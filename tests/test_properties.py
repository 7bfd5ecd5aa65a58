"""Property tests of the level-set lift array over random chart points and
stabilizer fibers on the so(4) benchmark cases (regular and non-abelian
stabilizer)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import redconn as rc
from redconn.pipeline import THRESHOLDS, CaseConfig
from tests.conftest import perfbench_cases

SO4_CASES = perfbench_cases().SO4_CASES
FD_STEP = CaseConfig.fd_step


@pytest.fixture(scope="module", params=SO4_CASES, ids=[c[0] for c in SO4_CASES])
def so4_case(request):
    cases = perfbench_cases()
    _, n, weights, k, _ = request.param
    cfg = CaseConfig.from_dict({"group": cases.so_n_group(n), "mu": cases.so_n_mu(n, weights)})
    ctx = rc.build_context(cfg.algebra(), np.asarray(cfg.mu, dtype=float))
    assert ctx.stabilizer_dim == k
    return ctx, rc.default_chart(ctx, cfg.chart_radius)


unit = st.floats(-1.0, 1.0, allow_nan=False)


@settings(derandomize=True, max_examples=8, deadline=None)
@given(t_unit=st.lists(unit, min_size=6, max_size=6), y=st.lists(unit, min_size=4, max_size=4))
def test_lifts_and_tables_at_random_points_and_fibers(so4_case, t_unit, y):
    # t in ±0.4·radius; the fiber h = exp(g_μ·y) is a random stabilizer element
    ctx, chart = so4_case
    a, km, k = ctx.algebra, chart.dim, ctx.stabilizer_dim
    t = 0.4 * chart.radius * np.asarray(t_unit[:km])
    fiber = rc.group_exp(a, ctx.g_mu @ np.asarray(y[:k])).ad
    geom = rc.SigmaGeometry(ctx, chart)

    lifts = geom.lifts(t, fiber)
    assert lifts.shape == (km, 2 * a.dim)
    assert np.max(np.abs(ctx.alpha_mat @ lifts.T)) <= 1e-10  # horizontal
    D = chart.dnu(t)
    pushed = np.array([geom.pushdown(t, fiber, row) for row in lifts]).T
    assert np.max(np.abs(pushed - D)) <= 1e-10 * np.max(np.abs(D))

    _, cov = geom.cov_table(t, geom.identity, FD_STEP)
    _, moved = geom.cov_table(t, fiber, FD_STEP)
    assert np.max(np.abs(moved - cov)) <= THRESHOLDS["fiber_independence"]
    assert np.max(np.abs(cov - cov.transpose(1, 0, 2))) <= THRESHOLDS["reduced_torsion"]
