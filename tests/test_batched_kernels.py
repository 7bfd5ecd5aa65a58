"""Batched point kernels and level tables.  ``SigmaGeometry.points`` builds
every kernel of a batch in one stacked pass, ``SigmaGeometry.tables`` every
level table, and neither depends on the batch it was built in: each batch below
is compared with one-point builds bit for bit, field by field, on so(4) regular
and singular and so(5) regular.  A point past the chart radius where the frame
or the lift system loses rank is built with the others and raises only when it
is used.  A kernel's lifts are the horizontal projection of the section
velocity, which equals the quotient-map solve M⁺D to roundoff."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import redconn as rc
from redconn import linalg
from redconn.errors import RankLoss, SingularProjection
from redconn.pipeline import CaseConfig
from redconn.reduction import PointKernel
from tests.conftest import AFF1_DOC, CATALOG_CASES, perfbench_cases

CASES = perfbench_cases().SO4_CASES + perfbench_cases().SO5_CASES[:1]
unit = st.floats(-1.0, 1.0, allow_nan=False)


def _setup(case):
    cases = perfbench_cases()
    _, n, weights, _, _ = case
    cfg = CaseConfig.from_dict({"group": cases.so_n_group(n), "mu": cases.so_n_mu(n, weights)})
    ctx = rc.build_context(cfg.algebra(), np.asarray(cfg.mu, dtype=float))
    return ctx, rc.default_chart(ctx, cfg.chart_radius)


@pytest.fixture(scope="module", params=CASES, ids=[c[0] for c in CASES])
def case(request):
    return _setup(request.param)


def _fiber(ctx, y):
    return rc.group_exp(ctx.algebra, ctx.g_mu @ np.asarray(y, dtype=float))


def _assert_same(batched: PointKernel, single: PointKernel) -> None:
    for f in dataclasses.fields(PointKernel):
        a, b = getattr(batched, f.name), getattr(single, f.name)
        assert type(a) is type(b), f.name
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), f.name


def _assert_batch_is_single_builds(ctx, chart, ts, fibers) -> list:
    batch = rc.SigmaGeometry(ctx, chart).points(ts, fibers)
    for t, fiber, p in zip(ts, fibers, batch):
        _assert_same(p, rc.SigmaGeometry(ctx, chart).point(t, fiber))
    return batch


def _record_chart_exponentials(monkeypatch) -> list:
    """The block stacks ``OrbitChart.exp_data`` exponentiates from now on."""
    blocks = []
    expm = linalg.expm

    def recorded(A, batch_ndim=0):
        if batch_ndim == 1:
            blocks.append(np.array(A))
        return expm(A, batch_ndim=batch_ndim)

    monkeypatch.setattr(linalg, "expm", recorded)
    return blocks


def _stencil_sets(ctx, chart, rng) -> list:
    """(ts, fibers) of the formula's outer stencil points along every lift
    (central and Richardson), the stencil points along the stabilizer
    generators at a random fiber, and the tensor's t ± h·eₓ."""
    km, k, n = chart.dim, ctx.stabilizer_dim, ctx.algebra.dim
    geom = rc.SigmaGeometry(ctx, chart)
    t = rng.uniform(-0.3, 0.3, km)
    fiber = _fiber(ctx, rng.uniform(-1, 1, k))
    sets = [geom._stencil_points(t, geom.identity, geom.lifts(t, geom.identity), 1e-4),
            geom._stencil_points(t, geom.identity, geom.lifts(t, geom.identity), 1e-3, True),
            geom._stencil_points(t, fiber, np.pad(ctx.g_mu.T, ((0, 0), (0, n))), 1e-5)]
    for ts, fibers in sets:
        assert len(ts) == len(fibers) and len({f.tobytes() for f in fibers}) > 1
    tensor = [t + sign * 1e-4 * np.eye(km)[x] for x in range(km) for sign in (1.0, -1.0)]
    return sets + [(tensor, [geom.identity] * len(tensor))]


def test_stencil_batches_are_single_builds(case, rng):
    ctx, chart = case
    for ts, fibers in _stencil_sets(ctx, chart, rng):
        _assert_batch_is_single_builds(ctx, chart, ts, fibers)


def test_stencil_table_batches_are_single_builds(case, rng):
    # each table of a batch, level values and derivatives, is its one-point
    # build bit for bit: every product acts on one vector alone
    ctx, chart = case
    for ts, fibers in _stencil_sets(ctx, chart, rng):
        geom = rc.SigmaGeometry(ctx, chart)
        geom.tables(ts, fibers)
        assert len(geom._tables) == len({(np.asarray(t).tobytes(), f.tobytes())
                                         for t, f in zip(ts, fibers)})
        for t, fiber in zip(ts, fibers):
            batched = geom._level_table(t, fiber)
            single = rc.SigmaGeometry(ctx, chart)._level_table(t, fiber)
            for a, b in zip(batched, single):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_fibers_at_one_t_share_its_exponential(case, rng, monkeypatch):
    ctx, chart = case
    t = rng.uniform(-0.4, 0.4, chart.dim)
    fibers = [_fiber(ctx, rng.uniform(-1, 1, ctx.stabilizer_dim)) for _ in range(5)]
    blocks = _record_chart_exponentials(monkeypatch)
    _assert_batch_is_single_builds(ctx, chart, [t] * 5, fibers)
    assert blocks[0].shape[0] == 1  # one distinct t in the batch
    assert len(blocks) == 1 + 5  # the batch, then one per single build


def test_far_apart_points_keep_their_own_pade_plans(case, rng, monkeypatch):
    # a stack sharing one norm would give the small-t blocks the degree and
    # scaling of the largest; each point keeps the plan of its own call
    ctx, chart = case
    direction = rng.uniform(-1, 1, chart.dim)
    ts = [s * direction for s in (1e-4, 1e-2, 0.1, 0.5, 2.0, 5.0)]
    blocks = _record_chart_exponentials(monkeypatch)
    _assert_batch_is_single_builds(ctx, chart, ts, [np.eye(ctx.algebra.dim)] * len(ts))
    plans = [linalg._expm_plan(float(np.abs(b).sum(axis=-2).max())) for b in blocks[0]]
    assert len(set(plans)) >= 3
    assert plans[0] != linalg._expm_plan(float(np.abs(blocks[0]).sum(axis=-2).max()))


@settings(derandomize=True, max_examples=10, deadline=None)
@given(points=st.lists(st.tuples(st.floats(-3.0, 0.5), st.lists(unit, min_size=6, max_size=6)),
                       min_size=1, max_size=4),
       order=st.lists(st.integers(0, 3), min_size=1, max_size=8))
def test_random_stacks_are_single_builds(points, order):
    # random chart points (scales 1e-3 to 3) and fibers, in a random order
    # with repeats; a repeated (t, fiber) gives the same kernel object
    ctx, chart = _setup(CASES[0])
    km = chart.dim
    picks = [i % len(points) for i in order]
    ts = [10.0 ** points[i][0] * np.asarray(points[i][1][:km]) for i in picks]
    fibers = [_fiber(ctx, points[i][1][km:]) for i in picks]
    batch = _assert_batch_is_single_builds(ctx, chart, ts, fibers)
    for a, i in enumerate(picks):
        assert batch[a] is batch[picks.index(i)]


def test_repeated_and_cached_points_are_built_once(monkeypatch):
    ctx, chart = _setup(CASES[0])
    geom = rc.SigmaGeometry(ctx, chart)
    built = []
    build = rc.SigmaGeometry._build

    def counted(self, ts, fibers):
        built.append(len(ts))
        return build(self, ts, fibers)

    monkeypatch.setattr(rc.SigmaGeometry, "_build", counted)
    t1, t2, t3 = (np.full(chart.dim, s) for s in (0.1, -0.2, 0.3))
    fiber = _fiber(ctx, [0.5] * ctx.stabilizer_dim)
    first = geom.points([t1, t1, t2, t2], [geom.identity, geom.identity, geom.identity, fiber])
    assert built == [3]
    assert first[0] is first[1] and first[2] is not first[3]
    assert geom.point(t1.copy(), np.eye(geom.n)) is first[0]
    again = geom.points([t2, t3, t1], geom.identity)
    assert built == [3, 1]
    assert again[0] is first[2] and again[2] is first[0]
    assert len(geom._points) == 4


@pytest.mark.parametrize("case", [None] + [c for c in CASES if c[0] != "so4-singular"],
                         ids=["so3", "so4-regular", "so5-regular"])
def test_frame_rank_loss_raises_only_at_its_point(case):
    # at t = π·e₀ (2π·e₀ on so3), past the chart radius, φ₁(−ad A) and with it
    # the chart-fiber frame are singular; the batch is built whole, and only
    # that point raises, on every use
    if case is None:
        ctx = rc.build_context(rc.so3(), np.array([0.0, 0.0, 1.0]))
        chart, bad = rc.default_chart(ctx), np.array([2 * np.pi, 0.0])
    else:
        ctx, chart = _setup(case)
        bad = np.pi * np.eye(chart.dim)[0]
    good = [np.linspace(-0.2, 0.3, chart.dim), np.linspace(0.25, -0.1, chart.dim)]
    ts = [good[0], bad, good[1]]
    geom = rc.SigmaGeometry(ctx, chart)
    batch = _assert_batch_is_single_builds(ctx, chart, ts, [geom.identity] * 3)
    assert [p.frame_ok for p in batch] == [True, False, True]
    geom.points(ts, geom.identity)
    for _ in range(2):
        with pytest.raises(RankLoss):
            geom.lift_derivatives(bad, geom.identity, geom.lifts(bad, geom.identity))
    for t in good:
        assert np.all(np.isfinite(geom.lift_derivatives(t, geom.identity,
                                                        geom.lifts(t, geom.identity))))


def test_lift_rank_loss_raises_only_at_its_point():
    # on aff1, Coad(exp A) grows like e^{|t|}: at t = 30·e₀, far past the chart
    # radius, the lift matrix M loses rank while the frame keeps it
    ctx = rc.build_context(rc.algebra_from_json(AFF1_DOC), np.array([0.0, 1.0]))
    chart = rc.default_chart(ctx)
    bad = np.array([30.0, 0.0])
    good = [np.array([0.1, -0.2]), np.array([-0.3, 0.25])]
    ts = [good[0], bad, good[1]]
    geom = rc.SigmaGeometry(ctx, chart)
    batch = _assert_batch_is_single_builds(ctx, chart, ts, [geom.identity] * 3)
    assert [p.lift_ok for p in batch] == [True, False, True]
    assert all(p.frame_ok for p in batch)
    geom.points(ts, geom.identity)
    for _ in range(2):
        with pytest.raises(SingularProjection):
            geom.lifts(bad, geom.identity)
        with pytest.raises(SingularProjection):
            geom.lift(bad, geom.identity, chart.dnu(bad)[:, 0])
    for t in good:
        assert geom.lifts(t, geom.identity).shape == (2, 4)


@pytest.mark.parametrize("rank_loss", ["frame", "lift"])
def test_table_batch_raises_only_at_its_rank_loss_point(rank_loss):
    # so(4) regular at π·e₀ (the frame loses rank) and aff1 at 30·e₀ (the lift
    # matrix does): a table batch with that point is built without raising, the
    # other tables are their one-point builds, and only that point's table
    # raises, on every use
    if rank_loss == "frame":
        ctx, chart = _setup(CASES[0])
        bad, error = np.pi * np.eye(chart.dim)[0], RankLoss
    else:
        ctx = rc.build_context(rc.algebra_from_json(AFF1_DOC), np.array([0.0, 1.0]))
        chart = rc.default_chart(ctx)
        bad, error = np.array([30.0, 0.0]), SingularProjection
    ts = [np.linspace(-0.2, 0.3, chart.dim), bad, np.linspace(0.25, -0.1, chart.dim)]
    geom = rc.SigmaGeometry(ctx, chart)
    geom.tables(ts, geom.identity)
    assert [geom._tables[(t.tobytes(), geom.identity.tobytes())] is None for t in ts] == \
        [t is bad for t in ts]
    for t in ts:
        if t is bad:
            for _ in range(2):
                with pytest.raises(error):
                    geom._level_table(bad, geom.identity)
                with pytest.raises(error):
                    geom.cov_table(bad, geom.identity)
        else:
            single = rc.SigmaGeometry(ctx, chart)._level_table(t, geom.identity)
            for a, b in zip(geom._level_table(t, geom.identity), single):
                assert a.tobytes() == b.tobytes()


def _projection_cases() -> list:
    """(label, context, chart): so3, sl2r, se2, heis3, aff1 without a
    realization, so(4) regular and singular and so(5) regular and singular."""
    cases = perfbench_cases()
    out = []
    for name, mu in [c for c in CATALOG_CASES if c[0] != "su2"] + [
            (cases.AFF1_NO_REALIZATION, [0.0, 1.0])]:
        a = rc.algebra_from_json(name) if isinstance(name, dict) else rc.named_algebra(name)
        ctx = rc.build_context(a, np.asarray(mu))
        out.append((a.name, ctx, rc.default_chart(ctx)))
    for case in cases.SO4_CASES + cases.SO5_CASES:
        out.append((case[0], *_setup(case)))
    return out


PROJECTION_CASES = _projection_cases()


@pytest.mark.parametrize("label,ctx,chart", PROJECTION_CASES, ids=[c[0] for c in PROJECTION_CASES])
def test_lifts_are_the_horizontal_projection_of_the_section_velocity(label, ctx, chart, rng):
    # at (exp A · h, μ) the lift of f_i is H(Ad(h)⁻¹ · φ₁(−ad A) · m e_i, 0), with
    # H the horizontal part: the quotient-map solve M⁺D of the chart
    # differential's columns gives the same rows to roundoff
    n = ctx.algebra.dim
    for _ in range(3):
        t = rng.uniform(-0.3, 0.3, chart.dim)
        fiber = _fiber(ctx, rng.uniform(-1, 1, ctx.stabilizer_dim))
        velocity = np.linalg.inv(fiber) @ chart.section_vectors(t)
        projection = ctx.horizontal_part(np.hstack([velocity.T, np.zeros((chart.dim, n))]))
        geom = rc.SigmaGeometry(ctx, chart)
        solve = geom.lift(t, fiber, chart.dnu(t).T)
        gap = np.linalg.norm(projection - solve, axis=1)
        assert np.all(gap <= 1e-13 * np.maximum(1.0, np.linalg.norm(solve, axis=1))), label
        assert np.max(np.abs(geom.lifts(t, fiber) - projection)) <= 1e-14
