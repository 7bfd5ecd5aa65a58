"""Batched point kernels.  ``SigmaGeometry.kernels`` builds every kernel of a
batch, its level table included, in one stacked pass, every row it is given,
and no kernel depends on the batch it was built in: each row of a batch below
is compared with its one-point build bit for bit, field by field, on so(4)
regular and singular and so(5) regular.  A batch that holds a point past the
chart radius where the frame or the lift system loses rank raises that check's
error when it is built.  A kernel's lifts are the horizontal projection of the
section velocity, which equals the quotient-map solve M⁺D to roundoff."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import redconn as rc
from redconn import linalg, reduction
from redconn.errors import RankLoss, SingularProjection
from redconn.pipeline import CaseConfig
from redconn.reduction import PointKernel
from tests import oracles
from tests.conftest import AFF1_DOC, CATALOG_CASES, count_builds, perfbench_cases

CASES = perfbench_cases().SO4_CASES + perfbench_cases().SO5_CASES[:1]
unit = st.floats(-1.0, 1.0, allow_nan=False)


def _setup(case):
    cases = perfbench_cases()
    _, n, weights, _, _ = case
    cfg = CaseConfig.from_dict({"group": cases.so_n_group(n), "mu": cases.so_n_mu(n, weights)})
    ctx = rc.build_context(cfg.algebra(), np.asarray(cfg.mu, dtype=float))
    return ctx, rc.default_chart(ctx)


@pytest.fixture(scope="module", params=CASES, ids=[c[0] for c in CASES])
def case(request):
    return _setup(request.param)


def _fiber(ctx, y):
    return rc.group_exp(ctx.algebra, ctx.split.g_mu @ np.asarray(y, dtype=float))


def _assert_same(batched: PointKernel, single: PointKernel) -> None:
    for f in dataclasses.fields(PointKernel):
        a, b = getattr(batched, f.name), getattr(single, f.name)
        assert type(a) is type(b), f.name
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), f.name


def _assert_batch_is_single_builds(ctx, chart, ts, fibers) -> PointKernel:
    batch = rc.SigmaGeometry(ctx, chart).kernels(ts, fibers)
    for row, (t, fiber) in enumerate(zip(ts, fibers)):
        _assert_same(batch[row], rc.SigmaGeometry(ctx, chart).kernels(t, fiber)[0])
    return batch


def _record_chart_exponentials(monkeypatch) -> list:
    """The stacks of matrices B whose exponentials ``OrbitChart.exp_data`` takes
    with their Fréchet derivatives, from now on."""
    blocks = []
    expm = linalg.expm

    def recorded(A, directions=None):
        if directions is not None:
            blocks.append(np.array(A))
        return expm(A, directions=directions)

    monkeypatch.setattr(linalg, "expm", recorded)
    return blocks


def _stencil_sets(ctx, chart, rng) -> list:
    """(ts, fibers) of the formula's outer stencil points along every lift (at
    one step, and at the probe's two steps in one batch), the stencil points
    along the stabilizer generators at a random fiber, and the tensor's
    t ± h·eₓ."""
    km, k, n = chart.dim, ctx.stabilizer_dim, ctx.algebra.dim
    geom = rc.SigmaGeometry(ctx, chart)
    t = rng.uniform(-0.3, 0.3, km)
    fiber = _fiber(ctx, rng.uniform(-1, 1, k))
    K, K_fiber = geom.kernels(t, geom.identity), geom.kernels(t, fiber)
    probe = [geom._stencil_points(t, geom.identity, K.lifts[0], h, K.F) for h in (4e-3, 2e-3)]
    sets = [geom._stencil_points(t, geom.identity, K.lifts[0], 1e-4, K.F),
            tuple(np.concatenate(parts) for parts in zip(*probe)),
            geom._stencil_points(t, fiber, np.pad(ctx.split.g_mu.T, ((0, 0), (0, n))), 1e-5,
                                 K_fiber.F)]
    for ts, fibers in sets:
        assert len(ts) == len(fibers) and len({f.tobytes() for f in fibers}) > 1
    tensor = [t + sign * 1e-4 * np.eye(km)[x] for x in range(km) for sign in (1.0, -1.0)]
    return sets + [(tensor, [geom.identity] * len(tensor))]


def test_stencil_batches_are_single_builds(case, rng):
    ctx, chart = case
    for ts, fibers in _stencil_sets(ctx, chart, rng):
        _assert_batch_is_single_builds(ctx, chart, ts, fibers)


def _table(geom, K: PointKernel) -> tuple:
    """The tables of the kernels K and the derivatives of their lifts along each
    other, which the tables are built from (``lift_derivatives``)."""
    return K.level, K.cov, geom.lift_derivatives(K, K.lifts)


def test_stencil_table_batches_are_single_builds(case, rng, monkeypatch):
    # each table of a batch, level values, pushdowns and derivatives, is its
    # one-point build bit for bit: every product acts on one vector alone
    ctx, chart = case
    built = count_builds(monkeypatch)
    for ts, fibers in _stencil_sets(ctx, chart, rng):
        built.clear()
        geom = rc.SigmaGeometry(ctx, chart)
        batch = geom.kernels(ts, fibers)
        assert built == [len(ts)]
        for row, (t, fiber) in enumerate(zip(ts, fibers)):
            single = _table(geom, rc.SigmaGeometry(ctx, chart).kernels(t, fiber))
            for a, b in zip(_table(geom, batch[row:row + 1]), single):
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
    # scaling of the largest; each point keeps the plan of its own call.  B's
    # identity block makes ‖B‖₁ ≥ 1, so every |t| up to about 0.5 takes degree 9
    ctx, chart = case
    direction = rng.uniform(-1, 1, chart.dim)
    ts = [s * direction for s in (1e-4, 1e-2, 0.1, 0.5, 2.0, 5.0, 10.0)]
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
    # with repeats; a repeated (t, fiber) gives its first row's kernel bit for bit
    ctx, chart = _setup(CASES[0])
    km = chart.dim
    picks = [i % len(points) for i in order]
    ts = [10.0 ** points[i][0] * np.asarray(points[i][1][:km]) for i in picks]
    fibers = [_fiber(ctx, points[i][1][km:]) for i in picks]
    batch = _assert_batch_is_single_builds(ctx, chart, ts, fibers)
    for a, i in enumerate(picks):
        _assert_same(batch[a], batch[picks.index(i)])


def test_repeated_rows_are_each_built_bit_for_bit(monkeypatch):
    # kernels builds every row it is given: rows with equal (t, fiber) bytes
    # are built twice in one call and come back equal bit for bit; −0.0 and
    # +0.0 are built apart too, each its own one-row build; a second call keeps
    # nothing of the first
    ctx, chart = _setup(CASES[0])
    geom = rc.SigmaGeometry(ctx, chart)
    built, lift_rows, checked = count_builds(monkeypatch), rc.SigmaGeometry._lift_rows, []

    def spied(self, coad_t, vecs, D, fibers):
        checked.append(len(fibers))
        return lift_rows(self, coad_t, vecs, D, fibers)

    monkeypatch.setattr(rc.SigmaGeometry, "_lift_rows", spied)
    t1, t2, t3 = (np.full(chart.dim, s) for s in (0.1, -0.2, 0.3))
    plus, minus = (sign * 0.0 * np.eye(chart.dim)[0] for sign in (1.0, -1.0))
    fiber = _fiber(ctx, [0.5] * ctx.stabilizer_dim)
    ts = [t1, t1.copy(), t2, t2, plus, minus]
    first = geom.kernels(ts, [geom.identity, np.eye(geom.n), geom.identity, fiber,
                              geom.identity, geom.identity])
    assert built == checked == [6] and len(first.lifts) == 6
    _assert_same(first[0], first[1])
    assert first.lifts[2].tobytes() != first.lifts[3].tobytes()
    for row, t in enumerate(ts):
        fiber_row = fiber if row == 3 else geom.identity
        _assert_same(first[row], rc.SigmaGeometry(ctx, chart).kernels(t, fiber_row)[0])
    built.clear()
    checked.clear()
    again = geom.kernels([t2, t3, t1], geom.identity)
    assert built == checked == [3]
    _assert_same(again[0], first[2])
    _assert_same(again[2], first[0])


@pytest.mark.parametrize("case", [None] + [c for c in CASES if c[0] != "so4-singular"],
                         ids=["so3", "so4-regular", "so5-regular"])
def test_frame_rank_loss_raises_only_at_its_point(case):
    # at t = π·e₀ (2π·e₀ on so3), past the chart radius, φ₁(−ad A) and with it
    # the chart-fiber frame are singular while the lift system is not (its
    # error would come first): a batch that holds the point raises RankLoss on
    # every build, from kernels and from the lift block alone, and so does the
    # reduced form there; the other points build, each its row of their batch
    if case is None:
        ctx = rc.build_context(rc.so3(), np.array([0.0, 0.0, 1.0]))
        chart, bad = rc.default_chart(ctx), np.array([2 * np.pi, 0.0])
    else:
        ctx, chart = _setup(case)
        bad = np.pi * np.eye(chart.dim)[0]
    good = [np.linspace(-0.2, 0.3, chart.dim), np.linspace(0.25, -0.1, chart.dim)]
    ts = np.array([good[0], bad, good[1]])
    geom, D = rc.SigmaGeometry(ctx, chart), oracles.dnu(chart, bad)
    for _ in range(2):
        with pytest.raises(RankLoss):
            geom.kernels(ts, geom.identity)
        with pytest.raises(RankLoss):
            geom.lift_frames(ts, geom.identity)
        with pytest.raises(RankLoss):
            rc.reduced_form(geom, D[:, 0], D[:, 1], bad)
    _assert_batch_is_single_builds(ctx, chart, good, [geom.identity] * 2)


def test_lift_rank_loss_raises_only_at_its_point():
    # on aff1, Coad(exp A) grows like e^{|t|}: at t = 30·e₀, far past the chart
    # radius, the lift matrix M loses rank while the frame (the section
    # velocities: g_μ = 0) keeps it; a batch that holds the point raises
    # SingularProjection on every build, from kernels and from the lift block
    # alone, and so does the reduced form there; the other points build, each
    # its row of their batch
    ctx = rc.build_context(rc.algebra_from_json(AFF1_DOC), np.array([0.0, 1.0]))
    chart = rc.default_chart(ctx)
    bad = np.array([30.0, 0.0])
    good = [np.array([0.1, -0.2]), np.array([-0.3, 0.25])]
    ts = np.array([good[0], bad, good[1]])
    geom, D = rc.SigmaGeometry(ctx, chart), oracles.dnu(chart, bad)
    assert linalg.rank(chart.lift_data(bad)[1][0]) == chart.dim
    for _ in range(2):
        with pytest.raises(SingularProjection):
            geom.kernels(ts, geom.identity)
        with pytest.raises(SingularProjection):
            geom.lift_frames(ts, geom.identity)
        with pytest.raises(SingularProjection):
            rc.reduced_form(geom, D[:, 0], D[:, 1], bad)
    batch = _assert_batch_is_single_builds(ctx, chart, good, [geom.identity] * 2)
    assert batch.lifts.shape == (2, 2, 4)


@pytest.mark.parametrize("rank_loss", ["frame", "lift"])
def test_table_batch_raises_only_at_its_rank_loss_point(rank_loss, monkeypatch):
    # so(4) regular at π·e₀ (the frame loses rank) and aff1 at 30·e₀ (the lift
    # matrix does): a batch with that point raises on every build before any
    # table is built, and the tables of a batch of the other points are their
    # one-point builds
    if rank_loss == "frame":
        ctx, chart = _setup(CASES[0])
        bad, error = np.pi * np.eye(chart.dim)[0], RankLoss
    else:
        ctx = rc.build_context(rc.algebra_from_json(AFF1_DOC), np.array([0.0, 1.0]))
        chart = rc.default_chart(ctx)
        bad, error = np.array([30.0, 0.0]), SingularProjection
    good = [np.linspace(-0.2, 0.3, chart.dim), np.linspace(0.25, -0.1, chart.dim)]
    geom = rc.SigmaGeometry(ctx, chart)
    jets = []
    along = reduction._along

    def counted(jet, params):
        jets.append(len(jet))
        return along(jet, params)

    monkeypatch.setattr(reduction, "_along", counted)
    for _ in range(2):
        with pytest.raises(error):
            geom.kernels([good[0], bad, good[1]], geom.identity)
    assert jets == []
    batch = geom.kernels(good, geom.identity)
    for row, t in enumerate(good):
        single = _table(geom, rc.SigmaGeometry(ctx, chart).kernels(t, geom.identity))
        for a, b in zip(_table(geom, batch[row:row + 1]), single):
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
        velocity = np.linalg.inv(fiber) @ chart.lift_data(t)[1][0]
        projection = ctx.horizontal_part(np.hstack([velocity.T, np.zeros((chart.dim, n))]))
        geom = rc.SigmaGeometry(ctx, chart)
        K = geom.kernels(t, fiber)
        solve = geom.lift(K, oracles.dnu(chart, t).T)
        gap = np.linalg.norm(projection - solve, axis=1)
        assert np.all(gap <= 1e-13 * np.maximum(1.0, np.linalg.norm(solve, axis=1))), label
        assert np.max(np.abs(K.lifts[0] - projection)) <= 1e-14
