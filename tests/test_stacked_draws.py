"""Stacked evaluations equal per-element calls, row by row; the validate stage
draws nothing, and the stacked draws of the connect stage leave the rng where
draw-at-a-time loops leave it.

Where a routine promises a row of a stack the bits of the call on that row
alone (each row its own Padé plan, matmul, LAPACK solve or SVD), the tests
require bit-identity.  The bracket and the pullback contract a stack through
``np.einsum``, whose reduction order over the summed axes may change with the
operand's shape, so their rows are held to 1e-15 relative instead.
"""

import dataclasses
from functools import cache
from types import SimpleNamespace

import numpy as np
import pytest

import redconn as rc
from redconn import connections, linalg, pipeline
from redconn.connections import nabla_omega_components, symplectized_coefficients
from redconn.pipeline import CaseConfig
from tests import oracles
from tests.conftest import (CATALOG_CASES, CLOSED_FORM_BOUND, closed_form_draws, closed_form_gap,
                            perfbench_cases)

SO_LABELS = ["so4-regular", "so4-singular", "so5-regular", "so5-singular"]
LABELS = [name for name, _ in CATALOG_CASES] + SO_LABELS


@cache
def _config(label: str) -> CaseConfig:
    """A catalog case at its representative μ, or a perfbench so(n) case (seed 1)."""
    if label in dict(CATALOG_CASES):
        return CaseConfig.from_dict({"group": label, "mu": dict(CATALOG_CASES)[label]})
    cases = perfbench_cases()
    return CaseConfig.from_dict(next(c["config"] for c in cases.so4_full_cases(1)
                                     + cases.so5_reduce_cases(1) if c["label"].startswith(label)))


@cache
def _case(label: str):
    """(algebra, μ) of ``_config(label)``."""
    a = _config(label).algebra()
    return a, _config(label).mu_vector(a)


def _bitwise_rows(stack, rows) -> None:
    assert len(stack) == len(rows)
    for got, want in zip(stack, rows):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _close_rows(stack, rows, rtol=1e-15) -> None:
    assert len(stack) == len(rows)
    for got, want in zip(stack, rows):
        assert np.max(np.abs(got - want)) <= rtol * max(1.0, float(np.max(np.abs(want))))


@pytest.fixture(params=LABELS)
def case(request):
    return _case(request.param)


def _fiber_points(a, mu, rng):
    return np.vstack([mu, rng.standard_normal((4, a.dim))])


def test_group_exp_stack_is_bitwise_per_row(case, rng):
    a, _ = case
    # norms from 1e-2 to 8 pick different Padé degrees and scalings per row
    X = rng.uniform(-1, 1, (7, a.dim)) * np.array([1e-2, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0])[:, None]
    _bitwise_rows(rc.group_exp(a, X), [rc.group_exp(a, x) for x in X])
    nested = rc.group_exp(a, X[:6].reshape(2, 3, a.dim))
    assert nested.shape == (2, 3, a.dim, a.dim)
    _bitwise_rows(nested.reshape(6, a.dim, a.dim), [rc.group_exp(a, x) for x in X[:6]])
    assert rc.group_exp(a, np.zeros((0, a.dim))).shape == (0, a.dim, a.dim)


def test_omega_gram_stack_is_bitwise_per_row(case, rng):
    a, mu = case
    xis = _fiber_points(a, mu, rng)
    _bitwise_rows(rc.omega_gram(a, xis), [rc.omega_gram(a, xi) for xi in xis])


def test_nabla_omega_components_stack_is_bitwise_per_row(case, rng):
    a, mu = case
    xis = _fiber_points(a, mu, rng)
    base = rc.baseline_coefficients(a)
    # a non-symmetric Γ, whose two contractions with Ω differ
    skew = base + rng.standard_normal((2 * a.dim,) * 3)
    for gamma in (base, skew):  # the same at every ξ: one array for all rows
        _bitwise_rows(nabla_omega_components(a, xis, gamma),
                      [nabla_omega_components(a, xi, gamma) for xi in xis])
    sympl = symplectized_coefficients(a, xis, base)
    _bitwise_rows(nabla_omega_components(a, xis, sympl),
                  [nabla_omega_components(a, xi, g) for xi, g in zip(xis, sympl)])


def test_symplectized_coefficients_stack_is_bitwise_per_row(case, rng):
    a, mu = case
    xis = _fiber_points(a, mu, rng)
    base = rc.baseline_coefficients(a)
    stack = symplectized_coefficients(a, xis, base)
    _bitwise_rows(stack, [symplectized_coefficients(a, xi, base) for xi in xis])
    # applied again to the symplectization's Γ(ξ), row by row too
    _bitwise_rows(symplectized_coefficients(a, xis, stack),
                  [symplectized_coefficients(a, xi, g) for xi, g in zip(xis, stack)])


def test_closed_form_routes_stack_is_bitwise_per_row(case, rng):
    # the closed-form identity over ten stacked draws: the runtime's ∇°ω, whose
    # component rows are each the call on its ξ alone, against the oracle's
    # closed form, whose rows are too
    a, _ = case
    xi, u, v, w = closed_form_draws(a, rng, 10)
    base = rc.baseline_coefficients(a)
    _bitwise_rows(nabla_omega_components(a, xi, base),
                  [nabla_omega_components(a, x, base) for x in xi])
    stack = oracles.baseline_nabla_omega(a, xi, u, v, w)
    assert stack.shape == (10,)
    _bitwise_rows(stack, [oracles.baseline_nabla_omega(a, *row) for row in zip(xi, u, v, w)])
    assert closed_form_gap(a, xi, u, v, w) <= CLOSED_FORM_BOUND


def test_bracket_stack_matches_rows_and_stays_antisymmetric(case, rng):
    a, _ = case
    X, Y = rng.standard_normal((2, 20, a.dim))
    stack = a.bracket(X, Y)
    _close_rows(stack, [a.bracket(x, y) for x, y in zip(X, Y)])
    assert np.all(stack == -a.bracket(Y, X))
    # broadcast: every row of X against every basis vector
    table = a.bracket(X[:3, None], np.eye(a.dim))
    assert table.shape == (3, a.dim, a.dim)
    _close_rows(table.reshape(-1, a.dim), [a.bracket(x, e) for x in X[:3] for e in np.eye(a.dim)])


def test_phase_space_maps_stack_is_bitwise_per_row(case, rng):
    # the right generators at μ, and the left momentum map Coad(g)ξ at a stack
    # of group elements and fiber points
    a, mu = case
    X = rng.standard_normal((5, a.dim))
    _bitwise_rows(rc.right_generator(a, mu, X), [rc.right_generator(a, mu, x) for x in X])
    Ad, xis = rc.group_exp(a, rng.uniform(-1, 1, (5, a.dim))), _fiber_points(a, mu, rng)
    _bitwise_rows(linalg.matvec(rc.coadjoint_matrix(Ad), xis),
                  [linalg.matvec(rc.coadjoint_matrix(g), xi) for g, xi in zip(Ad, xis)])


def test_pullback_stack_matches_rows(case, rng):
    a, mu = case
    xis = _fiber_points(a, mu, rng)
    g = rc.group_exp(a, rng.uniform(-0.5, 0.5, a.dim))
    # a Γ stack that differs from row to row: the symplectization's
    gammas = symplectized_coefficients(a, xis, rc.baseline_coefficients(a))
    _close_rows(rc.pullback_coefficients(g, gammas),
                [rc.pullback_coefficients(g, gamma) for gamma in gammas])


@pytest.mark.parametrize("label", [name for name, _ in CATALOG_CASES]
                         + ["so4-regular", "so4-singular"])
def test_geodesic_defect_stack_is_bitwise_per_pair(label, rng):
    # one contraction over every stabilizer-generator pair (k = 1 on the catalog,
    # 2 on so(4) regular, 4 on so(4) singular) against one pair at a time, at the
    # level's Γ(μ) and at twenty random ones, whose every pair pairs off nonzero
    a, mu = _case(label)
    ctx = rc.build_context(a, mu)
    gens, P = ctx.split.delta.T, ctx.p_matrix
    assert len(gens) == {"so4-regular": 2, "so4-singular": 4}.get(label, 1)
    for gamma in (ctx.gamma_mu, *rng.standard_normal((20,) + ctx.gamma_mu.shape)):
        pairs = [np.max(np.abs((P @ np.einsum("abc,a,b->c", gamma, u, v)) @ ctx.omega_mu @ P))
                 for u in gens for v in gens]
        defect = rc.totally_geodesic_defect(dataclasses.replace(ctx, gamma_mu=gamma))
        assert np.float64(defect).tobytes() == np.max(pairs).tobytes()


def _run(cfg: CaseConfig) -> SimpleNamespace:
    """The run record ``pipeline._run_stages`` starts from."""
    a = cfg.algebra()
    return SimpleNamespace(stages={}, rng=np.random.default_rng(cfg.seed), a=a,
                           mu=cfg.mu_vector(a), geom=None, sweep=None)


@pytest.mark.parametrize("label", ["so3", "se2"] + SO_LABELS)
def test_stacked_stage_draws_leave_the_rng_where_single_draws_do(label):
    a, mu = _case(label)
    cfg = _config(label)
    run, fresh, n = _run(cfg), np.random.default_rng(cfg.seed), a.dim
    pipeline._stage_validate(cfg, run)
    assert run.rng.bit_generator.state == fresh.bit_generator.state  # validate draws nothing
    pipeline._stage_connect(cfg, run)
    xis = [fresh.standard_normal(n) for _ in range(3)]
    assert run.rng.bit_generator.state == fresh.bit_generator.state
    _bitwise_rows(run.xi_samples, [mu] + xis)


@pytest.mark.parametrize("samples", [1, 2, 5])
def test_curvature_stage_draws_nothing_and_reads_the_sweeps_points(samples):
    # the reduce stage draws samples − 1 chart points after t = 0 in one call; the
    # curvature stage evaluates at the first max(1, samples // 2) of them
    cfg = CaseConfig.from_dict({"group": "so3", "mu": [0.0, 0.0, 1.0], "samples": samples})
    run = pipeline._run_stages(cfg, "reduce", {}, {})
    state = run.rng.bit_generator.state
    stage = pipeline._stage_curvature(cfg, run)
    assert run.rng.bit_generator.state == state
    pts = run.stages["reduce"]["chart_points"]
    assert len(pts) == samples and pts[0] == [0.0, 0.0]
    first = pts[: max(1, samples // 2)]
    assert stage["symmetry"]["points"] == len(first)
    assert list(dict.fromkeys(tuple(s["t"]) for s in stage["samples"])) == list(map(tuple, first))


@pytest.mark.parametrize("label", ["so3", "so5-regular"])
def test_connect_stage_builds_the_component_array_twice(label, monkeypatch):
    # the symplectization and the ∇ω defect, each at the four ξ samples
    shapes = []
    components = connections.nabla_omega_components
    monkeypatch.setattr(connections, "nabla_omega_components", lambda a, xi, gamma, om=None: (
        shapes.append(np.shape(xi)) or components(a, xi, gamma, om)))
    run = _run(_config(label))
    pipeline._stage_connect(_config(label), run)
    assert shapes == [(4, run.a.dim), (4, run.a.dim)]


@pytest.mark.parametrize("label", ["so3", "su2"])
def test_cyclic_rule_nodes_are_bitwise_one_at_a_time(label):
    a, _ = _case(label)
    X = np.eye(a.dim)[2]
    _bitwise_rows(oracles.finite_cyclic_rule(a, X, 6),
                  [rc.group_exp(a, (2.0 * np.pi * k / 6) * X) for k in range(6)])


def test_a_size_zero_draw_leaves_the_rng_where_it_was(aff1):
    # at k = 0 (aff1 at μ = (0, 1)) the reduce stage draws its stabilizer sample
    # as a (0, 0) array: nothing is drawn, so the draws after it read the stream
    # a k = 0 special case that drew nothing leaves, and the l-equivariance
    # check transports by no element
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    assert rng.uniform(-1, 1, (3, 0)).shape == (3, 0)
    assert rng.bit_generator.state == state
    ctx = rc.build_context(aff1, np.array([0.0, 1.0]))
    sample = pipeline._stabilizer_sample(ctx, rng)
    assert sample.shape == (0, 2, 2)
    assert rng.bit_generator.state == state
    assert pipeline._l_equivariance_defect(ctx, sample[:3]) == 0.0
    assert pipeline._geodesic_oracle_gap(ctx, rc.totally_geodesic_defect(ctx)) == 0.0
