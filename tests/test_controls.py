"""Negative controls: a perturbation of what a check reads must push the check
past its ``THRESHOLDS`` value, so that a check which passes says something.

Each control runs the check's own code, a ``pipeline._verify_*`` part (and for
``tperp_span`` the validate stage it reads, for ``reduced_form_closed`` the
chart sweep), on the so3 run record after the connect or the reduce stage with
one input perturbed, and reads that check's defect.  On so3 the orbit has
dimension 2, where the cyclic sum of an antisymmetric ∂Ω vanishes exactly, so
the closedness control runs on so(4) regular (orbit dimension 4).
"""

from dataclasses import replace

import numpy as np
import pytest

from redconn import pipeline
from redconn.connections import finite_cyclic_rule, symplectized_coefficients
from redconn.liealg import LieAlgebra
from redconn.phasespace import right_generator
from redconn.pipeline import THRESHOLDS, CaseConfig
from tests.conftest import perfbench_cases, symmetrized

SO3 = CaseConfig.from_dict({"group": "so3", "mu": [0.0, 0.0, 1.0]})


@pytest.fixture()
def run():
    """The so3 run record after the connect stage, as ``verify_suite`` has it."""
    return pipeline._run_stages(SO3, "connect", {}, {})


@pytest.fixture()
def reduced():
    """The so3 run record after the reduce stage, as ``verify_suite`` has it."""
    return pipeline._run_stages(SO3, "reduce", {}, {})


def _delta(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((6, 6, 6))


def _assert_fails(part, run, name: str, key: str, cfg: CaseConfig = SO3) -> None:
    """The check ``name`` among those ``part`` yields is held to ``key`` and
    exceeds its threshold."""
    check = next(check for check in part(cfg, run) if check[0] == name)
    assert check[2] == key
    assert check[1] > THRESHOLDS[key]


def test_right_invariance_fails_on_a_non_invariant_connection(run):
    # the baseline plus a constant symmetric δ is torsion-free but not
    # right-invariant, and neither is its symplectization
    run.base = run.base + symmetrized(_delta(1))
    run.gammas = symplectized_coefficients(run.a, run.xi_samples, run.base)
    _assert_fails(pipeline._verify_connections, run, "conn/right-invariance", "right_invariance")


def test_a_symmetry_fails_on_an_antisymmetric_delta(run):
    delta = _delta(2)
    run.gammas = run.gammas + 0.5 * (delta - delta.transpose(1, 0, 2))
    _assert_fails(pipeline._verify_connections, run, "conn/a-symmetry", "a_symmetry")


def test_symplectize_idempotent_fails_on_the_baseline(run):
    # the baseline offered as the already symplectized Γ: projecting it moves it
    run.gammas = np.broadcast_to(run.base, run.gammas.shape)
    _assert_fails(pipeline._verify_connections, run, "conn/symplectize-idempotent",
                  "symplectize_idempotent")


def test_averaging_torsion_fails_on_an_unsymmetrized_delta(run, monkeypatch):
    # the antisymmetric part of a δ, which the check's symmetrization drops, put back
    delta = _delta(3)
    average = pipeline.average_coefficients
    monkeypatch.setattr(pipeline, "average_coefficients", lambda gamma, nodes: average(
        gamma + 0.5 * (delta - delta.transpose(1, 0, 2)), nodes))
    _assert_fails(pipeline._verify_averaging, run, "avg/torsion-free", "averaging_torsion")


def test_averaging_fixed_fails_off_a_subgroup(run, monkeypatch):
    # 1, g and g² of the order-four rule: g·g² = g³ is missing, so no subgroup
    monkeypatch.setattr(pipeline, "finite_cyclic_rule",
                        lambda a, X, order: finite_cyclic_rule(a, X, order)[:-1])
    _assert_fails(pipeline._verify_averaging, run, "avg/node-fixed", "averaging_fixed")


def test_tperp_span_fails_on_generators_at_another_level(reduced, monkeypatch):
    # the right-action generators taken at 2μ span the ω-orthogonal of another level
    monkeypatch.setattr(pipeline, "right_generator",
                        lambda a, xi, X: right_generator(a, 2.0 * np.asarray(xi), X))
    reduced.stages["validate"] = pipeline._stage_validate(SO3, reduced)
    _assert_fails(pipeline._verify_phase, reduced, "phase/tperp-span", "tperp_span")


def _with_delta(run, delta) -> None:
    run.ctx = replace(run.ctx, split=replace(run.ctx.split, delta=delta))


def test_radical_span_fails_on_a_direction_of_m(reduced):
    # (X, 0) with X in the complement m: tangent to the level set, but not in its radical
    m = reduced.ctx.m[:, :1]
    _with_delta(reduced, np.vstack([m, np.zeros_like(m)]))
    _assert_fails(pipeline._verify_phase, reduced, "phase/radical-span", "radical_span")


def test_tsigma_delta_pairing_fails_on_a_fiber_part(reduced):
    # ω((X, 0), (Y, η)) = -⟨η, X⟩ at Y in the stabilizer: a fiber part pairs with TΣ
    delta, n = reduced.ctx.split.delta, reduced.a.dim
    _with_delta(reduced, delta + np.vstack([np.zeros_like(delta[:n]), np.ones_like(delta[n:])]))
    _assert_fails(pipeline._verify_phase, reduced, "phase/tsigma-delta-pairing",
                  "tsigma_delta_pairing")


def test_omega_closed_fails_off_jacobi(reduced):
    # [e1, e2] = e3 + e1 breaks Jacobi; the constructor, unlike the catalog and
    # JSON loaders, does not validate the structure constants
    c = reduced.a.c.copy()
    c[0, 1, 0], c[1, 0, 0] = 1.0, -1.0
    reduced.a = LieAlgebra(3, c, "so3")
    _assert_fails(pipeline._verify_phase, reduced, "phase/omega-closed", "omega_closed")


def test_reduced_form_closed_fails_on_a_jet_that_differentiates_no_field():
    # the sweep's ∂Ω reads the jet of the lifts; noise on its chart rows is the
    # derivative of no field, so the cyclic sum of ∂Ω stops vanishing
    cases = perfbench_cases()
    _, n, weights, _, _ = cases.SO4_CASES[0]
    cfg = CaseConfig.from_dict({"group": cases.so_n_group(n), "mu": cases.so_n_mu(n, weights),
                                "samples": 2})
    run = pipeline._run_stages(cfg, "reduce", {}, {})
    geom, km = run.geom, run.geom.chart.dim
    assert km == 4 and run.sweep["closed"] <= THRESHOLDS["reduced_form_closed"]
    kernels = geom.kernels  # the sweep reads its kernels through ``kernels``
    noise = np.random.default_rng(5).standard_normal((km, km, 2 * geom.n)) * 1e-3

    def perturbed(ts, fibers):
        K = kernels(ts, fibers)
        return replace(K, jet=np.concatenate([K.jet[:, :km] + noise, K.jet[:, km:]], axis=1))

    geom.kernels = perturbed
    pts = np.asarray(run.stages["reduce"]["chart_points"])
    run.sweep = pipeline._chart_sweep(geom, pts, np.random.default_rng(0))
    _assert_fails(pipeline._verify_reduction, run, "red/reduced-form-closed",
                  "reduced_form_closed", cfg)
