"""Negative controls: a perturbation of what a check reads must push the check
past its ``THRESHOLDS`` value, so that a check which passes says something.

Each control runs the check's own code, a ``pipeline._verify_*`` part (and for
``tperp_span`` the validate stage it reads, for the sweep's checks the chart
sweep, for the ``curvature_*`` keys the curvature stage), on the so3 run
record after the connect or the reduce stage with one input perturbed, and
reads that check's defect.  A kernel field is perturbed where the check reads it, by
wrapping the geometry's ``kernels``, and the formula route's arrays by wrapping
``curvature._formula``, and ``group_exp`` and ``coadjoint_matrix`` by
wrapping pipeline's names after the stages.  On so3 the orbit has dimension 2,
where the cyclic sum of an antisymmetric ∂Ω, or of an R antisymmetric in its
first two slots, vanishes exactly, so the closedness and Bianchi controls run
on so(4) regular (orbit dimension 4), and so do the two ``jet_fd`` controls,
one on each half of the jet (its chart rows and its fiber rows); the
``l_equivariance`` control runs on so(4) singular, whose stabilizer has k = 4,
and the ``isotropy`` control on so(4) regular (k = 2): with k = 1, SᵀΩS is a
1×1 antisymmetric matrix, 0 for any S.  A context field the geometry reads at
construction (ω(μ), Γ(μ)) is perturbed on a new geometry, and a stage's own
linear algebra by wrapping the function it calls while the stage runs again.
Every ``THRESHOLDS`` key has a control here.  So do the tests of the suite
that no verify part runs: the two averaging tests and the ∇°ω closed-form
identity of test_connections.py, whose controls perturb the averaging
construction's own inputs, δ and the node rule, and the closed form itself,
the checks true by construction that left the battery (the Jacobi
identity's load gate, the Coad group law, the baseline's torsion and the
symmetry of the symplectization's correction) and the checks another check
implies (the t_σ–δ pairing, the closedness of ω, α's identities, the torsion
of P∘∇ on the frame fields and the totally-geodesic defect's second route),
whose controls perturb what those tests read.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import redconn as rc
from redconn import curvature, liealg, linalg, pipeline, reduction
from redconn.connections import symplectized_coefficients
from redconn.liealg import LieAlgebra
from redconn.phasespace import right_generator
from redconn.pipeline import THRESHOLDS, CaseConfig
from tests.conftest import (A_SYMMETRY_BOUND, ALPHA_IDENTITIES_BOUND, AVERAGING_BOUND,
                            BASELINE_TORSION_BOUND, CLOSED_FORM_BOUND, COAD_GROUP_LAW_BOUND,
                            GEODESIC_ORACLE_BOUND, OMEGA_CLOSED_BOUND, SIGMA_TORSION_BOUND,
                            TSIGMA_DELTA_PAIRING_BOUND, a_symmetry_defect,
                            alpha_identities_defect, averaging_defects, averaging_delta,
                            averaging_rule, closed_form_draws, closed_form_gap,
                            coad_group_law_defect, cyclic_domega, perfbench_cases,
                            sigma_torsion_defect, symmetrized, tsigma_delta_pairing)
from tests.oracles import baseline_nabla_omega, totally_geodesic_defect

SO3 = CaseConfig.from_dict({"group": "so3", "mu": [0.0, 0.0, 1.0]})


def _stages(stop_after: str):
    """The so3 run record after the stage ``stop_after``, with the generic
    sample ``verify_suite`` draws after the stages."""
    run = pipeline._run_stages(SO3, stop_after, {}, {})
    run.generic = pipeline._generic_sample(run.a, run.rng)
    return run


@pytest.fixture()
def run():
    """The so3 run record after the connect stage, as ``verify_suite`` has it."""
    return _stages("connect")


@pytest.fixture()
def reduced():
    """The so3 run record after the reduce stage, as ``verify_suite`` has it."""
    return _stages("reduce")


def _delta(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((6, 6, 6))


def _check(part, run, name: str, cfg: CaseConfig = SO3) -> tuple:
    """The check ``name`` among those ``part`` yields: (name, value, key[, note])."""
    return next(check for check in part(cfg, run) if check[0] == name)


def _assert_fails(part, run, name: str, key: str, cfg: CaseConfig = SO3) -> None:
    """The check ``name`` among those ``part`` yields is held to ``key`` and
    exceeds its threshold."""
    check = _check(part, run, name, cfg)
    assert check[2] == key
    assert check[1] > THRESHOLDS[key]


def test_right_invariance_fails_on_a_non_invariant_connection(run):
    # the baseline plus a constant symmetric δ is torsion-free but not
    # right-invariant, and neither is its symplectization
    run.base = run.base + symmetrized(_delta(1))
    run.gammas = symplectized_coefficients(run.a, run.xi_samples, run.base)
    _assert_fails(pipeline._verify_connections, run, "conn/right-invariance", "right_invariance")


def test_baseline_closed_form_fails_without_its_double_bracket_term():
    # the closed form less its ½⟨ξ, [X, [Y, Y′]]⟩ term no longer matches the
    # runtime's ∇°ω on so3 at ten draws, by far more than roundoff
    a = rc.so3()
    draws = closed_form_draws(a, np.random.default_rng(0), 10)
    assert closed_form_gap(a, *draws) <= CLOSED_FORM_BOUND

    def dropped(a, xi, u, v, w):
        X, Y, Yp = (np.asarray(x)[..., :a.dim] for x in (u, v, w))
        return (baseline_nabla_omega(a, xi, u, v, w)
                - 0.5 * linalg.vecdot(xi, a.bracket(X, a.bracket(Y, Yp))))

    assert closed_form_gap(a, *draws, closed=dropped) >= 1e3 * CLOSED_FORM_BOUND


def test_a_symmetry_fails_on_an_antisymmetric_delta(run):
    # test_correction_is_symmetric on the so3 connect stage's stack
    assert a_symmetry_defect(run.a, run.gammas) <= A_SYMMETRY_BOUND
    delta = _delta(2)
    assert a_symmetry_defect(run.a, run.gammas + 0.5 * (delta - delta.transpose(1, 0, 2))) \
        > A_SYMMETRY_BOUND


def test_symplectize_idempotent_fails_on_the_baseline(run):
    # the baseline offered as the already symplectized Γ: projecting it moves it
    run.gammas = np.broadcast_to(run.base, run.gammas.shape)
    _assert_fails(pipeline._verify_connections, run, "conn/symplectize-idempotent",
                  "symplectize_idempotent")


def test_averaging_torsion_fails_on_an_unsymmetrized_delta():
    # test_averaged_baseline_is_torsion_free with δ's antisymmetric part kept
    a = rc.so3()
    assert averaging_defects(a, averaging_delta(a), averaging_rule(a))[0] > AVERAGING_BOUND


def test_averaging_fixed_fails_off_a_subgroup():
    # test_averaged_baseline_is_fixed_by_every_node on 1, g and g² of the
    # order-four rule: g·g² = g³ is missing, so no subgroup
    a = rc.so3()
    nodes = averaging_rule(a)[:-1]
    assert averaging_defects(a, symmetrized(averaging_delta(a)), nodes)[1] > AVERAGING_BOUND


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
    # ω((X, 0), (Y, η)) = -⟨η, X⟩ at Y in the stabilizer: a fiber part pairs with
    # TΣ (test_delta_omega_orthogonal_to_tsigma, on so3's context here)
    assert tsigma_delta_pairing(reduced.ctx) <= TSIGMA_DELTA_PAIRING_BOUND
    delta, n = reduced.ctx.split.delta, reduced.a.dim
    _with_delta(reduced, delta + np.vstack([np.zeros_like(delta[:n]), np.ones_like(delta[n:])]))
    assert tsigma_delta_pairing(reduced.ctx) > TSIGMA_DELTA_PAIRING_BOUND


def test_omega_closed_fails_off_jacobi():
    # [e1, e2] = e3 + e1 breaks Jacobi; the constructor, unlike the catalog and
    # JSON loaders, does not validate the structure constants
    # (test_closedness_cyclic_identity on five draws)
    c = rc.so3().c.copy()
    c[0, 1, 0], c[1, 0, 0] = 1.0, -1.0
    a = LieAlgebra(3, c, "so3")
    draws = closed_form_draws(a, np.random.default_rng(0), 5)
    assert np.max(np.abs(cyclic_domega(a, *draws))) > OMEGA_CLOSED_BOUND


@pytest.mark.parametrize("name,key", [("lie/coad-fixes-mu", "coad_fixes_mu"),
                                      ("lie/stabilizer-annihilation", "stabilizer_annihilation")],
                         ids=["coad_fixes_mu", "stabilizer_annihilation"])
def test_stabilizer_checks_fail_at_a_moved_mu(reduced, name, key):
    # μ + 1e-6·e₀ read against the stabilizer of μ: ⟨μ', [Y, e_j]⟩ and
    # Coad(exp sY)μ' − μ' are of order 1e-6 for Y in g_μ, not roundoff
    assert _check(pipeline._verify_algebra, reduced, name)[1] <= THRESHOLDS[key]
    reduced.mu = reduced.mu + 1e-6 * np.eye(reduced.a.dim)[0]
    _assert_fails(pipeline._verify_algebra, reduced, name, key)


def test_projector_spaces_fails_on_a_projector_off_tsigma(reduced):
    # P + E with E[n, 0] = 1e-6 maps (e₀, 0) ∈ TΣ = g ⊕ 0 to (e₀, 1e-6·e₀), off
    # TΣ, and has rank n + 1, so its kernel loses a dimension: both checks fail
    names = ("red/projector-range", "red/projector-kernel")
    for name in names:
        assert _check(pipeline._verify_reduction, reduced, name)[1] \
            <= THRESHOLDS["projector_spaces"]
    E = np.zeros_like(reduced.ctx.p_matrix)
    E[reduced.a.dim, 0] = 1e-6
    reduced.ctx = replace(reduced.ctx, p_matrix=reduced.ctx.p_matrix + E)
    for name in names:
        _assert_fails(pipeline._verify_reduction, reduced, name, "projector_spaces")


def test_alpha_identities_fails_on_a_rescaled_alpha(reduced):
    # α reads a stabilizer generator's radical component back as Y itself;
    # (1 + 1e-6)·α reads it as (1 + 1e-6)·Y (test_alpha_identities_within_their_bound)
    assert alpha_identities_defect(reduced.ctx) <= ALPHA_IDENTITIES_BOUND
    scaled = replace(reduced.ctx, alpha_mat=reduced.ctx.alpha_mat * (1.0 + 1e-6))
    assert alpha_identities_defect(scaled) > ALPHA_IDENTITIES_BOUND


@pytest.mark.parametrize("name,key", [("red/sigma-torsion", "sigma_torsion"),
                                      ("red/sigma-equivariance", "sigma_equivariance")],
                         ids=["sigma_torsion", "sigma_equivariance"])
def test_sigma_checks_fail_on_a_moved_gamma(reduced, name, key):
    # Γ(μ) + 1e-6·δ: torsion of P∘∇ on the frame fields moves with δ antisymmetric
    # in its two group slots, and equivariance under the stabilizer with a δ
    # symmetric in them (which adds no torsion) drawn with no symmetry of the
    # stabilizer's transport.  The torsion is a test of the suite
    # (test_sigma_torsion_is_p_of_the_level_torsion), equivariance a verify check
    n, delta = reduced.a.dim, np.zeros((6, 6, 6))
    noise = np.random.default_rng(13).standard_normal((6, 6, 6))
    if key == "sigma_torsion":
        delta[:n, :n] = noise[:n, :n] - noise[:n, :n].transpose(1, 0, 2)
        assert sigma_torsion_defect(reduced.ctx) <= SIGMA_TORSION_BOUND
        moved = replace(reduced.ctx, gamma_mu=reduced.ctx.gamma_mu + 1e-6 * delta)
        assert sigma_torsion_defect(moved) > SIGMA_TORSION_BOUND
        return
    assert _check(pipeline._verify_reduction, reduced, name)[1] <= THRESHOLDS[key]
    delta = noise + noise.transpose(1, 0, 2)
    reduced.ctx = replace(reduced.ctx, gamma_mu=reduced.ctx.gamma_mu + 1e-6 * delta)
    _assert_fails(pipeline._verify_reduction, reduced, name, key)


def test_geodesic_oracle_fails_on_a_moved_stage_value(reduced):
    # the least-squares route re-derives the totally-geodesic defect
    # (test_least_squares_route_matches); the runtime's value on a Γ(μ) moved
    # by 1e-6·δ disagrees with the oracle's on the unmoved one by order 1e-6
    ctx = reduced.ctx
    assert abs(totally_geodesic_defect(ctx) - rc.totally_geodesic_defect(ctx)) \
        <= GEODESIC_ORACLE_BOUND
    moved = replace(ctx, gamma_mu=ctx.gamma_mu + 1e-6 * _delta(3))
    assert abs(totally_geodesic_defect(ctx) - rc.totally_geodesic_defect(moved)) \
        > GEODESIC_ORACLE_BOUND


def test_complement_equivariance_fails_on_a_tilted_complement(reduced):
    # m + 1e-6 in its e₃ entry, the direction of g_μ at μ = e₃: the projection
    # onto g_μ along m stops commuting with ad(g_μ)
    key = "complement_equivariance"
    assert _check(pipeline._verify_algebra, reduced, "lie/complement-equivariance")[1] \
        <= THRESHOLDS[key]
    m = reduced.ctx.m.copy()
    m[2] += 1e-6
    reduced.ctx = replace(reduced.ctx, m=m)
    _assert_fails(pipeline._verify_algebra, reduced, "lie/complement-equivariance", key)


def test_ad_homomorphism_fails_on_a_scaled_group_exp(reduced):
    # (1 + 1e-6)·Ad maps [X, Y] to (1 + 1e-6)·Ad[X, Y] and the bracket of the
    # images to (1 + 1e-6)²·[AdX, AdY]; the check reads the run's generic sample
    key = "ad_homomorphism"
    assert _check(pipeline._verify_algebra, reduced, "lie/ad-homomorphism")[1] <= THRESHOLDS[key]
    reduced.generic = reduced.generic * (1.0 + 1e-6)
    _assert_fails(pipeline._verify_algebra, reduced, "lie/ad-homomorphism", key)


def test_coad_group_law_fails_on_a_scaled_coadjoint_matrix(reduced):
    # (1 + 1e-6)·Coad(g) · (1 + 1e-6)·Coad(g⁻¹) = (1 + 1e-6)²·I.  A scaled Ad
    # would not do: Coad(g)·Coad(g⁻¹) = I for any invertible Ad, and the test
    # reads 1.1e-16 on one (test_coad_group_law, on so3's generic sample here)
    assert coad_group_law_defect(reduced.generic) <= COAD_GROUP_LAW_BOUND
    scaled = coad_group_law_defect(reduced.generic,
                                   lambda Ad: rc.coadjoint_matrix(Ad) * (1.0 + 1e-6))
    assert scaled > COAD_GROUP_LAW_BOUND


def test_l_equivariance_fails_on_noise_in_the_isotropy_map():
    # L = δ·Λ·S̃⁺ must commute with the stabilizer's transport; noise on Λ breaks
    # that.  On so3 (k = 1) Λ is 1×1 and the transport fixes S̃, so noise there
    # leaves the check at 0.0: the control runs on so(4) singular (k = 4)
    cfg, run = _so4(1)
    key = "l_equivariance"
    assert run.ctx.stabilizer_dim == 4
    assert _check(pipeline._verify_reduction, run, "red/l-equivariance", cfg)[1] \
        <= THRESHOLDS[key]
    noise = np.random.default_rng(15).standard_normal(run.ctx.iso_map.shape)
    run.ctx = replace(run.ctx, iso_map=run.ctx.iso_map + 1e-6 * noise)
    _assert_fails(pipeline._verify_reduction, run, "red/l-equivariance", key, cfg)


def _so4(case: int = 0):
    """The so(4) regular (``case`` 0) or singular (1) case of ``perfbench/cases.py``
    at two samples, and its run record after the reduce stage."""
    cases = perfbench_cases()
    _, n, weights, _, _ = cases.SO4_CASES[case]
    cfg = CaseConfig.from_dict({"group": cases.so_n_group(n), "mu": cases.so_n_mu(n, weights),
                                "samples": 2})
    return cfg, pipeline._run_stages(cfg, "reduce", {}, {})


def _perturb(geom, change) -> None:
    """Give every later ``geom.kernels`` call the kernels ``change`` makes of its
    own: the checks read their kernels through ``kernels``."""
    kernels = geom.kernels
    geom.kernels = lambda ts, fibers: change(kernels(ts, fibers))


def _sweep_again(run) -> None:
    """The chart sweep at the run's chart points, on the run's stabilizer sample."""
    pts = np.asarray(run.stages["reduce"]["chart_points"])
    run.sweep, run.kernels = pipeline._chart_sweep(run.geom, pts, run.stabilizer)


def _tangent_noise(K, rng, scale: float) -> np.ndarray:
    """Seeded noise on ``cov``, different at every row and every orbit tangent
    (D times chart coordinates), so that the lift solves still accept it."""
    return scale * linalg.matvec(K.D[:, None, None],
                                 rng.standard_normal(K.cov.shape[:3] + K.D.shape[-1:]))


def test_reduced_form_closed_fails_on_a_jet_that_differentiates_no_field():
    # the sweep's ∂Ω reads the jet of the lifts; noise on its chart rows is the
    # derivative of no field, so the cyclic sum of ∂Ω stops vanishing
    cfg, run = _so4()
    geom, km = run.geom, run.geom.chart.dim
    assert km == 4 and run.sweep["closed"] <= THRESHOLDS["reduced_form_closed"]
    noise = np.random.default_rng(5).standard_normal((km, km, 2 * geom.n)) * 1e-3
    _perturb(geom, lambda K: replace(K, jet=np.concatenate([K.jet[:, :km] + noise,
                                                            K.jet[:, km:]], axis=1)))
    _sweep_again(run)
    _assert_fails(pipeline._verify_reduction, run, "red/reduced-form-closed",
                  "reduced_form_closed", cfg)


@pytest.mark.parametrize("rows", ["chart", "fiber"])
def test_jet_fd_fails_on_noise_in_either_half_of_the_jet(rows):
    # the check differences the lifts along each lift and each stabilizer
    # generator, at t = 0 on two fibers, from the sweep's kernels there: noise on
    # the jet's chart rows, or on its fiber rows alone, is the derivative of no field
    cfg, run = _so4()
    geom, km = run.geom, run.geom.chart.dim
    assert geom.ctx.stabilizer_dim == 2
    assert _check(pipeline._verify_reduction, run, "red/jet-fd", cfg)[1] <= THRESHOLDS["jet_fd"]
    rng = np.random.default_rng(6)

    def noisy(K):
        jet = K.jet.copy()
        half = jet[:, :km] if rows == "chart" else jet[:, km:]
        half += rng.standard_normal(half.shape) * 1e-3
        return replace(K, jet=jet)

    _perturb(geom, noisy)
    _sweep_again(run)
    _assert_fails(pipeline._verify_reduction, run, "red/jet-fd", "jet_fd", cfg)


def test_curvature_agreement_fails_on_noise_in_the_tensors_tables(reduced):
    # of the two routes only the tensor reads ``cov``, and it differences that
    # table between rows at step 1e-4, so noise that differs by row moves it alone
    rng = np.random.default_rng(7)
    _perturb(reduced.geom, lambda K: replace(K, cov=K.cov + _tangent_noise(K, rng, 1e-6)))
    reduced.stages["curvature"] = pipeline._stage_curvature(SO3, reduced)
    _assert_fails(pipeline._verify_curvature, reduced, "curv/formula-oracle",
                  "curvature_agreement")


def test_lift_projection_fails_on_noise_in_the_lifts(reduced):
    # the sweep compares the lifts with the solve of D's columns through the
    # lift matrices, which does not read the lifts
    rng = np.random.default_rng(8)
    _perturb(reduced.geom, lambda K: replace(
        K, lifts=K.lifts + 1e-3 * rng.standard_normal(K.lifts.shape)))
    _sweep_again(reduced)
    _assert_fails(pipeline._verify_reduction, reduced, "red/lift-projection", "lift_projection")


def test_fiber_independence_fails_on_noise_at_the_fiber_rows(reduced):
    # the sweep's rows after its chart points are pts[0] on five stabilizer
    # fibers, and only this check reads their tables
    points, rng = len(reduced.stages["reduce"]["chart_points"]), np.random.default_rng(9)

    def noisy(K):
        cov = K.cov.copy()
        cov[points:] += 1e-3 * rng.standard_normal(cov[points:].shape)
        return replace(K, cov=cov)

    _perturb(reduced.geom, noisy)
    _sweep_again(reduced)
    _assert_fails(pipeline._verify_reduction, reduced, "red/fiber-independence",
                  "fiber_independence")


def test_reduced_torsion_fails_on_antisymmetric_noise(reduced):
    # ∇ʳ(f_i) f_j − ∇ʳ(f_j) f_i moves by twice noise antisymmetric in (i, j)
    rng = np.random.default_rng(10)

    def noisy(K):
        noise = _tangent_noise(K, rng, 1e-3)
        return replace(K, cov=K.cov + noise - noise.swapaxes(1, 2))

    _perturb(reduced.geom, noisy)
    _sweep_again(reduced)
    _assert_fails(pipeline._verify_reduction, reduced, "red/reduced-torsion", "reduced_torsion")


def _curvature_again(cfg, run) -> None:
    """The curvature stage on the run record, at points drawn from its rng."""
    run.stages["curvature"] = pipeline._stage_curvature(cfg, run)


def _noisy_formula(monkeypatch, noise) -> None:
    """Add ``noise(shape)`` to every array [i, j, l] the formula route returns."""
    formula = curvature._formula
    monkeypatch.setattr(curvature, "_formula",
                        lambda *args: [r + noise(r.shape) for r in formula(*args)])


def test_curvature_antisymmetry_fails_on_symmetric_noise(reduced, monkeypatch):
    # the defect reads R[i, j, l] + R[j, i, l] of the formula's arrays, which
    # noise symmetric in (i, j) moves by twice itself
    _curvature_again(SO3, reduced)
    assert _check(pipeline._verify_curvature, reduced, "curv/antisymmetry")[1] \
        <= THRESHOLDS["curvature_antisymmetry"]
    rng = np.random.default_rng(11)

    def symmetric(shape):
        x = 1e-3 * rng.standard_normal(shape)
        return x + x.swapaxes(0, 1)

    _noisy_formula(monkeypatch, symmetric)
    _curvature_again(SO3, reduced)
    _assert_fails(pipeline._verify_curvature, reduced, "curv/antisymmetry",
                  "curvature_antisymmetry")


def test_curvature_bianchi_fails_on_antisymmetric_noise(monkeypatch):
    # noise antisymmetric in (i, j) keeps R antisymmetric, so only the cyclic
    # sum R[i, j, l] + R[j, l, i] + R[l, i, j] moves; on orbit dimension 2 that
    # sum of an antisymmetric array vanishes, so the control runs on so(4)
    cfg, run = _so4()
    _curvature_again(cfg, run)
    assert _check(pipeline._verify_curvature, run, "curv/bianchi", cfg)[1] \
        <= THRESHOLDS["curvature_bianchi"]
    rng = np.random.default_rng(12)

    def antisymmetric(shape):
        x = 1e-3 * rng.standard_normal(shape)
        return x - x.swapaxes(0, 1)

    _noisy_formula(monkeypatch, antisymmetric)
    _curvature_again(cfg, run)
    assert _check(pipeline._verify_curvature, run, "curv/antisymmetry", cfg)[1] \
        <= THRESHOLDS["curvature_antisymmetry"]
    _assert_fails(pipeline._verify_curvature, run, "curv/bianchi", "curvature_bianchi", cfg)


def _antisymmetric(shape, seed: int) -> np.ndarray:
    """δ − δ swapped in its first two indices, for seeded N(0, 1) noise δ."""
    delta = np.random.default_rng(seed).standard_normal(shape)
    return delta - delta.swapaxes(0, 1)


def test_jacobi_fails_on_antisymmetric_noise_in_the_brackets(reduced):
    # c + 1e-6·(δ − δ swapped) keeps the bracket antisymmetric, as an algebra
    # must be, but breaks the Jacobi identity past the load gate, which refuses
    # it; replace skips ``validate``
    assert reduced.a.jacobi_defect <= liealg.JACOBI_TOL
    broken = replace(reduced.a, c=reduced.a.c + 1e-6 * _antisymmetric((3, 3, 3), 16))
    assert broken.jacobi_defect > liealg.JACOBI_TOL
    with pytest.raises(ValueError, match="Jacobi defect"):
        broken.validate()


def test_baseline_torsion_fails_on_antisymmetric_noise(run):
    # Γ°(X, Y) − Γ°(Y, X) moves by twice the noise's part antisymmetric in (X, Y)
    assert rc.torsion_defect(run.a, run.base) <= BASELINE_TORSION_BOUND
    noisy = run.base + 1e-6 * _antisymmetric((6, 6, 6), 17)
    assert rc.torsion_defect(run.a, noisy) > BASELINE_TORSION_BOUND


def test_symplectized_torsion_fails_on_a_baseline_with_torsion(monkeypatch):
    # the symplectization adds a part symmetric in its first two slots, so a
    # baseline with torsion hands its torsion on to the connect stage's Γ(ξ)
    key = "symplectized_torsion"
    assert _check(pipeline._verify_connections, pipeline._run_stages(SO3, "connect", {}, {}),
                  "conn/torsion")[1] <= THRESHOLDS[key]
    baseline, delta = pipeline.baseline_coefficients, _antisymmetric((6, 6, 6), 17)
    monkeypatch.setattr(pipeline, "baseline_coefficients", lambda a: baseline(a) + 1e-6 * delta)
    rerun = pipeline._run_stages(SO3, "connect", {}, {})
    _assert_fails(pipeline._verify_connections, rerun, "conn/torsion", key)


def test_isotropy_fails_on_a_sheared_complement(monkeypatch):
    # S + 1e-6·(S rolled by one row) is no longer isotropic.  With k = 1, SᵀΩS
    # is a 1×1 antisymmetric matrix, 0 for any S, so the check cannot fail on
    # so3 or any catalog case: the control runs on so(4) regular (k = 2)
    key = "isotropy"
    cfg, run = _so4()
    assert run.ctx.stabilizer_dim == 2
    assert _check(pipeline._verify_reduction, run, "red/s-isotropic", cfg)[1] <= THRESHOLDS[key]
    correction = reduction.isotropic_correction_gram

    def sheared(om, s_tilde, delta):
        S, lam = correction(om, s_tilde, delta)
        return S + 1e-6 * np.roll(S, 1, axis=0), lam

    monkeypatch.setattr(reduction, "isotropic_correction_gram", sheared)
    _assert_fails(pipeline._verify_reduction, _so4()[1], "red/s-isotropic", key, cfg)


def test_projector_idempotent_fails_on_a_scaled_inverse(reduced, monkeypatch):
    # P = Q·diag(1, 0)·Q⁻¹ built with Q⁻¹ × (1 + 1e-6), the context's one
    # inverse: P² − P = 1e-6·P to first order
    key = "projector_idempotent"
    assert _check(pipeline._verify_reduction, reduced, "red/projector-idempotent")[1] \
        <= THRESHOLDS[key]
    build, inv = pipeline.build_context, np.linalg.inv

    def scaled(*args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "inv", lambda A: inv(A) * (1.0 + 1e-6))
            return build(*args, **kwargs)

    monkeypatch.setattr(pipeline, "build_context", scaled)
    rerun = pipeline._run_stages(SO3, "reduce", {}, {})
    _assert_fails(pipeline._verify_reduction, rerun, "red/projector-idempotent", key)


def test_kks_match_fails_on_a_scaled_omega(reduced):
    # ω(μ) × (1 + 1e-6) scales the reduced form on the lifts, and the KKS form
    # at Coad·μ does not read it; the sweep's other form checks scale on both sides
    key = "kks_match"
    assert _check(pipeline._verify_reduction, reduced, "red/kks-match")[1] <= THRESHOLDS[key]
    ctx = replace(reduced.ctx, omega_mu=reduced.ctx.omega_mu * (1.0 + 1e-6))
    reduced.geom = reduction.SigmaGeometry(ctx, reduced.geom.chart)
    _sweep_again(reduced)
    _assert_fails(pipeline._verify_reduction, reduced, "red/kks-match", key)


def test_reduced_oracle_fails_on_a_scaled_level_table(reduced):
    # the Gram oracle solves from ``level``, which ``cov`` was pushed down from
    # before the scale: the two differ by 1e-6·|cov|
    key = "reduced_oracle"
    assert _check(pipeline._verify_reduction, reduced, "red/reduced-oracle")[1] \
        <= THRESHOLDS[key]
    _perturb(reduced.geom, lambda K: replace(K, level=K.level * (1.0 + 1e-6)))
    _sweep_again(reduced)
    _assert_fails(pipeline._verify_reduction, reduced, "red/reduced-oracle", key)


def test_reduced_form_parallel_fails_on_a_scaled_cov_table(reduced):
    # ∂ₓΩ reads the jet, Ω(∇ʳ_x f_i, f_j) the scaled ``cov``.  A scale keeps
    # ``cov`` tangent; additive noise would make the sweep's lift raise NotTangent
    key = "reduced_form_parallel"
    assert _check(pipeline._verify_reduction, reduced, "red/reduced-form-parallel")[1] \
        <= THRESHOLDS[key]
    _perturb(reduced.geom, lambda K: replace(K, cov=K.cov * (1.0 + 1e-4)))
    _sweep_again(reduced)
    _assert_fails(pipeline._verify_reduction, reduced, "red/reduced-form-parallel", key)


def test_symplectized_nabla_omega_fails_on_the_baseline(run):
    # the bi-invariant baseline is torsion-free but does not preserve ω; its
    # symplectization does
    key = "symplectized_nabla_omega"
    assert _check(pipeline._verify_connections, run, "conn/nabla-omega")[1] <= THRESHOLDS[key]
    cfg = CaseConfig.from_dict({"group": "so3", "mu": [0.0, 0.0, 1.0], "connection": "baseline"})
    baseline = pipeline._run_stages(cfg, "connect", {}, {})
    _assert_fails(pipeline._verify_connections, baseline, "conn/nabla-omega", key, cfg)


def test_curvature_symplectic_fails_on_an_unprojected_connection(reduced):
    # the baseline plus a symmetrized δ (acceptance criterion 4's control) is
    # torsion-free but not symplectic, so its reduced curvature is not ω-valued
    key = "curvature_symplectic"
    _curvature_again(SO3, reduced)
    assert _check(pipeline._verify_curvature, reduced, "curv/symplectic-valued")[1] \
        <= THRESHOLDS[key]
    gamma = pipeline.baseline_coefficients(reduced.a) + symmetrized(0.5 * _delta(7))
    reduced.ctx = replace(reduced.ctx, gamma_mu=gamma)
    reduced.geom = reduction.SigmaGeometry(reduced.ctx, reduced.geom.chart)
    _curvature_again(SO3, reduced)
    _assert_fails(pipeline._verify_curvature, reduced, "curv/symplectic-valued", key)


def test_every_threshold_key_has_a_control():
    # a key no control here names is a check nothing shows can fail
    source = Path(__file__).read_text(encoding="utf-8")
    assert [key for key in THRESHOLDS if f'"{key}"' not in source] == []
