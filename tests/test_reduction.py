import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import redconn as rc
from redconn import liealg, linalg, orbits, reduction
from redconn.errors import (AssumptionTwoFailure, DegeneratePairing,
                            NonReductiveStabilizer, NotTangent, PointOffConstraint,
                            RankLoss, SingularProjection, ZeroDimensionalBase)
from redconn.reduction import SigmaGeometry, gram_oracle_solve, isotropic_correction_gram
from tests import oracles
from redconn.connections import frame_structure, torsion_components
from tests.conftest import (AFF1_DOC, ALPHA_IDENTITIES_BOUND, CATALOG_CASES, GEODESIC_ORACLE_BOUND,
                            ORACLE_CASES, SIGMA_TORSION_BOUND, alpha_identities_defect,
                            count_builds, oracle_case, pushdown, richardson_stencil, run_battery,
                            sigma_torsion_defect, stencil)
from tests.test_liealg import _so4

e1, e2, e3 = np.eye(3)


def _vec(X, eta):
    return np.concatenate([np.asarray(X, float), np.asarray(eta, float)])


def _induced_derivative(ctx, chart, u, field, t, step=1e-5):
    """P∘∇ along the level-set vector u at the section point t of the field
    (ts, fibers) -> frame components at each point: the ambient derivative
    projected onto TΣ."""
    geom = SigmaGeometry(ctx, chart)
    t = np.asarray(t, dtype=float)
    d = stencil(geom, t, geom.identity, u, step, geom.kernels(t, geom.identity).F, field)
    return geom._induced(u, field(t[None], geom.identity[None])[0], d)


def _constant(v):
    """The field with the frame components v at every point."""
    return lambda ts, fibers: np.tile(v, (len(ts), 1))


def _reduced_table(ctx, chart, t, fiber=None):
    """cov[i, j] = ∇ʳ(f_i) f_j over the chart coordinate fields at (t, fiber)."""
    geom = SigmaGeometry(ctx, chart)
    return geom.kernels(t, geom.identity if fiber is None else fiber).cov[0]


def _canonical_omega(p):
    om = np.zeros((2 * p, 2 * p))
    om[:p, p:] = np.eye(p)
    om[p:, :p] = -np.eye(p)
    return om


class TestIsotropicCorrection:
    def test_already_isotropic_gives_zero_map(self, rng):
        # graphs over the fiber with symmetric B are already isotropic
        p = 3
        om = _canonical_omega(p)
        B = rng.standard_normal((p, p))
        B = B + B.T
        s_tilde = np.vstack([B, np.eye(p)])
        delta = np.vstack([np.eye(p), np.zeros((p, p))])
        S, lam = isotropic_correction_gram(om, s_tilde, delta)
        assert np.max(np.abs(lam)) <= 1e-12
        assert np.max(np.abs(S - s_tilde)) <= 1e-12

    def test_default_complement_for_so3_is_isotropic(self, so3, mu_so3, so3_ctx):
        # the fiber-annihilator complement pairs only fiber directions, so
        # the correction map is exactly zero
        assert np.max(np.abs(so3_ctx.iso_map)) == 0.0
        assert np.max(np.abs(so3_ctx.S - so3_ctx.s_tilde)) == 0.0

    def test_two_dimensional_hand_case(self):
        # brute-force oracle: solve omega(L u, v) = -omega(u, v)/2 on the
        # 2x2 system by hand and confirm the graph is isotropic
        om = _canonical_omega(2)
        delta = np.vstack([np.eye(2), np.zeros((2, 2))])
        s_tilde = np.column_stack([
            np.array([0.0, 0.0, 1.0, 0.0]),           # e3
            np.array([1.0, 0.0, 0.0, 1.0]),           # e4 + e1
        ])
        B = delta.T @ om @ s_tilde
        W = s_tilde.T @ om @ s_tilde
        lam_oracle = 0.5 * np.linalg.solve(B.T, W)
        S, lam = isotropic_correction_gram(om, s_tilde, delta)
        assert np.max(np.abs(lam - lam_oracle)) <= 1e-14
        # frozen values from the hand solve: L s1 = e2/2, L s2 = -e1/2
        assert np.max(np.abs(lam - np.array([[0.0, -0.5], [0.5, 0.0]]))) <= 1e-14
        assert np.max(np.abs(S.T @ om @ S)) <= 1e-14

    def test_randomized_instances(self, rng):
        # random symplectic images of the canonical setup; the output must be
        # isotropic and span the same complement of delta
        p = 3
        om = _canonical_omega(p)
        for _ in range(50):
            Ssym = rng.standard_normal((2 * p, 2 * p))
            M = np.eye(2 * p) if False else None
            import scipy.linalg as sla
            M = sla.expm(om @ (Ssym + Ssym.T) * 0.2)
            delta = M @ np.vstack([np.eye(p), np.zeros((p, p))])
            B = rng.standard_normal((p, p))
            s_tilde = M @ np.vstack([B, np.eye(p)])
            S, _ = isotropic_correction_gram(om, s_tilde, delta)
            assert np.max(np.abs(S.T @ om @ S)) <= 1e-10
            lhs = linalg.orthonormal_columns(np.hstack([S, delta]))
            rhs = linalg.orthonormal_columns(np.hstack([s_tilde, delta]))
            assert linalg.subspace_distance(lhs, rhs) <= 1e-10

    def test_degenerate_pairing_rejected(self):
        om = _canonical_omega(2)
        delta = np.vstack([np.eye(2), np.zeros((2, 2))])
        s_tilde = np.column_stack([
            np.array([0.0, 0.0, 1.0, 0.0]),
            np.array([1.0, 0.0, 1.0, 0.0]),  # pairs with delta along e3 only
        ])
        with pytest.raises(DegeneratePairing):
            isotropic_correction_gram(om, s_tilde, delta)

    def test_empty_complement_is_its_own_correction(self):
        # p = 0: nothing to shear, so S is s_tilde and Λ the empty map
        om = _canonical_omega(2)
        s_tilde, delta = np.zeros((4, 0)), np.zeros((4, 0))
        S, lam = isotropic_correction_gram(om, s_tilde, delta)
        assert S.shape == (4, 0) and S.dtype == float
        assert lam.shape == (0, 0) and lam.dtype == float

    def test_public_wrapper_uses_level_form(self, so3, mu_so3, so3_ctx):
        S, _ = isotropic_correction_gram(rc.omega_gram(so3, mu_so3), so3_ctx.s_tilde,
                                         so3_ctx.split.delta)
        assert np.max(np.abs(S - so3_ctx.S)) == 0.0


class TestBuildContext:
    def test_so3_dimensions(self, so3_ctx):
        assert so3_ctx.diagnostics["dims"] == {"delta": 1, "w1": 2, "w2": 2, "s": 1}

    def test_catalog_invariants(self):
        for name, mu in CATALOG_CASES:
            a = rc.named_algebra(name)
            mu = np.asarray(mu, float)
            ctx = rc.build_context(a, mu)
            n, k = a.dim, ctx.stabilizer_dim
            om = rc.omega_gram(a, mu)
            P = ctx.p_matrix
            assert np.max(np.abs(P @ P - P)) <= 1e-12
            assert linalg.subspace_distance(P @ ctx.split.t_sigma, ctx.split.t_sigma) <= 1e-10
            kernel = linalg.nullspace(P)
            assert linalg.subspace_distance(kernel, np.hstack([ctx.w2, ctx.S])) <= 1e-10
            if k:
                assert np.max(np.abs(ctx.S.T @ om @ ctx.S)) <= 1e-10
            full = np.hstack([ctx.split.delta, ctx.w1, ctx.w2, ctx.S])
            assert linalg.rank(full) == 2 * n
            assert np.isfinite(ctx.diagnostics["decomposition_cond"])
            # alpha reads stabilizer coordinates off the vertical generators
            for i in range(k):
                gen = rc.right_generator(a, mu, ctx.split.g_mu[:, i])
                back = ctx.split.g_mu @ ctx.alpha(gen)
                assert np.max(np.abs(back - ctx.split.g_mu[:, i])) <= 1e-10
            if ctx.w1.shape[1]:
                assert np.max(np.abs(ctx.alpha_mat @ ctx.w1)) <= 1e-12
                gram = ctx.w1.T @ om @ ctx.w1
                s = np.linalg.svd(gram, compute_uv=False)
                assert s[-1] > 1e-10 * s[0]

    @pytest.mark.parametrize("label", ORACLE_CASES)
    def test_alpha_identities_within_their_bound(self, label):
        # red/alpha-identities, a test of the suite: α is the first k rows of Q⁻¹
        # for Q = [δ | W1 | W2 | S], and a stabilizer generator's vertical
        # generator (Y, μ∘ad Y) is δ's column (Y, 0) up to the annihilation, so
        # α(δ) = I and α(W1) = 0 are rows of Q⁻¹Q = I
        a, mu = oracle_case(label)
        ctx = rc.build_context(a, mu)
        k = ctx.stabilizer_dim
        Q = np.hstack([ctx.split.delta, ctx.w1, ctx.w2, ctx.S])
        assert np.array_equal(ctx.alpha_mat, np.linalg.inv(Q)[:k])
        vertical = rc.right_generator(a, mu, ctx.split.g_mu.T)
        assert np.max(np.abs(vertical - ctx.split.delta.T), initial=0.0) <= 1e-15
        assert alpha_identities_defect(ctx) <= ALPHA_IDENTITIES_BOUND

    def test_open_orbit_takes_the_general_path(self, aff1):
        # k = 0: empty radical and complement, and the whole group part in W1 and W2
        ctx = rc.build_context(aff1, np.array([0.0, 1.0]))
        assert ctx.s_tilde.shape == ctx.S.shape == ctx.split.delta.shape == (4, 0)
        assert ctx.iso_map.shape == (0, 0) and ctx.alpha_mat.shape == (0, 4)
        assert ctx.w1.tobytes() == np.vstack([np.eye(2), np.zeros((2, 2))]).tobytes()
        assert ctx.diagnostics["isotropy_defect"] == 0.0
        assert ctx.diagnostics["dims"] == {"delta": 0, "w1": 2, "w2": 2, "s": 0}

    def test_abelian_degenerates_to_point(self, rng):
        a = rc.abelian(2)
        ctx = rc.build_context(a, rng.standard_normal(2))
        assert ctx.zero_dimensional_base
        assert ctx.stabilizer_dim == 2
        assert ctx.w1.shape[1] == 0 and ctx.w2.shape[1] == 0
        assert ctx.diagnostics["dims"] == {"delta": 2, "w1": 0, "w2": 0, "s": 2}

    def test_sl2r_nilpotent_rejected(self):
        with pytest.raises(NonReductiveStabilizer):
            rc.build_context(rc.sl2r(), np.array([0.0, 1.0, 0.0]))

    def test_custom_complement_accepted_on_heis3(self, rng):
        # the stabilizer is central, so any complement is stable
        a = rc.heis3()
        mu = e3.copy()
        base = rc.build_context(a, mu)
        cand = base.s_tilde + 0.3 * rng.standard_normal(base.s_tilde.shape)
        ctx = rc.build_context(a, mu, s_tilde=cand)
        om = rc.omega_gram(a, mu)
        assert np.max(np.abs(ctx.S.T @ om @ ctx.S)) <= 1e-10

    def test_non_complement_rejected(self, so3, mu_so3):
        inside = np.zeros((6, 1))
        inside[3, 0] = 1.0  # (0, e1*) already lies in the span of the sum
        with pytest.raises(AssumptionTwoFailure):
            rc.build_context(so3, mu_so3, s_tilde=inside)

    def test_unstable_complement_rejected(self, so3, mu_so3):
        # (0, e3* + e1*) complements the sum but the stabilizer rotates it
        cand = np.zeros((6, 1))
        cand[3, 0] = 1.0
        cand[5, 0] = 1.0
        with pytest.raises(AssumptionTwoFailure):
            rc.build_context(so3, mu_so3, s_tilde=cand)

    def test_wrong_shape_rejected(self, so3, mu_so3):
        with pytest.raises(AssumptionTwoFailure):
            rc.build_context(so3, mu_so3, s_tilde=np.zeros((6, 2)))


class TestSigmaCovderiv:
    @pytest.mark.parametrize("name, mu", CATALOG_CASES)
    def test_default_gamma_is_the_symplectized_baseline(self, name, mu):
        # the context reads the connection only through Γ(μ); its default is
        # the symplectized baseline's, bit for bit
        a = rc.named_algebra(name)
        expected = rc.symplectized_coefficients(a, mu, rc.baseline_coefficients(a))
        assert np.array_equal(rc.build_context(a, mu).gamma_mu, expected)

    @pytest.mark.parametrize("label", ORACLE_CASES)
    def test_sigma_torsion_is_p_of_the_level_torsion(self, label, rng):
        # red/sigma-torsion, a test of the suite: the torsion of P∘∇ on the frame
        # fields (e_i, 0) is P·T(μ) + (P − I)C, with T(μ) the connection's torsion
        # at μ (conn/torsion reads the same Γ(μ)) and (P − I)C zero where P fixes
        # TΣ (red/projector-range).  On Γ(μ) moved by 1e-3·δ, T(μ) moves with it
        ctx = rc.build_context(*oracle_case(label))
        assert sigma_torsion_defect(ctx) <= SIGMA_TORSION_BOUND
        n, P = ctx.algebra.dim, ctx.p_matrix
        C = frame_structure(ctx.algebra)[:n, :n]
        moved = replace(ctx, gamma_mu=ctx.gamma_mu + 1e-3 * rng.standard_normal(ctx.gamma_mu.shape))
        T = torsion_components(ctx.algebra, moved.gamma_mu)[:n, :n]
        split = np.max(np.abs(linalg.matvec(P, T) + linalg.matvec(P - np.eye(2 * n), C)))
        assert abs(sigma_torsion_defect(moved) - split) <= 1e-15
        assert np.max(np.abs(linalg.matvec(P - np.eye(2 * n), C))) <= SIGMA_TORSION_BOUND
        assert sigma_torsion_defect(moved) > 1e-4

    def test_abelian_vanishes(self, rng):
        a = rc.abelian(2)
        mu = rng.standard_normal(2)
        ctx = rc.build_context(a, mu)
        assert np.max(np.abs(ctx.gamma_mu)) == 0.0

    def test_constant_fields_match_matrix_oracle(self, so3, mu_so3, so3_ctx, so3_chart):
        # independent oracle: contract the coefficient array directly and
        # project with a least-squares decomposition instead of the stored P
        gamma = rc.symplectized_coefficients(so3, mu_so3, rc.baseline_coefficients(so3))
        u = _vec(e1, np.zeros(3))
        v = _vec(e2, np.zeros(3))
        out = _induced_derivative(so3_ctx, so3_chart, u, _constant(v), np.zeros(2))
        raw = np.einsum("abc,a,b->c", gamma, u, v)
        basis = np.hstack([so3_ctx.split.t_sigma, so3_ctx.w2, so3_ctx.S])
        coords = np.linalg.solve(basis, raw)
        oracle = so3_ctx.split.t_sigma @ coords[:3]
        assert np.max(np.abs(out - oracle)) <= 1e-9

    def test_output_tangent_to_level_set(self, so3_ctx, so3_chart, rng):
        u = _vec(rng.standard_normal(3), np.zeros(3))
        v = _vec(rng.standard_normal(3), np.zeros(3))
        out = _induced_derivative(so3_ctx, so3_chart, u, _constant(v), np.array([0.2, -0.1]))
        assert np.max(np.abs(out[3:])) <= 1e-9

    def test_torsion_free_on_constant_fields(self, so3_ctx, so3_chart, rng):
        a = so3_ctx.algebra
        u = _vec(rng.standard_normal(3), np.zeros(3))
        v = _vec(rng.standard_normal(3), np.zeros(3))
        t = np.array([0.1, 0.05])
        duv = _induced_derivative(so3_ctx, so3_chart, u, _constant(v), t)
        dvu = _induced_derivative(so3_ctx, so3_chart, v, _constant(u), t)
        br = _vec(a.bracket(u[:3], v[:3]), np.zeros(3))
        assert np.max(np.abs(duv - dvu - br)) <= 1e-10

    def test_stabilizer_equivariance(self, so3, mu_so3, so3_ctx, rng):
        # transported constant fields at the moved point give the transported
        # value: the stabilizer acts by affine transformations
        gamma = rc.symplectized_coefficients(so3, mu_so3, rc.baseline_coefficients(so3))
        P = so3_ctx.p_matrix
        h = rc.group_exp(so3, so3_ctx.split.g_mu @ rng.uniform(-1, 1, 1))
        T = np.zeros((6, 6))
        T[:3, :3] = np.linalg.inv(h)
        T[3:, 3:] = rc.coadjoint_matrix(np.linalg.inv(h))
        for _ in range(5):
            u = _vec(rng.standard_normal(3), np.zeros(3))
            v = _vec(rng.standard_normal(3), np.zeros(3))
            lhs = T @ (P @ np.einsum("abc,a,b->c", gamma, u, v))
            rhs = P @ np.einsum("abc,a,b->c", gamma, T @ u, T @ v)
            assert np.max(np.abs(lhs - rhs)) <= 1e-8

    def test_leibniz_rule(self, so3_ctx, so3_chart, rng):
        # multiply the second field by a chart function and compare against
        # the product rule, with the derivative taken by finite differences
        geom = SigmaGeometry(so3_ctx, so3_chart)
        t0 = np.array([0.15, -0.05])
        u = _vec(np.array([0.3, -0.2, 0.5]), np.zeros(3))
        v = _vec(np.array([-0.1, 0.7, 0.2]), np.zeros(3))

        def f(t):
            return 1.0 + 0.5 * t[0] - 0.3 * t[1] ** 2

        def fv(ts, fibers):
            return np.array([f(t) for t in ts])[:, None] * v

        lhs = _induced_derivative(so3_ctx, so3_chart, u, fv, t0)
        plain = _induced_derivative(so3_ctx, so3_chart, u, _constant(v), t0)
        # chart-space derivative of f along the direction u
        F = geom.kernels(t0, geom.identity).F[0]
        params = np.linalg.solve(F, u[:3])
        h = 1e-6
        df = (f(t0 + h * params[:2]) - f(t0 - h * params[:2])) / (2 * h)
        expected = df * (so3_ctx.p_matrix @ v) + f(t0) * plain
        assert np.max(np.abs(lhs - expected)) <= 1e-6


def _lift(ctx, chart, v, t):
    geom = SigmaGeometry(ctx, chart)
    return geom.lift(geom.kernels(t, geom.identity), v)


class TestHorizontalLift:
    def test_zero_lifts_to_zero(self, so3_ctx, so3_chart):
        out = _lift(so3_ctx, so3_chart, np.zeros(3), np.zeros(2))
        assert np.max(np.abs(out)) == 0.0

    def test_lifts_span_horizontal_space(self, so3_ctx, so3_chart):
        D = oracles.dnu(so3_chart, np.zeros(2))
        lifts = np.column_stack([_lift(so3_ctx, so3_chart, D[:, a], np.zeros(2))
                                 for a in range(2)])
        assert linalg.subspace_distance(lifts, so3_ctx.w1) <= 1e-10

    def test_projection_recovers_input(self, so3, so3_ctx, so3_chart, rng):
        t = rng.uniform(-0.4, 0.4, 2)
        v = oracles.dnu(so3_chart, t) @ rng.standard_normal(2)
        lift = _lift(so3_ctx, so3_chart, v, t)
        g = oracles.section_element(so3_chart, t)
        K_T = so3.bracket_pairing(so3_ctx.mu).T
        pushed = -rc.coadjoint_matrix(g) @ (K_T @ lift[:3])
        assert np.max(np.abs(pushed - v)) <= 1e-10

    def test_alpha_annihilates_lifts(self, so3_ctx, so3_chart, rng):
        t = rng.uniform(-0.4, 0.4, 2)
        v = oracles.dnu(so3_chart, t) @ rng.standard_normal(2)
        lift = _lift(so3_ctx, so3_chart, v, t)
        assert np.max(np.abs(so3_ctx.alpha(lift))) <= 1e-12

    def test_not_tangent_rejected(self, so3_ctx, so3_chart):
        with pytest.raises(NotTangent):
            _lift(so3_ctx, so3_chart, e3, np.zeros(2))

    def test_singular_projection_guard(self, so3_ctx, so3_chart):
        geom = SigmaGeometry(so3_ctx, so3_chart)
        geom.w1grp = np.zeros_like(geom.w1grp)  # collapse the lift system
        with pytest.raises(SingularProjection):
            geom.lift(geom.kernels(np.zeros(2), geom.identity),
                      oracles.dnu(so3_chart, np.zeros(2))[:, 0])

    def test_lift_array_raises_on_every_use(self, so3_ctx, so3_chart):
        # a chart whose D has a column normal to the orbit, and a geometry whose
        # lift system is collapsed: the kernel raises on every build
        class NormalColumnChart(orbits.OrbitChart):  # μ, normal to the orbit at t = 0
            def exp_data(self, t):
                coad, vecs, D, d_vecs = super().exp_data(t)
                return coad, vecs, D + np.outer(self.mu, np.eye(self.dim)[0]), d_vecs

        t = np.zeros(2)
        skewed = NormalColumnChart(so3_chart.algebra, so3_chart.mu, so3_chart.m_basis)
        collapsed = SigmaGeometry(so3_ctx, so3_chart)
        collapsed.w1grp = np.zeros_like(collapsed.w1grp)
        for geom, error in ((SigmaGeometry(so3_ctx, skewed), NotTangent),
                            (collapsed, SingularProjection)):
            for _ in range(2):
                with pytest.raises(error):
                    geom.kernels(t, geom.identity)


class TestReducedCovderiv:
    def test_zero_dimensional_base_rejected(self, rng):
        a = rc.abelian(2)
        mu = rng.standard_normal(2)
        ctx = rc.build_context(a, mu)
        chart = rc.orbit_chart(a, mu, ctx.m)
        with pytest.raises(ZeroDimensionalBase):
            SigmaGeometry(ctx, chart)

    def test_agrees_with_gram_oracle(self, so3_ctx, so3_chart, rng):
        # pair the level-set values against the lifted chart directions and
        # invert the reduced Gram matrix instead of removing the radical part
        # with alpha and pushing down: radical directions pair to zero
        geom = SigmaGeometry(so3_ctx, so3_chart)
        for _ in range(3):
            t = rng.uniform(-0.4, 0.4, 2)
            K = geom.kernels(t, geom.identity)
            level, cov = K.level[0], K.cov[0]
            alt = gram_oracle_solve(geom, oracles.dnu(so3_chart, t), K.lifts[0],
                                    np.reshape(level, (4, -1)))
            for i in range(2):
                for j in range(2):
                    assert np.max(np.abs(cov[i, j] - alt[2 * i + j])) <= 1e-8

    def test_torsion_free_on_coordinate_vector_fields(self, so3_ctx, so3_chart, rng):
        t = rng.uniform(-0.4, 0.4, 2)
        cov = _reduced_table(so3_ctx, so3_chart, t)
        assert np.max(np.abs(cov[0, 1] - cov[1, 0])) <= 1e-6

    def test_fiber_point_independence(self, so3, so3_ctx, so3_chart, rng):
        t = np.array([0.2, -0.15])
        base = _reduced_table(so3_ctx, so3_chart, t)[0, 1]
        for _ in range(5):
            h = rc.group_exp(so3, so3_ctx.split.g_mu @ rng.uniform(-1, 1, 1))
            moved = _reduced_table(so3_ctx, so3_chart, t, fiber=h)[0, 1]
            assert np.max(np.abs(base - moved)) <= 1e-8

    def test_output_is_orbit_tangent(self, so3, so3_ctx, so3_chart, rng):
        t = rng.uniform(-0.4, 0.4, 2)
        out = _reduced_table(so3_ctx, so3_chart, t)[0, 1]
        oracles.tangent_representative(so3, oracles.nu(so3_chart, t), out)  # raises if not tangent


class TestReducedForm:
    def test_so3_center_value(self, so3, so3_ctx, so3_chart, mu_so3):
        # brute force through the lifts: the coordinate lifts at the center
        # are (e1, 0) and (e2, 0), so the value is -<mu, [e1, e2]> = -1
        D = oracles.dnu(so3_chart, np.zeros(2))
        val = rc.reduced_form(rc.SigmaGeometry(so3_ctx, so3_chart), D[:, 0], D[:, 1], np.zeros(2))
        assert abs(val + 1.0) <= 1e-12
        ref = oracles.kks_form(so3, mu_so3, D[:, 0], D[:, 1])
        assert abs(val - rc.KKS_MATCH_SIGN * ref) <= 1e-12

    def test_alternating(self, so3_ctx, so3_chart, rng):
        t = rng.uniform(-0.3, 0.3, 2)
        v = oracles.dnu(so3_chart, t) @ rng.standard_normal(2)
        assert rc.reduced_form(rc.SigmaGeometry(so3_ctx, so3_chart), v, v, t) == 0.0

    def test_kks_sign_constant_across_catalog(self, rng):
        for name, mu in CATALOG_CASES:
            a = rc.named_algebra(name)
            mu = np.asarray(mu, float)
            ctx = rc.build_context(a, mu)
            if ctx.zero_dimensional_base:
                continue
            chart = rc.default_chart(ctx)
            geom = rc.SigmaGeometry(ctx, chart)
            for _ in range(5):
                t = rng.uniform(-0.4, 0.4, chart.dim)
                D = oracles.dnu(chart, t)
                nu = oracles.nu(chart, t)
                red = rc.reduced_form(geom, D[:, 0], D[:, 1], t)
                ref = oracles.kks_form(a, nu, D[:, 0], D[:, 1])
                if abs(ref) > 1e-12:
                    assert abs(red - rc.KKS_MATCH_SIGN * ref) <= 1e-8 * abs(ref)

    def test_zero_dimensional_base_rejected(self, rng):
        a = rc.abelian(2)
        mu = rng.standard_normal(2)
        ctx = rc.build_context(a, mu)
        chart = rc.orbit_chart(a, mu, ctx.m)
        with pytest.raises(ZeroDimensionalBase):
            rc.reduced_form(rc.SigmaGeometry(ctx, chart), np.zeros(2), np.zeros(2), np.zeros(0))


class TestTotallyGeodesic:
    def test_abelian_zero(self, rng):
        a = rc.abelian(2)
        ctx = rc.build_context(a, rng.standard_normal(2))
        assert rc.totally_geodesic_defect(ctx) == 0.0

    def test_trivial_stabilizer_vacuous(self, aff1):
        ctx = rc.build_context(aff1, np.array([0.0, 1.0]))
        assert ctx.stabilizer_dim == 0
        assert rc.totally_geodesic_defect(ctx) == 0.0

    def test_so3_matches_direct_expansion(self, so3, mu_so3, so3_ctx):
        # oracle: expand omega(P Gamma(u, v), P z) with raw matrix products
        gamma = rc.symplectized_coefficients(so3, mu_so3, rc.baseline_coefficients(so3))
        om = rc.omega_gram(so3, mu_so3)
        P = so3_ctx.p_matrix
        u = _vec(so3_ctx.split.g_mu[:, 0], np.zeros(3))
        cov = P @ np.einsum("abc,a,b->c", gamma, u, u)
        oracle = max(abs(float(cov @ om @ (P @ z))) for z in np.eye(6))
        assert abs(rc.totally_geodesic_defect(so3_ctx) - oracle) <= 1e-12


    @pytest.mark.parametrize("label", ORACLE_CASES)
    def test_least_squares_route_matches(self, label, rng):
        # red/geodesic-oracle, a test of the suite: the runtime's defect against
        # a least-squares projection route, at each case's Γ(μ) (the defect is
        # roundoff there) and at Γ(μ) moved by 1e-3·δ (of order 1e-3 where k > 0)
        ctx = rc.build_context(*oracle_case(label))
        moved = replace(ctx, gamma_mu=ctx.gamma_mu + 1e-3 * rng.standard_normal(ctx.gamma_mu.shape))
        for c in (ctx, moved):
            assert abs(oracles.totally_geodesic_defect(c) - rc.totally_geodesic_defect(c)) \
                <= GEODESIC_ORACLE_BOUND
        assert rc.totally_geodesic_defect(moved) > 1e-5


class TestAutoparallel:
    def test_abelian_trivially_autoparallel(self, rng):
        a = rc.abelian(2)
        ctx = rc.build_context(a, rng.standard_normal(2))
        assert rc.autoparallel_check(ctx, rng=rng) == {"defect": 0.0, "independence": 0.0}

    def test_so3_not_autoparallel(self, so3_ctx, so3_chart, rng):
        report = rc.autoparallel_check(so3_ctx, geom=SigmaGeometry(so3_ctx, so3_chart),
                                       rng=rng)
        assert report["defect"] > 1e-3
        assert report["independence"] is None

    def test_heis3_autoparallel_and_complement_independent(self, heis3_ctx, rng):
        chart = rc.default_chart(heis3_ctx)
        report = rc.autoparallel_check(heis3_ctx, geom=SigmaGeometry(heis3_ctx, chart),
                                       rng=rng)
        assert report["defect"] <= 1e-10
        assert report["independence"] is not None
        assert report["independence"] <= 1e-8

    @pytest.mark.parametrize("doc,independence", [
        ({"group": "so3", "mu": [0.0, 0.0, 1.0], "connection": "baseline"}, None),
        ({"group": "heis3", "mu": [0.0, 0.0, 1.0]}, 0.0)], ids=["so3-baseline", "heis3"])
    def test_one_complement_candidate_per_check(self, monkeypatch, doc, independence):
        # the check perturbs the complement once and validates it once, in the
        # second context's build: where the stabilizer acts (so3 at the baseline,
        # whose level set is autoparallel) the candidate fails and independence
        # reads null; on heis3 it passes, and the two reductions agree exactly
        calls, check = [], reduction._check_custom_s_tilde
        monkeypatch.setattr(reduction, "_check_custom_s_tilde",
                            lambda *args: calls.append(args) or check(*args))
        rep, code = rc.run_pipeline(rc.CaseConfig.from_dict(doc), "reduce")
        auto = rep["stages"]["reduce"]["autoparallel"]
        assert code == 0 and auto["defect"] <= 1e-10 and len(calls) == 1
        assert auto["independence"] == independence

    def test_heis3_two_contexts_same_reduction(self, heis3_ctx, rng):
        # independent two-context comparison with an explicit custom complement
        a = heis3_ctx.algebra
        chart = rc.default_chart(heis3_ctx)
        cand = heis3_ctx.s_tilde + 0.4 * rng.standard_normal(heis3_ctx.s_tilde.shape)
        other = rc.build_context(a, heis3_ctx.mu, s_tilde=cand, gamma_mu=heis3_ctx.gamma_mu)
        for t in (np.array([0.2, 0.1]), np.array([-0.3, 0.25])):
            va = _reduced_table(heis3_ctx, chart, t)[0, 1]
            vb = _reduced_table(other, chart, t)[0, 1]
            assert np.max(np.abs(va - vb)) <= 1e-8


class TestEquivarianceOfCorrection:
    def test_nonzero_correction_is_equivariant_on_abelian(self, rng):
        # abelian stabilizer action is trivial, so equivariance must hold
        # exactly even for a graph complement with a nonzero correction map
        a = rc.abelian(2)
        mu = np.array([1.0, 0.5])
        B = np.array([[0.0, 1.0], [0.0, 0.0]])  # nonsymmetric: L != 0
        s_tilde = np.vstack([B, np.eye(2)])
        ctx = rc.build_context(a, mu, s_tilde=s_tilde)
        assert np.max(np.abs(ctx.iso_map)) > 0.1
        om = rc.omega_gram(a, mu)
        assert np.max(np.abs(ctx.S.T @ om @ ctx.S)) <= 1e-12


# so(4) at L01 + L23: the stabilizer so(2) ⊕ so(3) is non-abelian, the orbit 2-dimensional
KERNEL_CASES = CATALOG_CASES + [("so4", [1.0, 0.0, 0.0, 0.0, 0.0, 1.0])]
SO4_REGULAR_MU = [1.0, 0.0, 0.0, 0.0, 0.0, 2.0]  # L01 + 2·L23: orbit S² × S²


def _case(name, mu):
    if name == "aff1":
        a = rc.algebra_from_json(AFF1_DOC)
    else:
        a = _so4() if name == "so4" else rc.named_algebra(name)
    ctx = rc.build_context(a, np.asarray(mu, dtype=float))
    return a, ctx, rc.default_chart(ctx)


class TestPointKernel:
    @pytest.mark.parametrize("name,mu", KERNEL_CASES, ids=[n for n, _ in KERNEL_CASES])
    def test_matches_two_exponential_route(self, name, mu, rng):
        # reference: section element and fiber as Ad matrices, each with its
        # own exponential, composed, and Coad by inverting the product
        a, ctx, chart = _case(name, mu)
        geom = SigmaGeometry(ctx, chart)
        t = rng.uniform(-0.4, 0.4, chart.dim)
        h = rc.group_exp(a, ctx.split.g_mu @ rng.uniform(-1, 1, ctx.stabilizer_dim))
        g = oracles.section_element(chart, t)
        K_T = a.bracket_pairing(ctx.mu).T
        coad_ref = rc.coadjoint_matrix(g @ h)
        D_ref = -rc.coadjoint_matrix(g) @ K_T @ chart.lift_data(t)[1][0]
        M_ref = -coad_ref @ (K_T @ ctx.w1[: a.dim])

        def assert_close(value, ref):
            assert np.max(np.abs(value - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))

        K = geom.kernels(t, h)
        assert_close(K.coad[0], coad_ref)
        assert_close(oracles.dnu(chart, t), D_ref)
        lifts = K.lifts[0]
        assert lifts.shape == (chart.dim, 2 * a.dim)
        for i in range(chart.dim):
            coeffs, *_ = np.linalg.lstsq(M_ref, D_ref[:, i], rcond=None)
            assert_close(lifts[i], ctx.w1 @ coeffs)

    @pytest.mark.parametrize("name,mu", [KERNEL_CASES[0], KERNEL_CASES[-1]],
                             ids=["so3", "so4"])
    def test_hot_path_builds_no_group_element(self, monkeypatch, name, mu, rng):
        a, ctx, chart = _case(name, mu)
        geom = SigmaGeometry(ctx, chart)
        fiber = rc.group_exp(a, ctx.split.g_mu @ rng.uniform(-1, 1, ctx.stabilizer_dim))

        def forbidden(*args, **kwargs):
            raise AssertionError("group element built on the hot path")

        for module in (liealg, orbits, reduction):
            monkeypatch.setattr(module, "group_exp", forbidden, raising=False)
        t = rng.uniform(-0.3, 0.3, chart.dim)
        K = geom.kernels(t, fiber)
        assert np.all(np.isfinite(K.level)) and np.all(np.isfinite(K.cov))
        assert run_battery(geom, [t])["samples"]

    def test_chart_rank_loss_raises_on_every_use(self, so3_ctx, so3_chart):
        # at t = (2π, 0), φ₁(−ad A) vanishes on the rotation plane of A = 2π e1,
        # so the chart-fiber frame is singular, and the kernel that gives the
        # stencil's frames raises there; at t = (6, 0) it is not
        geom = SigmaGeometry(so3_ctx, so3_chart)
        u = _vec(e2, np.zeros(3))
        singular = np.array([2 * np.pi, 0.0])
        assert linalg.rank(oracles.dnu(so3_chart, singular)) < so3_chart.dim
        for _ in range(2):
            with pytest.raises(RankLoss):
                stencil(geom, singular, geom.identity, u, 1e-5,
                              geom.kernels(singular, geom.identity).F, _constant(u))
        near = np.array([6.0, 0.0])
        assert linalg.rank(oracles.dnu(so3_chart, near)) == so3_chart.dim
        out = stencil(geom, near, geom.identity, u, 1e-5,
                            geom.kernels(near, geom.identity).F, _constant(u))
        assert np.all(np.isfinite(out))


class TestStencilPoints:
    @pytest.mark.parametrize("name,mu", [KERNEL_CASES[0], ("so4", SO4_REGULAR_MU),
                                         KERNEL_CASES[-1], ("aff1", [0.0, 1.0])],
                             ids=["so3", "so4-regular", "so4-singular", "aff1"])
    def test_one_fiber_per_row_is_the_shared_fiber_calls(self, name, mu, rng):
        # the stencils of two fibers, each with its own steps, placed in one call
        # are the per-fiber calls' points row for row, bit for bit
        a, ctx, chart = _case(name, mu)
        geom, km, k = SigmaGeometry(ctx, chart), chart.dim, ctx.stabilizer_dim
        t = rng.uniform(-0.3, 0.3, km)
        fibers = np.array([geom.identity, rc.group_exp(a, ctx.split.g_mu @ rng.uniform(-1, 1, k))])
        K = geom.kernels([t, t], fibers)
        us = np.concatenate([K.lifts, np.broadcast_to(ctx.split.delta.T, (2, k, 2 * a.dim))], 1)
        d = us.shape[1]
        steps = rng.uniform(1e-5, 1e-3, (2, d))
        ts, shifted = geom._stencil_points(t, np.repeat(fibers, d, axis=0),
                                           us.reshape(-1, 2 * a.dim), steps.ravel(),
                                           np.repeat(K.F, d, axis=0))
        for f, rows in enumerate(np.split(np.arange(len(ts)), 2)):
            want_ts, want = geom._stencil_points(t, fibers[f], us[f], steps[f], K.F[f])
            assert ts[rows].tobytes() == want_ts.tobytes()
            assert shifted[rows].tobytes() == want.tobytes()
        if not k:  # e⁰ is I exactly: each point keeps its stencil's fiber, whatever it is
            h = rc.group_exp(a, rng.uniform(-1, 1, a.dim))
            assert geom._stencil_points(t, h, us[0], steps[0], K.F[0])[1].tobytes() == \
                np.broadcast_to(h, (2 * d, a.dim, a.dim)).tobytes()


class TestLiftStencil:
    @pytest.mark.parametrize("name,mu", [KERNEL_CASES[0], ("so4", SO4_REGULAR_MU),
                                         KERNEL_CASES[-1]],
                             ids=["so3", "so4-regular", "so4-singular"])
    def test_lift_only_points_are_the_kernels_lifts(self, name, mu, rng):
        # Coad, the section vectors and D from the chart's 2n×2n block, and the
        # lifts built from them, equal the full kernel's (3n×3n block) to
        # roundoff, at seeded points on the identity fiber and a random one
        a, ctx, chart = _case(name, mu)
        geom = SigmaGeometry(ctx, chart)
        ts = rng.uniform(-0.3, 0.3, (4, chart.dim))
        random_fiber = rc.group_exp(a, ctx.split.g_mu @ rng.uniform(-1, 1, ctx.stabilizer_dim))
        for got, want in zip(chart.lift_data(ts), chart.exp_data(ts)):
            assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, float(np.max(np.abs(want))))
        for fiber in (geom.identity, random_fiber):
            fibers = np.array([fiber] * len(ts))
            lifts, _ = geom.lift_frames(ts, fibers)
            kernels = geom.kernels(ts, fibers).lifts
            assert np.max(np.abs(lifts - kernels)) <= 1e-13 * max(1.0, np.max(np.abs(kernels)))

    def test_raises_as_lifts_at_a_failing_stencil_point(self, so3_ctx, so3_chart, monkeypatch):
        # a chart whose lift block gives D a column normal to the orbit, and a
        # geometry whose lift system is collapsed, fail at every stencil point;
        # the kernel at t of the plain chart and geometry, built from the
        # chart's 3n×3n block, gives the frames, and the stencil builds no kernel
        class NormalColumnChart(orbits.OrbitChart):  # μ, normal to the orbit at t = 0
            def lift_data(self, ts):
                coad, vecs, D = super().lift_data(ts)
                return coad, vecs, D + np.outer(self.mu, np.eye(self.dim)[0])

        t = np.zeros(2)
        skewed = NormalColumnChart(so3_chart.algebra, so3_chart.mu, so3_chart.m_basis)
        collapsed = SigmaGeometry(so3_ctx, so3_chart)
        collapsed.w1grp = np.zeros_like(collapsed.w1grp)
        frames = SigmaGeometry(so3_ctx, so3_chart).kernels(t, np.eye(3)).F
        built = count_builds(monkeypatch)
        for geom, error in ((SigmaGeometry(so3_ctx, skewed), NotTangent),
                            (collapsed, SingularProjection)):
            u = _vec(e1, np.zeros(3))
            for _ in range(2):
                with pytest.raises(error):
                    stencil(geom, t, geom.identity, u, 1e-5, frames)
        assert built == []


class TestCovTable:
    @pytest.mark.parametrize("name,mu", [KERNEL_CASES[0], KERNEL_CASES[-1]],
                             ids=["so3", "so4"])
    @pytest.mark.parametrize("richardson", [False, True], ids=["central", "richardson"])
    def test_table_is_the_pairwise_loop_bit_for_bit(self, name, mu, richardson, rng):
        # the table is the pairwise loop of exact derivatives, one (i, j) at a
        # time, bit for bit; and each entry is the derivative a fresh stencil
        # of the one field f̄_j along f̄_i measures, to the stencil's error
        # (central at 1e-5, or Richardson at 1e-3)
        a, ctx, chart = _case(name, mu)
        t = rng.uniform(-0.3, 0.3, chart.dim)
        assert np.any(t != 0.0)
        random_fiber = rc.group_exp(a, ctx.split.g_mu @ rng.uniform(-1, 1, ctx.stabilizer_dim))
        h, fd_rtol = (1e-3, 1e-10) if richardson else (1e-5, 1e-9)
        for fiber in (np.eye(a.dim), random_fiber):
            K = SigmaGeometry(ctx, chart).kernels(t, fiber)
            level, cov = K.level[0], K.cov[0]
            ref = SigmaGeometry(ctx, chart)
            R = ref.kernels(t, fiber)
            u = R.lifts[0]
            for i in range(chart.dim):
                for j in range(chart.dim):
                    d = ref.lift_derivatives(R, u[i:i + 1])[0, 0, j]
                    g = ref._induced(u[i], u[j], d)
                    assert level[i][j].tolist() == g.tolist()
                    assert cov[i, j].tolist() == pushdown(ref, R.coad[0],
                                                          ctx.horizontal_part(g)).tolist()
                    fd = (richardson_stencil if richardson else stencil)(
                        ref, t, fiber, u[i], h, R.F,
                        lambda ts, fibers, j=j: ref.kernels(ts, fibers).lifts[:, j])
                    assert np.max(np.abs(fd - d)) <= fd_rtol * max(1.0, np.max(np.abs(d)))

    @pytest.mark.parametrize("name,mu", [KERNEL_CASES[0], ("so4", SO4_REGULAR_MU)],
                             ids=["so3", "so4-regular"])
    @pytest.mark.parametrize("richardson", [False, True], ids=["central", "richardson"])
    def test_one_row_is_that_row_of_the_full_table_bit_for_bit(self, name, mu, richardson,
                                                               rng):
        # the derivatives along one direction do not depend on the other
        # directions solved with it, nor on a stencil (central or Richardson)
        # taken on the geometry first
        a, ctx, chart = _case(name, mu)
        t = rng.uniform(-0.3, 0.3, chart.dim)
        assert np.any(t != 0.0)
        random_fiber = rc.group_exp(a, ctx.split.g_mu @ rng.uniform(-1, 1, ctx.stabilizer_dim))
        for fiber in (np.eye(a.dim), random_fiber):
            whole = SigmaGeometry(ctx, chart)
            table = whole.kernels(t, fiber)
            full, derivs = table.level[0], whole.lift_derivatives(table, table.lifts)[0]
            for r in range(chart.dim):
                geom = SigmaGeometry(ctx, chart)
                K = geom.kernels(t, fiber)
                u = K.lifts[0]
                (richardson_stencil if richardson else stencil)(
                    geom, t, fiber, u, 1e-3, K.F, lambda ts, fibers: geom.kernels(ts, fibers).lifts)
                d = geom.lift_derivatives(K, u[r:r + 1])[0, 0]
                assert d.tolist() == derivs[r].tolist()
                assert geom._induced(u[r], u, d).tolist() == full[r].tolist()

    @pytest.mark.parametrize("richardson", [False, True], ids=["central", "richardson"])
    def test_tables_are_kept_and_freed_with_the_geometry(self, richardson, monkeypatch):
        # the caller keeps the kernels it built, tables included, and the
        # geometry keeps none: a second read of (t, fiber) builds its kernel
        # again, bit for bit, and a stencil (central, or Richardson from two
        # central ones) builds its points in one batch each; the kernels hold
        # no reference back to the geometry, so dropping it frees it at once
        _, ctx, chart = _case(*KERNEL_CASES[-1])
        built = count_builds(monkeypatch)
        geom = SigmaGeometry(ctx, chart)
        t = np.linspace(-0.2, 0.15, chart.dim)
        K = geom.kernels(t, geom.identity)
        level, cov, derivs = K.level[0], K.cov[0], geom.lift_derivatives(K, K.lifts)[0]
        (richardson_stencil if richardson else stencil)(
            geom, t, geom.identity, K.lifts[0], 1e-3, K.F,
            lambda ts, fibers: geom.kernels(ts, fibers).lifts)
        assert level.shape == derivs.shape == (chart.dim, chart.dim, 2 * geom.n)
        assert cov.shape == (chart.dim, chart.dim, geom.n)
        again = geom.kernels(t.copy(), np.eye(geom.n))
        assert again.level is not K.level
        for value, kept in ((again.level[0], level), (again.cov[0], cov),
                            (geom.lift_derivatives(again, again.lifts)[0], derivs)):
            assert value.tobytes() == kept.tobytes()
        assert built == [1] + [2 * chart.dim] * (2 if richardson else 1) + [1]
        ref = weakref.ref(geom)
        gc.disable()
        try:
            del geom
            assert ref() is None
        finally:
            gc.enable()


class TestStackedLift:
    @pytest.mark.parametrize("name,mu", [KERNEL_CASES[0], ("so4", SO4_REGULAR_MU)],
                             ids=["so3", "so4-regular"])
    def test_stack_is_the_row_by_row_lifts(self, name, mu, rng):
        a, ctx, chart = _case(name, mu)
        geom = SigmaGeometry(ctx, chart)
        t = rng.uniform(-0.3, 0.3, chart.dim)
        D = oracles.dnu(chart, t)
        vs = rng.standard_normal((5, chart.dim)) @ D.T
        K = geom.kernels(t, geom.identity)
        stacked = geom.lift(K, vs)
        rows = np.array([geom.lift(K, v) for v in vs])
        assert stacked.shape == rows.shape == (5, 2 * a.dim)
        assert np.max(np.abs(stacked - rows)) <= 1e-12 * max(1.0, float(np.max(np.abs(rows))))
        # the kernel's lift array is the stacked lift of D's columns
        lifts = K.lifts[0]
        assert np.max(np.abs(lifts - geom.lift(K, D.T))) <= 1e-12

    def test_one_row_off_the_orbit_raises(self, so3_chart, so3_ctx, rng):
        geom = SigmaGeometry(so3_ctx, so3_chart)
        t = np.array([0.2, -0.1])
        tangents = rng.standard_normal((3, 2)) @ oracles.dnu(so3_chart, t).T
        K = geom.kernels(t, geom.identity)
        geom.lift(K, tangents)
        for bad in range(3):
            vs = tangents.copy()
            vs[bad] += 1e-3 * oracles.nu(so3_chart, t)  # the orbit's normal at nu(t)
            with pytest.raises(NotTangent):
                geom.lift(K, vs)


class TestStackedSolves:
    """The per-point solves taken as one stacked solve keep each point's typed failure."""

    def test_one_off_tangent_column_in_a_stack_raises(self, so3_chart, rng):
        # a stack of three points' chart differentials solves whole; moving one
        # column of one point along ν(t), normal to the orbit, raises NotTangent
        ts = rng.uniform(-0.3, 0.3, (3, 2))
        K_T = np.array([so3_chart.algebra.bracket_pairing(oracles.nu(so3_chart, t)).T for t in ts])
        D = np.array([oracles.dnu(so3_chart, t) for t in ts])
        X = orbits.tangent_solve(K_T, D)
        assert X.shape == (3, 3, 2)
        for p, t in enumerate(ts):  # each point's solve is its one-point solve
            assert X[p].tobytes() == orbits.tangent_solve(K_T[p], D[p]).tobytes()
        for p, column in ((0, 1), (2, 0)):
            bad = D.copy()
            bad[p, :, column] += 1e-3 * oracles.nu(so3_chart, ts[p])
            with pytest.raises(NotTangent):
                orbits.tangent_solve(K_T, bad)

    def test_a_singular_lift_matrix_in_a_stack_raises(self):
        # aff1 at 30·e₀: the lift matrix M loses rank there (see
        # test_batched_kernels); a stacked lift over that point raises
        # SingularProjection, and the stack without it lifts
        ctx = rc.build_context(rc.algebra_from_json(AFF1_DOC), np.array([0.0, 1.0]))
        chart = rc.default_chart(ctx)
        good, bad = [np.array([0.1, -0.2]), np.array([-0.3, 0.25])], np.array([30.0, 0.0])
        geom = SigmaGeometry(ctx, chart)
        tangents = np.array([oracles.dnu(chart, t).T for t in good])
        assert geom.lift(geom.kernels(good, geom.identity), tangents).shape == (2, 2, 4)
        with pytest.raises(SingularProjection):
            geom.lift(geom.kernels([good[0], bad], geom.identity),
                      np.array([tangents[0], oracles.dnu(chart, bad).T]))

    def test_an_off_tangent_column_in_the_sweep_exits_4(self, monkeypatch):
        # the chart sweep lifts every swept point's D in one stacked solve: with
        # one column of the second point's D moved along ν(t), the reduce stage
        # fails with NotTangent, exit 4
        cfg = rc.CaseConfig.from_dict({"group": "so3", "mu": [0.0, 0.0, 1.0], "samples": 3})
        kernels = SigmaGeometry.kernels

        def skewed(self, ts, fibers):
            K = kernels(self, ts, fibers)
            if len(K.D) < 2:
                return K
            D = K.D.copy()
            D[1] += np.outer(K.coad[1] @ self.ctx.mu, [1.0, 0.0])
            return replace(K, D=D)

        monkeypatch.setattr(SigmaGeometry, "kernels", skewed)
        rep, code = rc.run_pipeline(cfg, "reduce")
        assert code == 4 and rep["error"]["type"] == "NotTangent"
        assert rep["error"]["stage"] == "reduce"


class TestFormTable:
    @pytest.mark.parametrize("name,mu", [KERNEL_CASES[0], ("so4", SO4_REGULAR_MU)],
                             ids=["so3", "so4-regular"])
    def test_contraction_is_the_pairwise_form(self, name, mu, rng):
        a, ctx, chart = _case(name, mu)
        geom = SigmaGeometry(ctx, chart)
        t = rng.uniform(-0.3, 0.3, chart.dim)
        n = a.dim
        level = np.hstack([rng.standard_normal((6, n)), np.zeros((6, n))])
        for us, vs in ((level[:4], level[4:]),
                       (geom.kernels(t, geom.identity).lifts[0], level)):
            table = geom.form_table(us, vs)
            ref = np.array([[rc.symplectic_form(a, ctx.mu, u, v) for v in vs] for u in us])
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert table.shape == (len(us), len(vs))
            assert np.max(np.abs(table - ref)) <= 1e-14 * scale
