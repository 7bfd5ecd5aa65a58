import numpy as np
import pytest

import redconn as rc
from redconn.errors import NotTangent
from tests.conftest import CATALOG_CASES
from tests.test_liealg import _realized_exp

e1, e2, e3 = np.eye(3)


class TestOrbitChart:
    def test_center_maps_to_mu(self, so3_ctx, so3_chart, mu_so3):
        assert np.max(np.abs(so3_chart.nu(np.zeros(2)) - mu_so3)) <= 1e-12

    def test_so3_orbit_is_unit_sphere(self, so3_chart, rng):
        for _ in range(10):
            t = rng.uniform(-0.9, 0.9, 2)
            assert abs(np.linalg.norm(so3_chart.nu(t)) - 1.0) <= 1e-10

    def test_abelian_chart_is_zero_dimensional(self, rng):
        a = rc.abelian(2)
        mu = rng.standard_normal(2)
        ctx = rc.build_context(a, mu)
        chart = rc.orbit_chart(a, mu, ctx.m)
        assert chart.dim == 0

    def test_differential_matches_finite_differences(self, so3_chart, rng):
        h = 1e-6
        for _ in range(3):
            t = rng.uniform(-0.5, 0.5, 2)
            D = so3_chart.dnu(t)
            for a in range(2):
                step = np.eye(2)[a] * h
                fd = (so3_chart.nu(t + step) - so3_chart.nu(t - step)) / (2 * h)
                assert np.max(np.abs(fd - D[:, a])) <= 1e-8

    @pytest.mark.parametrize("name,mu", CATALOG_CASES, ids=[n for n, _ in CATALOG_CASES])
    def test_section_vectors_match_finite_differences(self, name, mu, rng):
        # oracle: left-trivialized velocity of s -> exp(A(t + s e_a)) by
        # numerically differentiating the realization matrix itself
        a = rc.named_algebra(name)
        chart = rc.default_chart(rc.build_context(a, np.asarray(mu)))
        h = 1e-6
        t = rng.uniform(-0.4, 0.4, chart.dim)
        vecs = chart.section_vectors(t)
        g = _realized_exp(a, chart.m_basis @ t)
        for i in range(chart.dim):
            step = np.eye(chart.dim)[i] * h
            dmat = (_realized_exp(a, chart.m_basis @ (t + step))
                    - _realized_exp(a, chart.m_basis @ (t - step))) / (2 * h)
            fd = a.matrix_coords(np.linalg.solve(g, dmat))
            assert np.max(np.abs(fd - vecs[:, i])) <= 1e-8

    def test_section_lands_on_level_set(self, so3, so3_chart, rng):
        # the section pairs exp(t·E) with the fixed level mu by construction;
        # its element is a rotation in the realization and in Ad
        t = rng.uniform(-0.5, 0.5, 2)
        g = _realized_exp(so3, so3_chart.m_basis @ t)
        for M in (g, so3_chart.section_element(t)):
            assert abs(np.linalg.det(M) - 1.0) <= 1e-9
            assert np.max(np.abs(M.T @ M - np.eye(3))) <= 1e-9

    def test_coords_roundtrip(self, so3_chart, rng):
        for _ in range(5):
            t = rng.uniform(-0.5, 0.5, 2)
            back = so3_chart.coords(so3_chart.nu(t), t0=t + 0.05)
            assert np.max(np.abs(so3_chart.nu(back) - so3_chart.nu(t))) <= 1e-11

    def test_full_rank_within_radius(self, so3_chart, rng):
        for _ in range(5):
            so3_chart.check_rank(rng.uniform(-0.9, 0.9, 2))


class TestTangentFrame:
    def test_frame_matches_chart_differential_at_center(self, so3, so3_ctx, so3_chart, mu_so3):
        frame = rc.orbit_tangent_frame(so3, mu_so3, so3_ctx.m)
        D = so3_chart.dnu(np.zeros(2))
        assert np.max(np.abs(frame - D)) <= 1e-12

    def test_frame_matches_coadjoint_flow_derivative(self, so3, so3_ctx, mu_so3):
        # oracle: differentiate Coad(exp(s E_a)) nu numerically
        frame = rc.orbit_tangent_frame(so3, mu_so3, so3_ctx.m)
        h = 1e-6
        for a in range(2):
            gp = rc.group_exp(so3, h * so3_ctx.m[:, a])
            gm = rc.group_exp(so3, -h * so3_ctx.m[:, a])
            fd = (rc.coadjoint_matrix(gp) @ mu_so3 - rc.coadjoint_matrix(gm) @ mu_so3) / (2 * h)
            assert np.max(np.abs(fd - frame[:, a])) <= 1e-8

    def test_full_rank_on_chart_points(self, so3, so3_ctx, so3_chart, rng):
        for _ in range(5):
            t = rng.uniform(-1.0, 1.0, 2)
            frame = rc.orbit_tangent_frame(so3, so3_chart.nu(t), so3_ctx.m)
            assert np.linalg.matrix_rank(frame) == 2


class TestKksForm:
    def test_so3_hand_value(self, so3, mu_so3):
        v = so3.coad_star(e1, mu_so3)
        w = so3.coad_star(e2, mu_so3)
        assert abs(rc.kks_form(so3, mu_so3, v, w) - 1.0) <= 1e-12

    def test_heis3_hand_value(self):
        a = rc.heis3()
        nu = e3.copy()
        v = a.coad_star(e1, nu)
        w = a.coad_star(e2, nu)
        assert abs(rc.kks_form(a, nu, v, w) - 1.0) <= 1e-12

    def test_equal_arguments_vanish(self, so3, mu_so3, rng):
        v = so3.coad_star(rng.standard_normal(3), mu_so3)
        assert rc.kks_form(so3, mu_so3, v, v) == 0.0

    def test_independent_of_representative(self, so3, mu_so3, rng):
        # shifting the representative by a stabilizer element changes nothing
        g_mu = rc.stabilizer_algebra(so3, mu_so3)
        X = rng.standard_normal(3)
        Y = rng.standard_normal(3)
        v = so3.coad_star(X, mu_so3)
        w = so3.coad_star(Y, mu_so3)
        base = rc.kks_form(so3, mu_so3, v, w)
        for s in (-1.0, 0.5, 2.0):
            Xs = X + s * g_mu[:, 0]
            shifted = float(mu_so3 @ so3.bracket(Xs, Y))
            assert abs(shifted - float(mu_so3 @ so3.bracket(X, Y))) <= 1e-10
        assert abs(base - float(mu_so3 @ so3.bracket(X, Y))) <= 1e-10

    def test_nondegenerate_on_orbit_frame(self, so3, so3_ctx, so3_chart, rng):
        for _ in range(3):
            t = rng.uniform(-0.5, 0.5, 2)
            nu = so3_chart.nu(t)
            frame = rc.orbit_tangent_frame(so3, nu, so3_ctx.m)
            gram = np.array([[rc.kks_form(so3, nu, frame[:, i], frame[:, j])
                              for j in range(2)] for i in range(2)])
            assert abs(np.linalg.det(gram)) > 1e-6

    def test_not_tangent_rejected(self, so3, mu_so3):
        # e3* direction is normal to the unit sphere at the pole
        with pytest.raises(NotTangent):
            rc.kks_form(so3, mu_so3, e3, e1)

    def test_tangent_representative_residual(self, so3, mu_so3, rng):
        X = rng.standard_normal(3)
        v = so3.coad_star(X, mu_so3)
        rep = rc.tangent_representative(so3, mu_so3, v)
        assert np.max(np.abs(so3.coad_star(rep, mu_so3) - v)) <= 1e-10
