import numpy as np
import pytest

import redconn as rc
from redconn.errors import PointOffConstraint
from redconn.phasespace import momentum_differential
from tests.conftest import CATALOG_CASES


def _vec(X, eta):
    return np.concatenate([np.asarray(X, float), np.asarray(eta, float)])


e1, e2, e3 = np.eye(3)
zero3 = np.zeros(3)


class TestSymplecticForm:
    def test_abelian_canonical(self, rng):
        a = rc.abelian(3)
        xi = rng.standard_normal(3)
        for _ in range(5):
            X, eta = rng.standard_normal(3), rng.standard_normal(3)
            Xp, etap = rng.standard_normal(3), rng.standard_normal(3)
            val = rc.symplectic_form(a, xi, _vec(X, eta), _vec(Xp, etap))
            assert abs(val - (eta @ Xp - etap @ X)) <= 1e-14

    def test_so3_group_pair(self, so3, mu_so3):
        val = rc.symplectic_form(so3, mu_so3, _vec(e1, zero3), _vec(e2, zero3))
        assert abs(val - (-1.0)) <= 1e-15

    def test_alternating(self, so3, rng):
        xi = rng.standard_normal(3)
        u = rng.standard_normal(6)
        assert rc.symplectic_form(so3, xi, u, u) == 0.0
        v = rng.standard_normal(6)
        lhs = rc.symplectic_form(so3, xi, u, v)
        rhs = rc.symplectic_form(so3, xi, v, u)
        assert abs(lhs + rhs) <= 1e-14 * max(1.0, abs(lhs))

    def test_nondegenerate_gram(self, rng):
        for name, _ in CATALOG_CASES:
            a = rc.named_algebra(name)
            om = rc.omega_gram(a, rng.standard_normal(a.dim))
            s = np.linalg.svd(om, compute_uv=False)
            assert s[-1] > 1e-10 * s[0]
            assert np.max(np.abs(om + om.T)) == 0.0

    def test_closedness_cyclic_identity(self, rng):
        # d omega on frame-constant extensions: the fiber velocity of each
        # slot differentiates the bracket term, minus the bracket-field terms
        for name, _ in CATALOG_CASES:
            a = rc.named_algebra(name)
            n = a.dim
            for _ in range(5):
                xi = rng.standard_normal(n)
                u, v, w = (rng.standard_normal(2 * n) for _ in range(3))
                total = 0.0
                for x, y, z in ((u, v, w), (v, w, u), (w, u, v)):
                    total += -float(x[n:] @ a.bracket(y[:n], z[:n]))
                    bx = np.concatenate([a.bracket(x[:n], y[:n]), np.zeros(n)])
                    total -= rc.symplectic_form(a, xi, bx, z)
                assert abs(total) <= 1e-10


class TestLiouville:
    def test_pairs_group_direction(self, so3):
        assert rc.liouville_form(so3, e3, _vec(e3, np.array([5.0, -2.0, 7.0]))) == 1.0

    def test_fiber_directions_annihilated(self, so3, rng):
        assert rc.liouville_form(so3, e3, _vec(zero3, rng.standard_normal(3))) == 0.0

    def test_zero_covector(self, so3, rng):
        assert rc.liouville_form(so3, zero3, rng.standard_normal(6)) == 0.0


class TestFundamentalFields:
    def test_right_so3_example(self, so3, mu_so3):
        out = rc.fundamental_field(so3, "right", e1, rc.PhasePoint(None, mu_so3))
        assert np.allclose(out[:3], e1)
        assert np.allclose(out[3:], e2)  # xi∘ad(e1) at xi = e3*

    def test_right_abelian(self, rng):
        a = rc.abelian(3)
        X = rng.standard_normal(3)
        out = rc.fundamental_field(a, "right", X, rc.PhasePoint(None, rng.standard_normal(3)))
        assert np.allclose(out[:3], X) and np.all(out[3:] == 0.0)

    def test_left_at_identity(self, so3, rng):
        X = rng.standard_normal(3)
        p = rc.PhasePoint(np.eye(3), rng.standard_normal(3))
        out = rc.fundamental_field(so3, "left", X, p)
        assert np.allclose(out[:3], -X) and np.all(out[3:] == 0.0)

    def test_left_needs_group_element(self, so3):
        with pytest.raises(ValueError, match="needs a group element"):
            rc.fundamental_field(so3, "left", e1, rc.PhasePoint(None, e3))


class TestMomentumMaps:
    def test_right_is_fiber_projection(self, so3, rng):
        xi = rng.standard_normal(3)
        p = rc.PhasePoint(rc.group_exp(so3, rng.standard_normal(3)), xi)
        assert np.allclose(rc.momentum_map(so3, "right", p), xi)

    def test_left_abelian_trivial(self, rng):
        a = rc.abelian(2)
        xi = rng.standard_normal(2)
        p = rc.PhasePoint(rc.group_exp(a, rng.standard_normal(2)), xi)
        assert np.max(np.abs(rc.momentum_map(a, "left", p) - xi)) <= 1e-14

    def test_left_so3_quarter_turn(self, so3):
        # Coad(exp((pi/2) e3)) rotates components by +pi/2 about the third axis
        g = rc.group_exp(so3, (np.pi / 2) * e3)
        out = rc.momentum_map(so3, "left", rc.PhasePoint(g, e1))
        assert np.max(np.abs(out - e2)) <= 1e-12


class TestConstraintSplit:
    @pytest.mark.parametrize("name,mu,expected_k", [
        ("so3", [0, 0, 1], 1), ("su2", [0, 0, 1], 1), ("sl2r", [1, 0, 0], 1),
        ("heis3", [0, 0, 1], 1), ("se2", [0, 1, 0], 1),
    ])
    def test_dimension_identities(self, name, mu, expected_k):
        a = rc.named_algebra(name)
        split = rc.constraint_split(a, np.asarray(mu, float))
        n = a.dim
        assert split.t_sigma.shape[1] == n
        assert split.t_perp.shape[1] == n
        assert split.delta.shape[1] == expected_k
        assert split.sum.shape[1] == 2 * n - expected_k

    def test_abelian_fully_degenerate(self, rng):
        a = rc.abelian(3)
        split = rc.constraint_split(a, rng.standard_normal(3))
        from redconn import linalg
        assert linalg.subspace_distance(split.t_sigma, split.t_perp) <= 1e-12
        assert linalg.subspace_distance(split.t_sigma, split.delta) <= 1e-12
        assert split.sum.shape[1] == 3

    def test_delta_matches_stabilizer(self):
        for name, mu in CATALOG_CASES:
            a = rc.named_algebra(name)
            split = rc.constraint_split(a, np.asarray(mu, float))
            g_mu = rc.stabilizer_algebra(a, np.asarray(mu, float))
            assert split.delta.shape[1] == g_mu.shape[1]
            assert np.max(np.abs(split.delta[a.dim:, :])) == 0.0

    def test_perp_is_generator_span(self):
        from redconn import linalg
        for name, mu in CATALOG_CASES:
            a = rc.named_algebra(name)
            mu = np.asarray(mu, float)
            split = rc.constraint_split(a, mu)
            gens = np.column_stack(
                [rc.fundamental_field(a, "right", np.eye(a.dim)[i],
                                      rc.PhasePoint(None, mu))
                 for i in range(a.dim)])
            assert linalg.subspace_distance(split.t_perp, gens) <= 1e-10

    def test_delta_omega_orthogonal_to_tsigma(self):
        for name, mu in CATALOG_CASES:
            a = rc.named_algebra(name)
            mu = np.asarray(mu, float)
            split = rc.constraint_split(a, mu)
            om = rc.omega_gram(a, mu)
            if split.delta.shape[1]:
                assert np.max(np.abs(split.t_sigma.T @ om @ split.delta)) <= 1e-12

    def test_radical_of_restricted_form_is_delta(self):
        from redconn import linalg
        for name, mu in CATALOG_CASES:
            a = rc.named_algebra(name)
            mu = np.asarray(mu, float)
            split = rc.constraint_split(a, mu)
            om = rc.omega_gram(a, mu)
            gram = split.sum.T @ om @ split.sum
            radical = split.sum @ linalg.nullspace(gram)
            assert linalg.subspace_distance(radical, split.delta) <= 1e-10


class TestRegularity:
    def test_right_side_identically_regular(self, so3, mu_so3, rng):
        pts = [rc.PhasePoint(rc.group_exp(so3, rng.uniform(-1, 1, 3)), mu_so3)
               for _ in range(10)]
        report = rc.regularity_report(so3, mu_so3, pts, side="right")
        assert report["regular"]
        assert all(abs(p["sigma_min"] - 1.0) <= 1e-12 for p in report["points"])

    def test_left_side_so3_random_points(self, so3, mu_so3, rng):
        pts = [rc.PhasePoint(rc.group_exp(so3, rng.uniform(-1, 1, 3)), mu_so3)
               for _ in range(10)]
        report = rc.regularity_report(so3, mu_so3, pts, side="left")
        assert report["regular"]
        assert all(p["sigma_min"] > 0 for p in report["points"])

    def test_abelian_regular_and_degenerate(self, rng):
        a = rc.abelian(3)
        mu = rng.standard_normal(3)
        pts = [rc.PhasePoint(rc.group_exp(a, rng.standard_normal(3)), mu)]
        assert rc.regularity_report(a, mu, pts, side="right")["regular"]

    def test_point_off_constraint_rejected(self, so3, mu_so3):
        bad = rc.PhasePoint(np.eye(3), mu_so3 + 0.1)
        with pytest.raises(PointOffConstraint):
            rc.regularity_report(so3, mu_so3, [bad])

    def test_left_differential_matches_finite_differences(self, so3, mu_so3, rng):
        # oracle: differentiate Coad(g exp(sX))(xi + s eta) numerically
        g = rc.group_exp(so3, rng.uniform(-1, 1, 3))
        p = rc.PhasePoint(g, mu_so3)
        D = momentum_differential(so3, "left", p)
        h = 1e-6
        for _ in range(4):
            X, eta = rng.standard_normal(3), rng.standard_normal(3)
            plus = rc.momentum_map(so3, "left",
                                   rc.PhasePoint(g @ rc.group_exp(so3, h * X),
                                                 mu_so3 + h * eta))
            minus = rc.momentum_map(so3, "left",
                                    rc.PhasePoint(g @ rc.group_exp(so3, -h * X),
                                                  mu_so3 - h * eta))
            fd = (plus - minus) / (2 * h)
            assert np.max(np.abs(fd - D @ _vec(X, eta))) <= 1e-8
