import numpy as np
import pytest

import redconn as rc
from redconn import linalg
from tests import oracles
from tests.conftest import (CATALOG_CASES, OMEGA_CLOSED_BOUND, ORACLE_ALGEBRAS, ORACLE_CASES,
                            TSIGMA_DELTA_PAIRING_BOUND, closed_form_draws, cyclic_domega,
                            oracle_algebra, oracle_case, tsigma_delta_pairing)


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
        # d omega on frame-constant extensions (phase/omega-closed, a test of the
        # suite): the fiber velocity of each slot differentiates the bracket
        # term, minus the bracket-field terms, on five draws per algebra
        for name in ORACLE_ALGEBRAS:
            a = oracle_algebra(name)
            assert np.max(np.abs(cyclic_domega(a, *closed_form_draws(a, rng, 5)))) \
                <= OMEGA_CLOSED_BOUND

    @pytest.mark.parametrize("name", ORACLE_ALGEBRAS + ["so3-off-jacobi"])
    def test_closedness_defect_is_the_jacobi_contraction(self, name, rng):
        # the η terms cancel, and what is left is ⟨ξ, Σ_cyc [[X, Y], Z]⟩, which
        # the load gate holds to liealg.JACOBI_TOL per unit vectors: so3 with
        # [e1, e2] = e3 + e1, which no loader accepts, reads it at order 1
        if name == "so3-off-jacobi":
            c = rc.so3().c.copy()
            c[0, 1, 0], c[1, 0, 0] = 1.0, -1.0
            a = rc.LieAlgebra(3, c, "so3")
        else:
            a = oracle_algebra(name)
        xi, u, v, w = closed_form_draws(a, rng, 5)
        X, Y, Z = (x[:, : a.dim] for x in (u, v, w))
        jacobi = sum(a.bracket(a.bracket(p, q), r) for p, q, r in ((X, Y, Z), (Y, Z, X), (Z, X, Y)))
        d_omega = cyclic_domega(a, xi, u, v, w)
        assert np.max(np.abs(d_omega - linalg.vecdot(xi, jacobi))) <= 1e-13
        assert bool(np.max(np.abs(d_omega)) > 1e-2) is (name == "so3-off-jacobi")


class TestFundamentalFields:
    def test_right_so3_example(self, so3, mu_so3):
        out = rc.right_generator(so3, mu_so3, e1)
        assert np.allclose(out[:3], e1)
        assert np.allclose(out[3:], e2)  # xi∘ad(e1) at xi = e3*

    def test_right_abelian(self, rng):
        a = rc.abelian(3)
        X = rng.standard_normal(3)
        out = rc.right_generator(a, rng.standard_normal(3), X)
        assert np.allclose(out[:3], X) and np.all(out[3:] == 0.0)


class TestMomentumMaps:
    def test_left_abelian_trivial(self, rng):
        a = rc.abelian(2)
        xi = rng.standard_normal(2)
        g = rc.group_exp(a, rng.standard_normal(2))
        assert np.max(np.abs(rc.coadjoint_matrix(g) @ xi - xi)) <= 1e-14

    def test_left_so3_quarter_turn(self, so3):
        # Coad(exp((pi/2) e3)) rotates components by +pi/2 about the third axis
        g = rc.group_exp(so3, (np.pi / 2) * e3)
        out = rc.coadjoint_matrix(g) @ e1
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
            gens = rc.right_generator(a, mu, np.eye(a.dim)).T
            assert linalg.subspace_distance(split.t_perp, gens) <= 1e-10

    def test_delta_omega_orthogonal_to_tsigma(self):
        # phase/tsigma-delta-pairing, a test of the suite
        for label in ORACLE_CASES:
            assert tsigma_delta_pairing(rc.build_context(*oracle_case(label))) \
                <= TSIGMA_DELTA_PAIRING_BOUND

    @pytest.mark.parametrize("label", ORACLE_CASES)
    def test_tsigma_delta_pairing_is_the_stabilizer_annihilation(self, label):
        # t_σᵀΩ(ξ)δ = −K(ξ)g_μ, whose entry [j, b] is ⟨ξ, [Y_b, e_j]⟩: the array
        # lie/stabilizer-annihilation reads at ξ = μ, transposed.  At μ both are
        # roundoff; at ξ = μ + 1e-3·(1, …, 2) against the stabilizer of μ, of
        # order 1e-3, except on heis3, whose stabilizer is its centre
        a, mu = oracle_case(label)
        split = rc.constraint_split(a, mu)
        for xi in (mu, mu + 1e-3 * np.linspace(1.0, 2.0, a.dim)):
            pairing = split.t_sigma.T @ rc.omega_gram(a, xi) @ split.delta
            ann = linalg.vecdot(a.bracket(split.g_mu.T[:, None], np.eye(a.dim)), xi)
            assert np.max(np.abs(pairing - ann.T)) <= 1e-15
            assert np.max(np.abs(pairing + a.bracket_pairing(xi) @ split.g_mu)) <= 1e-15
        assert bool(np.max(np.abs(pairing)) > 1e-4) is (label != "heis3")

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
    """The left momentum map is a submersion everywhere, which is why the
    pipeline checks no rank of it."""

    def test_left_side_so3_random_points(self, so3, mu_so3, rng):
        # Coad(g) is orthogonal on so3, so D Dᵀ = Coad(g)(I + KᵀK)Coad(g)ᵀ ≥ I
        for g in rc.group_exp(so3, rng.uniform(-1, 1, (10, 3))):
            s = np.linalg.svd(oracles.momentum_differential(so3, g, mu_so3), compute_uv=False)
            assert s.shape == (3,) and s[-1] >= 1.0 - 1e-12

    def test_abelian_regular_and_degenerate(self, rng):
        # every point of an abelian algebra is degenerate (μ∘ad = 0), and the
        # left differential is still [0 | I], of full rank
        a = rc.abelian(3)
        mu = rng.standard_normal(3)
        g = rc.group_exp(a, rng.standard_normal(3))
        s = np.linalg.svd(oracles.momentum_differential(a, g, mu), compute_uv=False)
        assert s[-1] == s[0] == 1.0

    def test_left_differential_matches_finite_differences(self, so3, mu_so3, rng):
        # differentiate Coad(g exp(sX))(xi + s eta) numerically
        g = rc.group_exp(so3, rng.uniform(-1, 1, 3))
        D = oracles.momentum_differential(so3, g, mu_so3)
        h = 1e-6
        for _ in range(4):
            X, eta = rng.standard_normal(3), rng.standard_normal(3)
            plus = rc.coadjoint_matrix(g @ rc.group_exp(so3, h * X)) @ (mu_so3 + h * eta)
            minus = rc.coadjoint_matrix(g @ rc.group_exp(so3, -h * X)) @ (mu_so3 - h * eta)
            fd = (plus - minus) / (2 * h)
            assert np.max(np.abs(fd - D @ _vec(X, eta))) <= 1e-8
