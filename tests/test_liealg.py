import itertools
import re

import numpy as np
import pytest

import redconn as rc
from redconn import liealg, linalg
from redconn.errors import ConfigError, NonReductiveStabilizer
from tests import oracles
from tests.conftest import (AFF1_DOC, CATALOG_CASES, COAD_GROUP_LAW_BOUND, MALFORMED_ALGEBRAS,
                            ORACLE_ALGEBRAS, coad_group_law_defect, oracle_algebra,
                            perfbench_cases)


def _basis(n, i):
    e = np.zeros(n)
    e[i] = 1.0
    return e


class TestCatalogValidation:
    @pytest.mark.parametrize("name", ["so3", "su2", "sl2r", "heis3", "se2", "abelian(4)"])
    def test_construction_passes_validation(self, name):
        a = rc.named_algebra(name)
        a.validate()
        assert np.all(a.c == -a.c.transpose(1, 0, 2))

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            rc.named_algebra("e8")

    def test_realization_commutators(self):
        a = rc.su2()
        rho = a.realization
        for i in range(3):
            for j in range(3):
                comm = rho[i] @ rho[j] - rho[j] @ rho[i]
                rebuilt = np.einsum("k,kab->ab", a.c[i, j], rho)
                assert np.max(np.abs(comm - rebuilt)) <= 1e-12


class TestBracket:
    def test_so3_hand_values(self, so3):
        # [e1, e2] = e3 and cyclic permutations
        assert np.allclose(so3.bracket(_basis(3, 0), _basis(3, 1)), _basis(3, 2))
        assert np.allclose(so3.bracket(_basis(3, 1), _basis(3, 2)), _basis(3, 0))
        assert np.allclose(so3.bracket(_basis(3, 2), _basis(3, 0)), _basis(3, 1))

    def test_bracket_of_vector_with_itself_is_exactly_zero(self, so3, rng):
        for _ in range(20):
            X = rng.standard_normal(3)
            assert np.all(so3.bracket(X, X) == 0.0)

    def test_antisymmetry_is_bitwise(self, rng):
        for name, _ in CATALOG_CASES:
            a = rc.named_algebra(name)
            X, Y = rng.standard_normal(a.dim), rng.standard_normal(a.dim)
            assert np.all(a.bracket(X, Y) == -a.bracket(Y, X))

    def test_masked_sum_is_the_strict_upper_triangle_bit_for_bit(self, rng):
        # the bracket sums c over a mask built once per algebra; each value is
        # the sum over np.triu(W − Wᵀ, 1), bit for bit
        so5 = rc.algebra_from_json(perfbench_cases().so_n_group(5))
        for a in [so5] + [rc.named_algebra(name) for name, _ in CATALOG_CASES]:
            for _ in range(500 if a is so5 else 50):
                X, Y = rng.standard_normal((2, a.dim))
                W = np.outer(X, Y)
                ref = np.einsum("ij,ijk->k", np.triu(W - W.T, k=1), a.c)
                assert a.bracket(X, Y).tobytes() == ref.tobytes()

    def test_abelian_brackets_vanish(self, rng):
        a = rc.abelian(3)
        assert np.all(a.bracket(rng.standard_normal(3), rng.standard_normal(3)) == 0.0)

    def test_dimension_mismatch(self, so3):
        with pytest.raises(ValueError):
            so3.bracket(np.ones(2), np.ones(3))


class TestCoadStar:
    def test_so3_example_against_basis_evaluation(self, so3):
        # oracle: component j of xi∘ad(X) is <xi, [X, e_j]>, evaluated by loops
        X = _basis(3, 0)
        xi = _basis(3, 2)
        oracle = np.array([xi @ so3.bracket(X, _basis(3, j)) for j in range(3)])
        assert np.allclose(oracle, _basis(3, 1))  # e2*
        assert np.allclose(so3.coad_star(X, xi), oracle)

    def test_zero_covector(self, so3, rng):
        assert np.all(so3.coad_star(rng.standard_normal(3), np.zeros(3)) == 0.0)

    def test_abelian_always_zero(self, rng):
        a = rc.abelian(4)
        assert np.all(a.coad_star(rng.standard_normal(4), rng.standard_normal(4)) == 0.0)

    def test_pairing_identity(self, rng):
        for name, _ in CATALOG_CASES:
            a = rc.named_algebra(name)
            for _ in range(5):
                X, Y = rng.standard_normal(a.dim), rng.standard_normal(a.dim)
                xi = rng.standard_normal(a.dim)
                lhs = float(a.coad_star(X, xi) @ Y)
                rhs = float(xi @ a.bracket(X, Y))
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_pairing_antisymmetry_exact(self, rng):
        # <xi,[X,Y]> + <xi,[Y,X]> cancels exactly thanks to the bitwise bracket,
        # on ten rows of stacked draws (what lie/bracket-pairing-antisymmetry
        # checked before it became this test)
        for name in ORACLE_ALGEBRAS:
            a = oracle_algebra(name)
            X, Y, xi = np.split(rng.standard_normal((10, 3 * a.dim)), 3, axis=1)
            pairs = linalg.vecdot(xi, a.bracket(X, Y)) + linalg.vecdot(xi, a.bracket(Y, X))
            assert np.all(pairs == 0.0), name

    @pytest.mark.parametrize("name", ORACLE_ALGEBRAS)
    def test_jacobi_defect_within_the_load_gate(self, name):
        # lie/jacobi, a test of the suite: its bound was the load gate's
        assert oracle_algebra(name).jacobi_defect <= liealg.JACOBI_TOL == 1e-12


class TestStabilizer:
    def test_so3_vertical_axis(self, so3):
        # brute-force oracle: assemble the map Y -> mu∘ad(Y) by loops and
        # confirm the expected one-dimensional nullspace span{e3}
        mu = _basis(3, 2)
        M = np.array([[mu @ so3.bracket(_basis(3, i), _basis(3, j)) for i in range(3)]
                      for j in range(3)])
        assert np.linalg.matrix_rank(M) == 2
        g_mu = rc.stabilizer_algebra(so3, mu)
        assert g_mu.shape == (3, 1)
        assert abs(abs(g_mu[2, 0]) - 1.0) <= 1e-12

    def test_abelian_full_algebra(self, rng):
        a = rc.abelian(3)
        g_mu = rc.stabilizer_algebra(a, rng.standard_normal(3))
        assert g_mu.shape == (3, 3)

    def test_heis3_center(self):
        a = rc.heis3()
        g_mu = rc.stabilizer_algebra(a, _basis(3, 2))
        assert g_mu.shape == (3, 1)
        assert abs(abs(g_mu[2, 0]) - 1.0) <= 1e-12

    def test_annihilation_property(self, rng):
        for name, mu in CATALOG_CASES:
            a = rc.named_algebra(name)
            mu = np.asarray(mu)
            g_mu = rc.stabilizer_algebra(a, mu)
            for i in range(g_mu.shape[1]):
                for j in range(a.dim):
                    assert abs(mu @ a.bracket(g_mu[:, i], _basis(a.dim, j))) <= 1e-12


class TestReductiveComplement:
    def test_so3_plane(self, so3):
        mu = _basis(3, 2)
        g_mu = rc.stabilizer_algebra(so3, mu)
        m = rc.reductive_complement(so3, g_mu)
        assert m.shape == (3, 2)
        # stability verified by direct brackets: [e3, m] stays in span(m)
        P = m @ m.T
        for j in range(2):
            b = so3.bracket(_basis(3, 2), m[:, j])
            assert np.max(np.abs(b - P @ b)) <= 1e-12

    def test_abelian_zero_complement(self):
        a = rc.abelian(3)
        g_mu = rc.stabilizer_algebra(a, np.ones(3))
        m = rc.reductive_complement(a, g_mu)
        assert m.shape == (3, 0) and m.dtype == float

    def test_so3_at_zero_complement_is_empty(self, so3):
        # k = n at μ = 0: the orthogonal complement of all of g, an empty basis
        g_mu = rc.stabilizer_algebra(so3, np.zeros(3))
        assert g_mu.shape == (3, 3)
        m = rc.reductive_complement(so3, g_mu)
        assert m.shape == (3, 0) and m.dtype == float

    def test_open_orbit_complement_is_the_whole_algebra(self, aff1):
        # k = 0 at μ = (0, 1): the complement is g, the identity bit for bit
        g_mu = rc.stabilizer_algebra(aff1, np.array([0.0, 1.0]))
        assert g_mu.shape == (2, 0)
        assert rc.reductive_complement(aff1, g_mu).tobytes() == np.eye(2).tobytes()

    def test_sl2r_nilpotent_fails(self):
        # stabilizer of the nilpotent functional E* is span{F}; a complement
        # of span{F} always has a basis {H + aF, E + bF}, and [F, H + aF] = 2F
        # can never lie in it, so no ad-stable complement exists
        a = rc.sl2r()
        mu = _basis(3, 1)
        g_mu = rc.stabilizer_algebra(a, mu)
        assert np.allclose(np.abs(g_mu.ravel()), [0, 0, 1])
        rng = np.random.default_rng(0)
        for _ in range(20):
            aa, bb = rng.standard_normal(2)
            basis = np.column_stack([[1.0, 0.0, aa], [0.0, 1.0, bb]])
            b = a.bracket(g_mu[:, 0], basis[:, 0])
            coords, *_ = np.linalg.lstsq(basis, b, rcond=None)
            assert np.linalg.norm(basis @ coords - b) > 0.1
        with pytest.raises(NonReductiveStabilizer):
            rc.reductive_complement(a, g_mu)

    def test_sl2r_semisimple_oblique_complement(self):
        # the Euclidean complement is not stable here; the equivariant
        # projection route must still find the eigenvector complement
        a = rc.sl2r()
        g_mu = rc.stabilizer_algebra(a, np.array([1.0, 0.5, 0.0]))
        m = rc.reductive_complement(a, g_mu)
        assert m.shape == (3, 2)
        P = m @ m.T
        for j in range(2):
            b = a.bracket(g_mu[:, 0], m[:, j])
            assert np.max(np.abs(b - P @ b)) <= 1e-10

    def test_projection_commutes_with_ad(self):
        for name, mu in CATALOG_CASES:
            a = rc.named_algebra(name)
            g_mu = rc.stabilizer_algebra(a, np.asarray(mu))
            m = rc.reductive_complement(a, g_mu)
            if g_mu.shape[1] in (0, a.dim):
                continue
            Q = np.hstack([g_mu, m])
            pi = Q @ np.diag([1.0] * g_mu.shape[1] + [0.0] * m.shape[1]) @ np.linalg.inv(Q)
            for i in range(g_mu.shape[1]):
                adY = a.ad(g_mu[:, i])
                assert np.max(np.abs(pi @ adY - adY @ pi)) <= 1e-10

    def test_not_a_subalgebra_rejected(self, so3):
        with pytest.raises(ValueError):
            rc.reductive_complement(so3, np.eye(3)[:, :2])  # span{e1,e2} is not closed


def _so4() -> rc.LieAlgebra:
    """so(4) on the basis E_ij − E_ji (i < j), brackets from matrix commutators."""
    rho = np.zeros((6, 4, 4))
    for k, (i, j) in enumerate(itertools.combinations(range(4), 2)):
        rho[k, i, j], rho[k, j, i] = 1.0, -1.0
    comm = np.einsum("iab,jbc->ijac", rho, rho) - np.einsum("jab,ibc->ijac", rho, rho)
    # the basis is Frobenius-orthogonal with squared norm 2
    c = np.einsum("ijab,kab->ijk", comm, rho) / 2.0
    a = rc.LieAlgebra(6, c, "so4", rho, det_one=True, orthogonal=True)
    a.validate()
    return a


def _realized_exp(a, X):
    """exp of X in the realization: the reference for the Ad-only kernels."""
    return linalg.expm(np.einsum("i,iab->ab", X, a.realization))


class TestGroupMachinery:
    def test_exp_zero_is_identity(self, so3):
        assert np.allclose(rc.group_exp(so3, np.zeros(3)), np.eye(3))
        assert np.allclose(_realized_exp(so3, np.zeros(3)), np.eye(3))

    def test_so3_adjoint_rotation_closed_form(self, so3):
        # Ad(exp(t e3)) rotates the (e1, e2) plane by angle t
        for t in (0.3, -1.2):
            Ad = rc.group_exp(so3, t * _basis(3, 2))
            expected = np.array([[np.cos(t), -np.sin(t), 0.0],
                                 [np.sin(t), np.cos(t), 0.0],
                                 [0.0, 0.0, 1.0]])
            assert np.max(np.abs(Ad - expected)) <= 1e-12

    def test_coad_group_law(self, rng):
        # what lie/coad-group-law checked before it became this test, since
        # Coad(g)·Coad(g⁻¹) = I holds for any invertible Ad; test_controls.py
        # holds its control
        for name in ORACLE_ALGEBRAS:
            a = oracle_algebra(name)
            Ad = rc.group_exp(a, rng.uniform(-1, 1, (5, a.dim)))
            assert coad_group_law_defect(Ad) <= COAD_GROUP_LAW_BOUND, name

    def test_ad_is_bracket_homomorphism(self, rng):
        for name, _ in CATALOG_CASES:
            a = rc.named_algebra(name)
            Ad = rc.group_exp(a, rng.uniform(-1, 1, a.dim))
            for _ in range(3):
                X, Y = rng.standard_normal(a.dim), rng.standard_normal(a.dim)
                lhs = Ad @ a.bracket(X, Y)
                rhs = a.bracket(Ad @ X, Ad @ Y)
                assert np.max(np.abs(lhs - rhs)) <= 1e-9

    def test_stabilizer_exponentials_fix_mu(self, rng):
        for name, mu in CATALOG_CASES:
            a = rc.named_algebra(name)
            mu = np.asarray(mu)
            g_mu = rc.stabilizer_algebra(a, mu)
            for t in np.linspace(-1, 1, 5):
                for i in range(g_mu.shape[1]):
                    g = rc.group_exp(a, t * g_mu[:, i])
                    assert np.max(np.abs(rc.coadjoint_matrix(g) @ mu - mu)) <= 1e-8

    @pytest.mark.parametrize("name", [n for n, _ in CATALOG_CASES] + ["so4"])
    def test_ad_matches_realization_conjugation(self, name, rng):
        # Ad comes from the structure constants, the realization matrix from
        # its own exponential: conjugating the basis ties the two together
        a = _so4() if name == "so4" else rc.named_algebra(name)
        n = a.dim
        X1, X2 = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
        g = rc.group_exp(a, X1) @ rc.group_exp(a, X2)
        g_mat = _realized_exp(a, X1) @ _realized_exp(a, X2)
        for Ad, mat in ((g, g_mat), (np.linalg.inv(g), np.linalg.inv(g_mat))):
            scale = max(1.0, float(np.max(np.abs(Ad))))
            mat_inv = np.linalg.inv(mat)
            for i in range(n):
                col = oracles.matrix_coords(a, mat @ a.realization[i] @ mat_inv)
                assert np.max(np.abs(Ad[:, i] - col)) <= 1e-12 * scale
            prod = rc.coadjoint_matrix(Ad) @ Ad.T
            assert np.max(np.abs(prod - np.eye(n))) <= 1e-12 * scale

    def test_no_realization(self):
        # the oracle reads the realization, so an algebra without one has no coordinates
        a = rc.LieAlgebra(2, rc.abelian(2).c.copy())
        with pytest.raises(oracles.NoRealization):
            oracles.matrix_coords(a, np.zeros((3, 3)))

    def test_group_constraints_validated(self, so3, rng):
        # the claims validate checks on the generators hold on group elements
        g = _realized_exp(so3, rng.uniform(-2, 2, 3))
        assert abs(np.linalg.det(g) - 1.0) <= 1e-9
        assert np.max(np.abs(g.T @ g - np.eye(3))) <= 1e-9
        # a false claim fails on the generators, whatever element one would draw
        sl2r = rc.sl2r()
        with pytest.raises(ValueError, match="orthogonal"):
            rc.LieAlgebra(3, sl2r.c, realization=sl2r.realization, orthogonal=True).validate()
        rho = np.asarray(AFF1_DOC["realization"])
        with pytest.raises(ValueError, match="det_one"):
            rc.LieAlgebra(2, rc.algebra_from_json(AFF1_DOC).c, realization=rho,
                          det_one=True).validate()

    def test_realization_free_algebra_matches_realized(self, so3, rng):
        # the group kernels read only the structure constants: an unrealized
        # copy of so3 gives the realized so3's arrays bit for bit
        bare = rc.LieAlgebra(3, so3.c)
        X = rng.uniform(-1, 1, 3)
        assert np.array_equal(rc.group_exp(bare, X), rc.group_exp(so3, X))
        m = np.eye(3)[:, :2]
        t = rng.uniform(-0.3, 0.3, 2)
        for got, want in zip(rc.orbit_chart(bare, [0, 0, 1.0], m).exp_data(t),
                             rc.orbit_chart(so3, [0, 0, 1.0], m).exp_data(t)):
            assert np.array_equal(got, want)
        for got, want in zip(oracles.finite_cyclic_rule(bare, np.eye(3)[2], 4),
                             oracles.finite_cyclic_rule(so3, np.eye(3)[2], 4)):
            assert np.array_equal(got, want)


class TestJsonLoading:
    def test_roundtrip_structure(self):
        a = rc.algebra_from_json(AFF1_DOC)
        assert a.dim == 2
        assert a.c[0, 1, 1] == 1.0 and a.c[1, 0, 1] == -1.0
        assert a.realization is not None

    def test_string_input(self):
        a = rc.algebra_from_json('{"dim": 2, "brackets": []}')
        assert a.dim == 2 and a.realization is None

    def test_bad_json(self):
        with pytest.raises(ConfigError):
            rc.algebra_from_json("{not json")

    def test_jacobi_violation_rejected(self):
        # [e1,[e3,e1]] term survives the cyclic sum: not a Lie algebra
        doc = {"dim": 3, "brackets": [[0, 1, [2, 1.0]], [0, 2, [0, 1.0]]]}
        with pytest.raises(ConfigError):
            rc.algebra_from_json(doc)

    @pytest.mark.parametrize("eps,loads", [(1e-13, True), (1e-9, False)])
    def test_the_load_gate_holds_the_jacobi_defect_to_its_bound(self, eps, loads):
        # se2 with [P1, P2] = ε·P1: the cyclic sum at (J, P1, P2) is ε·P2, so
        # the defect is ε; loading refuses it above JACOBI_TOL and keeps it below
        doc = {"dim": 3, "brackets": [[0, 1, [2, 1.0]], [0, 2, [1, -1.0]], [1, 2, [1, eps]]]}
        if loads:
            assert rc.algebra_from_json(doc).jacobi_defect == pytest.approx(eps, rel=1e-12)
        else:
            with pytest.raises(ConfigError, match="Jacobi defect"):
                rc.algebra_from_json(doc)

    def test_missing_dim(self):
        with pytest.raises(ConfigError):
            rc.algebra_from_json({"brackets": []})

    # a negative index would wrap to the end of its axis instead of failing
    @pytest.mark.parametrize("doc", [
        {"dim": 3, "brackets": [[0, -1, [1, 1.0]]]},
        {"dim": 3, "brackets": [[-3, 1, [2, 1.0]]]},
        {"dim": 3, "brackets": [[0, 1, [-1, 1.0]]]},
        {"dim": 3, "brackets": [[0, 3, [2, 1.0]]]},
        {"dim": 3, "brackets": [[0, 1, [3, 1.0]]]},
        {"dim": 0},
        {"dim": -1},
    ], ids=["j=-1", "i=-3", "k=-1", "j=dim", "k=dim", "dim=0", "dim=-1"])
    def test_out_of_range_rejected(self, doc):
        with pytest.raises(ConfigError):
            rc.algebra_from_json(doc)

    # a value of another JSON type is refused, not coerced: dim 2.5 would load
    # as 2, a bracket index 1.9 as 1, the coefficient "1.0" or true as 1.0 and
    # the claim "false" as true
    @pytest.mark.parametrize("doc", MALFORMED_ALGEBRAS.values(), ids=MALFORMED_ALGEBRAS)
    def test_wrong_type_rejected(self, doc):
        with pytest.raises(ConfigError, match="malformed algebra document"):
            rc.algebra_from_json(doc)

    # a bracket given twice would be decided by its last entry ([e₀, e₁] = −e₁
    # for the first document, coefficient 3 for the second): the error names
    # the entry, as it does an entry or a brackets value of the wrong shape
    @pytest.mark.parametrize("brackets,entry", [
        ([[0, 1, [1, 1.0]], [1, 0, [1, 1.0]]], "[1, 0, [1, 1.0]] gives {1, 0} again"),
        ([[0, 1, [1, 1.0], [1, 3.0]]], "[0, 1, [1, 1.0], [1, 3.0]] gives {0, 1} again or a k"),
        ("x", "brackets must be a list of [i, j, [k, coeff], ...] lists, got 'x'"),
        ([[0, 1, [1]]], "bracket entry [0, 1, [1]] is not"),
    ], ids=["pair-twice", "k-twice", "brackets='x'", "term=[1]"])
    def test_a_repeated_or_misshapen_bracket_is_named(self, brackets, entry):
        with pytest.raises(ConfigError, match=re.escape(entry)):
            rc.algebra_from_json({"dim": 2, "brackets": brackets})

    # a realization that is not a stack of matrices fails its shape check
    # rather than indexing past its dimensions
    @pytest.mark.parametrize("realization", [1.0, [1.0], [[1.0]]], ids=["0d", "1d", "2d"])
    def test_realization_of_too_few_dimensions_rejected(self, realization):
        with pytest.raises(ConfigError, match="realization has shape"):
            rc.algebra_from_json({"dim": 1, "realization": realization})
