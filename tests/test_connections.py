import json

import numpy as np
import pytest

import redconn as rc
from redconn.cli import EXPORT_CLAIMS
from redconn.connections import (frame_structure, frame_transport, nabla_omega_components,
                                 torsion_components)
from tests import oracles
from tests.conftest import (AVERAGING_BOUND, CATALOG_CASES, CLOSED_FORM_BOUND, averaging_defects,
                            averaging_delta, averaging_rule, closed_form_draws, closed_form_gap,
                            contracted_nabla_omega, perfbench_cases, symmetrized)

e1, e2, e3 = np.eye(3)
zero3 = np.zeros(3)


def _vec(X, eta):
    return np.concatenate([np.asarray(X, float), np.asarray(eta, float)])


ORACLE_ALGEBRAS = [name for name, _ in CATALOG_CASES] + ["so4", "so5"]


def _algebra(name):
    """A catalog algebra, or so(n) from ``perfbench/cases.py`` for "so4" and "so5"."""
    if name in dict(CATALOG_CASES):
        return rc.named_algebra(name)
    return rc.algebra_from_json(perfbench_cases().so_n_group(int(name[2:])))


class TestBaseline:
    def test_so3_half_bracket(self, so3):
        gamma = rc.baseline_coefficients(so3)
        out = np.einsum("abc,a,b->c", gamma, _vec(e1, zero3), _vec(e2, zero3))
        assert np.allclose(out, _vec(0.5 * e3, zero3))

    def test_abelian_vanishes(self):
        assert np.all(rc.baseline_coefficients(rc.abelian(3)) == 0.0)

    def test_no_fiber_output(self, so3):
        gamma = rc.baseline_coefficients(so3)
        assert np.all(gamma[:, :, 3:] == 0.0)
        assert np.all(gamma[3:, :, :] == 0.0)
        assert np.all(gamma[:, 3:, :] == 0.0)

    def test_constant_in_fiber_point(self, so3):
        # one read-only (2n)³ array serves every fiber point
        g0, g1 = rc.baseline_coefficients(so3), rc.baseline_coefficients(so3)
        assert g0.shape == (6, 6, 6) and np.all(g0 == g1) and not g0.flags.writeable

    def test_torsion_free_over_catalog(self):
        for name, _ in CATALOG_CASES:
            a = rc.named_algebra(name)
            assert rc.torsion_defect(a, rc.baseline_coefficients(a)) == 0.0


class TestNablaOmega:
    def test_so3_fiber_direction_example(self, so3, mu_so3):
        base = rc.baseline_coefficients(so3)
        # hand value: -<e1*, [e2, e3]> = -1, remaining terms vanish
        val = contracted_nabla_omega(so3, mu_so3, base, _vec(zero3, e1), _vec(e2, zero3),
                                     _vec(e3, zero3))
        assert abs(val + 1.0) <= 1e-15

    def test_so3_group_triple_example(self, so3, mu_so3):
        base = rc.baseline_coefficients(so3)
        # hand value: (1/2)<e3*, [e1, [e2, e3]]> = (1/2)<e3*, [e1, e1]> = 0
        val = contracted_nabla_omega(so3, mu_so3, base, _vec(e1, zero3), _vec(e2, zero3),
                                     _vec(e3, zero3))
        assert abs(val) <= 1e-15

    def test_matches_closed_form_over_catalog(self, aff1, rng):
        # the runtime's ∇°ω against the oracle's closed form, twenty draws per algebra
        for a in [rc.named_algebra(name) for name, _ in CATALOG_CASES] + [aff1]:
            assert closed_form_gap(a, *closed_form_draws(a, rng, 20)) <= CLOSED_FORM_BOUND

    def test_antisymmetric_in_last_two_slots(self, so3, rng):
        base = rc.baseline_coefficients(so3)
        xi = rng.standard_normal(3)
        u, v, w = (rng.standard_normal(6) for _ in range(3))
        assert abs(contracted_nabla_omega(so3, xi, base, u, v, w)
                   + contracted_nabla_omega(so3, xi, base, u, w, v)) <= 1e-13

    def test_symplectic_connection_annihilates(self, so3, rng):
        base = rc.baseline_coefficients(so3)
        for _ in range(10):
            xi = rng.standard_normal(3)
            u, v, w = (rng.standard_normal(6) for _ in range(3))
            gamma = rc.symplectized_coefficients(so3, xi, base)
            assert abs(contracted_nabla_omega(so3, xi, gamma, u, v, w)) <= 1e-12

    def test_gram_derivative_term_against_fd(self, so3, rng):
        # oracle: the fiber-direction derivative of the Gram matrix by
        # central differences; group directions keep the fiber point fixed
        xi = rng.standard_normal(3)
        h = 1e-7
        gamma = rc.baseline_coefficients(so3)
        comps = nabla_omega_components(so3, xi, gamma)
        for aidx in range(6):
            for b in range(6):
                for c in range(6):
                    if aidx < 3:
                        lead = 0.0
                    else:
                        step = np.zeros(3)
                        step[aidx - 3] = h
                        lead = (rc.omega_gram(so3, xi + step)[b, c]
                                - rc.omega_gram(so3, xi - step)[b, c]) / (2 * h)
                    om = rc.omega_gram(so3, xi)
                    expected = lead - gamma[aidx, b] @ om[:, c] - gamma[aidx, c] @ om[b, :]
                    assert abs(comps[aidx, b, c] - expected) <= 1e-8

    @pytest.mark.parametrize("name", ORACLE_ALGEBRAS)
    def test_contraction_matches_the_component_array(self, name, rng):
        # oracle: (∇_u ω)(v, w) = DΩ(u, v, w) − ω(Γ(u, v), w) − ω(v, Γ(u, w)), with ω
        # term by term (``symplectic_form``), against the whole (2n)³ array
        # contracted with u, v and w, for Γ° alone, a symplectized stack, and a
        # random Γ stack (4, …) broadcast against a ξ stack (3, 1, n)
        a = _algebra(name)
        n, m = a.dim, 2 * a.dim
        base = rc.baseline_coefficients(a)
        xi = rng.standard_normal((4, n))
        for xi, gamma in ((xi, base), (xi, rc.symplectized_coefficients(a, xi, base)),
                          (rng.standard_normal((3, 1, n)), base + rng.standard_normal((4, m, m, m)))):
            shape = np.broadcast_shapes(xi.shape[:-1], gamma.shape[:-3])
            u, v, w = rng.standard_normal((3,) + shape + (m,))
            ref = contracted_nabla_omega(a, xi, gamma, u, v, w)
            gamma_u = np.einsum("...abc,...a->...bc", gamma, u)  # Γ(u, x) = x·gamma_u
            got = (np.einsum("abc,...a,...b,...c->...", a._omega_derivative, u, v, w)
                   - rc.symplectic_form(a, xi, np.einsum("...b,...bc->...c", v, gamma_u), w)
                   - rc.symplectic_form(a, xi, v, np.einsum("...b,...bc->...c", w, gamma_u)))
            assert ref.shape == shape
            assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))

    @staticmethod
    def _unsymmetric(name, rng):
        # a non-symmetric Γ: its two contractions with Ω differ
        a = rc.so3() if name == "so3" else rc.algebra_from_json(perfbench_cases().so_n_group(4))
        return a, rc.baseline_coefficients(a) + rng.standard_normal((2 * a.dim,) * 3)

    @pytest.mark.parametrize("name", ["so3", "so4"])
    def test_components_match_einsum_reference(self, name, rng):
        a, gamma = self._unsymmetric(name, rng)
        for _ in range(3):
            xi = rng.standard_normal(a.dim)
            om = rc.omega_gram(a, xi)
            expected = (a._omega_derivative - np.einsum("abd,dc->abc", gamma, om)
                        - np.einsum("acd,bd->abc", gamma, om))
            got = nabla_omega_components(a, xi, gamma)
            assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_components_contract_without_einsum(self, monkeypatch, rng):
        # Γ·Ω and its transpose partner are matrix products, not generic einsum loops
        a, gamma = self._unsymmetric("so4", rng)
        xi = rng.standard_normal(a.dim)
        om = rc.omega_gram(a, xi)
        calls = []
        einsum = np.einsum
        monkeypatch.setattr(np, "einsum", lambda *args, **kw: calls.append(args[0])
                            or einsum(*args, **kw))
        nabla_omega_components(a, xi, gamma, om)
        assert calls == []

    def test_omega_derivative_is_built_once_per_algebra_and_read_only(self, rng):
        a = rc.algebra_from_json(perfbench_cases().so_n_group(4))
        D = a._omega_derivative
        assert D is a._omega_derivative and not D.flags.writeable
        n = a.dim
        assert np.all(D[n:, :n, :n] == -np.moveaxis(a.c, 2, 0))
        assert np.all(D[:n] == 0.0) and np.all(D[n:, n:] == 0.0) and np.all(D[n:, :n, n:] == 0.0)


class TestSymplectize:
    def test_already_symplectic_is_fixed_point(self, so3, rng):
        for _ in range(3):
            xi = rng.standard_normal(3)
            once = rc.symplectized_coefficients(so3, xi, rc.baseline_coefficients(so3))
            twice = rc.symplectized_coefficients(so3, xi, once)
            assert np.max(np.abs(twice - once)) <= 1e-10

    def test_abelian_stays_zero(self, rng):
        a = rc.abelian(3)
        gamma = rc.symplectized_coefficients(a, rng.standard_normal(3), rc.baseline_coefficients(a))
        assert np.max(np.abs(gamma)) == 0.0

    def test_empty_stack_passes_through(self, so3):
        # no fiber point, no coefficients: the closed-form correction takes an empty stack
        base = rc.baseline_coefficients(so3)
        for gamma in (base, np.broadcast_to(base, (0, 6, 6, 6))):
            assert rc.symplectized_coefficients(so3, np.zeros((0, 3)), gamma).shape == (0, 6, 6, 6)

    def test_so3_defects_before_and_after(self, so3, mu_so3, rng):
        base = rc.baseline_coefficients(so3)
        # unprojected defect is 1 at the hand example
        val = contracted_nabla_omega(so3, mu_so3, base, _vec(zero3, e1), _vec(e2, zero3),
                                     _vec(e3, zero3))
        assert abs(abs(val) - 1.0) <= 1e-15
        for _ in range(5):
            xi = rng.standard_normal(3)
            gamma = rc.symplectized_coefficients(so3, xi, base)
            assert rc.nabla_omega_defect(so3, xi, gamma) <= 1e-10
            assert rc.torsion_defect(so3, gamma) <= 1e-10

    def test_correction_is_symmetric(self, rng):
        for name, _ in CATALOG_CASES:
            a = rc.named_algebra(name)
            base = rc.baseline_coefficients(a)
            A = rc.symplectized_coefficients(a, rng.standard_normal(a.dim), base) - base
            assert np.max(np.abs(A - A.transpose(1, 0, 2))) <= 1e-10

    def test_right_invariance_of_output(self, so3, rng):
        base = rc.baseline_coefficients(so3)
        g = rc.group_exp(so3, rng.uniform(-0.8, 0.8, 3))
        for _ in range(3):
            xi = rng.standard_normal(3)
            moved = rc.coadjoint_matrix(np.linalg.inv(g)) @ xi
            pulled = rc.pullback_coefficients(g, rc.symplectized_coefficients(so3, moved, base))
            assert np.max(np.abs(pulled - rc.symplectized_coefficients(so3, xi, base))) <= 1e-9

    def test_pullback_matches_direct_contraction(self, so3, rng):
        # reference: the single-loop contraction over all four indices, on a
        # connection that is not invariant, so the transport really moves it
        gamma = rc.baseline_coefficients(so3) + rng.standard_normal((6, 6, 6))
        g = rc.group_exp(so3, rng.uniform(-0.8, 0.8, 3))
        T, T_inv = frame_transport(np.linalg.inv(g)), frame_transport(g)
        ref = np.einsum("Aa,Bb,cC,ABC->abc", T, T, T_inv, gamma, optimize=False)
        out = rc.pullback_coefficients(g, gamma)
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n,stack", [(3, ()), (6, ()), (6, (3,))],
                             ids=["2n=6", "2n=12", "2n=12-stack"])
    def test_pullback_keeps_the_optimizers_pairwise_order(self, n, stack, rng):
        # one tensordot per factor, in the order np.einsum(optimize=True) picks,
        # gives its bits: the order sets the roundoff of every averaged Γ
        g = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        gamma = rng.standard_normal(stack + (2 * n,) * 3)
        T, T_inv = frame_transport(np.linalg.inv(g)), frame_transport(g)
        ref = np.einsum("Aa,Bb,cC,...ABC->...abc", T, T, T_inv, gamma, optimize=True)
        assert rc.pullback_coefficients(g, gamma).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("name", [name for name, _ in CATALOG_CASES] + ["so5"])
    def test_inverse_route_matches_a_solve(self, name, rng):
        # oracle: np.linalg.solve of Ωᵀ z = r, each right-hand side a column, for
        # the correction A = Γ' − Γ with r = ⅓ (N + N's transpose over (a, b))
        a = _algebra(name)
        m = 2 * a.dim
        xi = rng.standard_normal((4, a.dim))
        gamma = rc.baseline_coefficients(a) + rng.standard_normal((4, m, m, m))
        om = rc.omega_gram(a, xi)
        N = nabla_omega_components(a, xi, gamma, om)
        rhs = (N + np.swapaxes(N, -3, -2)) / 3.0
        ref = np.linalg.solve(np.swapaxes(om, -1, -2)[:, None], rhs.reshape(4, m * m, m, 1))
        ref = ref.reshape(rhs.shape)
        got = rc.symplectized_coefficients(a, xi, gamma) - gamma
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestTorsion:
    def test_antisymmetric_perturbation_recovered(self, so3, rng):
        # oracle: adding a perturbation with zero symmetric part shifts the
        # torsion components by exactly twice the perturbation
        base = rc.baseline_coefficients(so3)
        raw = rng.standard_normal((6, 6, 6))
        anti = 0.5 * (raw - raw.transpose(1, 0, 2))
        diff = torsion_components(so3, base + anti) - torsion_components(so3, base)
        assert np.max(np.abs(diff - 2.0 * anti)) <= 1e-12


class TestAveraging:
    def test_quadrature_validation(self, so3):
        nodes = oracles.finite_cyclic_rule(so3, e3, 4)
        assert len(nodes) == 4
        with pytest.raises(ValueError):
            oracles.finite_cyclic_rule(so3, e3, 0)

    def test_empty_node_tuple_rejected(self, so3):
        with pytest.raises(ValueError):
            oracles.average_coefficients(rc.baseline_coefficients(so3), ())

    def test_order_six_average_is_the_mean_of_pullbacks(self, so3, rng):
        pert = rc.baseline_coefficients(so3) + symmetrized(rng.standard_normal((6, 6, 6)) * 0.2)
        nodes = oracles.finite_cyclic_rule(so3, e3, 6)
        manual = sum(rc.pullback_coefficients(g, pert) for g in nodes) / 6
        assert np.max(np.abs(oracles.average_coefficients(pert, nodes) - manual)) <= 1e-15

    def test_bi_invariant_baseline_unchanged(self, so3):
        base = rc.baseline_coefficients(so3)
        avg = oracles.average_coefficients(base, oracles.finite_cyclic_rule(so3, e3, 4))
        assert np.max(np.abs(avg - base)) <= 1e-12

    def test_equal_weights_give_arithmetic_mean(self, so3, rng):
        pert = rc.baseline_coefficients(so3) + symmetrized(rng.standard_normal((6, 6, 6)) * 0.2)
        nodes = oracles.finite_cyclic_rule(so3, e3, 4)
        manual = sum(rc.pullback_coefficients(g, pert) for g in nodes) / 4.0
        assert np.max(np.abs(oracles.average_coefficients(pert, nodes) - manual)) <= 1e-13

    def test_average_of_torsion_free_is_torsion_free(self, so3, rng):
        pert = rc.baseline_coefficients(so3) + symmetrized(rng.standard_normal((6, 6, 6)) * 0.3)
        assert rc.torsion_defect(so3, pert) <= 1e-13
        avg = oracles.average_coefficients(pert, oracles.finite_cyclic_rule(so3, e3, 4))
        assert rc.torsion_defect(so3, avg) <= 1e-10

    def test_fixed_by_subgroup_nodes(self, so3, rng):
        pert = rc.baseline_coefficients(so3) + symmetrized(rng.standard_normal((6, 6, 6)) * 0.3)
        nodes = oracles.finite_cyclic_rule(so3, e3, 4)
        avg = oracles.average_coefficients(pert, nodes)
        for g in nodes:
            # the mean of a ξ-independent Γ is ξ-independent, so its Γ at the moved
            # fiber points is avg itself
            assert np.max(np.abs(rc.pullback_coefficients(g, avg) - avg)) <= 1e-10

    # the mean over the 4-node rule about e₃ of the baseline plus a symmetrized δ
    # at three fiber points, on the algebras whose brackets make that rule a subgroup;
    # test_controls.py holds each check's control

    @pytest.mark.parametrize("name", ["so3", "su2"])
    def test_averaged_baseline_is_torsion_free(self, name):
        a = rc.named_algebra(name)
        torsion, _ = averaging_defects(a, symmetrized(averaging_delta(a)), averaging_rule(a))
        assert torsion <= AVERAGING_BOUND

    @pytest.mark.parametrize("name", ["so3", "su2"])
    def test_averaged_baseline_is_fixed_by_every_node(self, name):
        a = rc.named_algebra(name)
        _, fixed = averaging_defects(a, symmetrized(averaging_delta(a)), averaging_rule(a))
        assert fixed <= AVERAGING_BOUND


class TestFrameStructure:
    def test_group_block_is_bracket(self, so3):
        C = frame_structure(so3)
        assert np.all(C[:3, :3, :3] == so3.c)
        assert np.all(C[3:, :, :] == 0.0)
        assert np.all(C[:, 3:, :] == 0.0)


class TestExport:
    def test_json_roundtrip(self, so3, rng):
        xis = rng.standard_normal((2, 3))
        gammas = rc.symplectized_coefficients(so3, xis, rc.baseline_coefficients(so3))
        doc = rc.connection_to_json(so3, xis, gammas, EXPORT_CLAIMS["symplectic"])
        text = json.dumps(doc)
        back = json.loads(text)
        assert back["dim"] == 3
        assert back["label"] == "symplectized(baseline)" and back["is_symplectic"]
        assert len(back["frame"]) == 6
        assert len(back["evaluations"]) == 2
        gamma = np.asarray(back["evaluations"][0]["gamma"])
        assert gamma.shape == (6, 6, 6)
        single = rc.symplectized_coefficients(so3, xis[0], rc.baseline_coefficients(so3))
        assert np.max(np.abs(gamma - single)) <= 1e-15
