import json

import numpy as np
import pytest

import redconn as rc
from redconn.connections import (baseline_nabla_omega, frame_structure, frame_transport,
                                 nabla_omega_components, solve_omega_gram,
                                 torsion_components)
from redconn.errors import SingularOmega
from tests.conftest import CATALOG_CASES

e1, e2, e3 = np.eye(3)
zero3 = np.zeros(3)


def _vec(X, eta):
    return np.concatenate([np.asarray(X, float), np.asarray(eta, float)])


class TestBaseline:
    def test_so3_half_bracket(self, so3):
        gamma = rc.baseline_connection(so3).coefficients(zero3)
        out = np.einsum("abc,a,b->c", gamma, _vec(e1, zero3), _vec(e2, zero3))
        assert np.allclose(out, _vec(0.5 * e3, zero3))

    def test_abelian_vanishes(self, rng):
        a = rc.abelian(3)
        assert np.all(rc.baseline_connection(a).coefficients(rng.standard_normal(3)) == 0.0)

    def test_no_fiber_output(self, so3, rng):
        gamma = rc.baseline_connection(so3).coefficients(rng.standard_normal(3))
        assert np.all(gamma[:, :, 3:] == 0.0)
        assert np.all(gamma[3:, :, :] == 0.0)
        assert np.all(gamma[:, 3:, :] == 0.0)

    def test_constant_in_fiber_point(self, so3, rng):
        conn = rc.baseline_connection(so3)
        g0 = conn.coefficients(rng.standard_normal(3))
        g1 = conn.coefficients(rng.standard_normal(3))
        assert np.all(g0 == g1)

    def test_torsion_free_over_catalog(self, rng):
        for name, _ in CATALOG_CASES:
            a = rc.named_algebra(name)
            conn = rc.baseline_connection(a)
            assert rc.torsion_defect(conn, rng.standard_normal(a.dim)) == 0.0


class TestNablaOmega:
    def test_so3_fiber_direction_example(self, so3, mu_so3):
        conn = rc.baseline_connection(so3)
        # hand value: -<e1*, [e2, e3]> = -1, remaining terms vanish
        val = rc.nabla_omega(conn, mu_so3, _vec(zero3, e1), _vec(e2, zero3), _vec(e3, zero3))
        assert abs(val + 1.0) <= 1e-15

    def test_so3_group_triple_example(self, so3, mu_so3):
        conn = rc.baseline_connection(so3)
        # hand value: (1/2)<e3*, [e1, [e2, e3]]> = (1/2)<e3*, [e1, e1]> = 0
        val = rc.nabla_omega(conn, mu_so3, _vec(e1, zero3), _vec(e2, zero3), _vec(e3, zero3))
        assert abs(val) <= 1e-15

    def test_matches_closed_form_over_catalog(self, rng):
        for name, _ in CATALOG_CASES:
            a = rc.named_algebra(name)
            conn = rc.baseline_connection(a)
            for _ in range(20):
                xi = rng.standard_normal(a.dim)
                u, v, w = (rng.standard_normal(2 * a.dim) for _ in range(3))
                val = rc.nabla_omega(conn, xi, u, v, w)
                assert abs(val - baseline_nabla_omega(a, xi, u, v, w)) <= 1e-12

    def test_antisymmetric_in_last_two_slots(self, so3, rng):
        conn = rc.baseline_connection(so3)
        xi = rng.standard_normal(3)
        u, v, w = (rng.standard_normal(6) for _ in range(3))
        assert abs(rc.nabla_omega(conn, xi, u, v, w)
                   + rc.nabla_omega(conn, xi, u, w, v)) <= 1e-13

    def test_symplectic_connection_annihilates(self, so3, rng):
        conn = rc.symplectize(rc.baseline_connection(so3))
        for _ in range(10):
            xi = rng.standard_normal(3)
            u, v, w = (rng.standard_normal(6) for _ in range(3))
            assert abs(rc.nabla_omega(conn, xi, u, v, w)) <= 1e-12

    def test_gram_derivative_term_against_fd(self, so3, rng):
        # oracle: the fiber-direction derivative of the Gram matrix by
        # central differences; group directions keep the fiber point fixed
        xi = rng.standard_normal(3)
        h = 1e-7
        conn = rc.baseline_connection(so3)
        comps = nabla_omega_components(conn, xi)
        gamma = conn.coefficients(xi)
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


class TestSymplectize:
    def test_already_symplectic_is_fixed_point(self, so3, rng):
        once = rc.symplectize(rc.baseline_connection(so3))
        twice = rc.symplectize(once)
        for _ in range(3):
            xi = rng.standard_normal(3)
            assert np.max(np.abs(twice.coefficients(xi) - once.coefficients(xi))) <= 1e-10

    def test_abelian_stays_zero(self, rng):
        a = rc.abelian(3)
        conn = rc.symplectize(rc.baseline_connection(a))
        assert np.max(np.abs(conn.coefficients(rng.standard_normal(3)))) == 0.0

    def test_so3_defects_before_and_after(self, so3, mu_so3, rng):
        base = rc.baseline_connection(so3)
        sympl = rc.symplectize(base)
        # unprojected defect is 1 at the hand example
        val = rc.nabla_omega(base, mu_so3, _vec(zero3, e1), _vec(e2, zero3), _vec(e3, zero3))
        assert abs(abs(val) - 1.0) <= 1e-15
        for _ in range(5):
            xi = rng.standard_normal(3)
            assert rc.nabla_omega_defect(sympl, xi) <= 1e-10
            assert rc.torsion_defect(sympl, xi) <= 1e-10

    def test_correction_is_symmetric(self, rng):
        for name, _ in CATALOG_CASES:
            a = rc.named_algebra(name)
            base = rc.baseline_connection(a)
            sympl = rc.symplectize(base)
            xi = rng.standard_normal(a.dim)
            A = sympl.coefficients(xi) - base.coefficients(xi)
            assert np.max(np.abs(A - A.transpose(1, 0, 2))) <= 1e-10

    def test_right_invariance_of_output(self, so3, rng):
        sympl = rc.symplectize(rc.baseline_connection(so3))
        g = rc.group_exp(so3, rng.uniform(-0.8, 0.8, 3))
        pulled = rc.pullback_connection(sympl, g)
        for _ in range(3):
            xi = rng.standard_normal(3)
            assert np.max(np.abs(pulled.coefficients(xi) - sympl.coefficients(xi))) <= 1e-9

    def test_pullback_matches_direct_contraction(self, so3, rng):
        # reference: the single-loop contraction over all four indices, on a
        # connection that is not invariant, so the transport really moves it
        delta = rng.standard_normal((6, 6, 6))
        pert = rc.perturbed_connection(rc.baseline_connection(so3), delta, symmetric=False)
        g = rc.group_exp(so3, rng.uniform(-0.8, 0.8, 3))
        T, T_inv = frame_transport(np.linalg.inv(g)), frame_transport(g)
        xi = rng.standard_normal(3)
        ref = np.einsum("Aa,Bb,cC,ABC->abc", T, T, T_inv,
                        pert.coefficients(rc.coadjoint_matrix(np.linalg.inv(g)) @ xi),
                        optimize=False)
        out = rc.pullback_connection(pert, g).coefficients(xi)
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_singular_gram_raises(self):
        om = np.zeros((4, 4))
        om[0, 1], om[1, 0] = 1.0, -1.0  # rank 2 only
        with pytest.raises(SingularOmega):
            solve_omega_gram(om, np.ones((4, 4, 4)))


class TestTorsion:
    def test_baseline_zero_on_vectors(self, so3, rng):
        conn = rc.baseline_connection(so3)
        out = rc.torsion(conn, rng.standard_normal(3),
                         rng.standard_normal(6), rng.standard_normal(6))
        assert np.max(np.abs(out)) == 0.0

    def test_zero_connection_on_abelian(self, rng):
        a = rc.abelian(3)
        conn = rc.FrameConnection(a, lambda xi: np.zeros((6, 6, 6)))
        out = rc.torsion(conn, rng.standard_normal(3),
                         rng.standard_normal(6), rng.standard_normal(6))
        assert np.max(np.abs(out)) == 0.0

    def test_antisymmetric_perturbation_recovered(self, so3, rng):
        # oracle: adding a perturbation with zero symmetric part shifts the
        # torsion components by exactly twice the perturbation
        base = rc.baseline_connection(so3)
        raw = rng.standard_normal((6, 6, 6))
        anti = 0.5 * (raw - raw.transpose(1, 0, 2))
        pert = rc.perturbed_connection(base, anti, symmetric=False)
        xi = rng.standard_normal(3)
        diff = torsion_components(pert, xi) - torsion_components(base, xi)
        assert np.max(np.abs(diff - 2.0 * anti)) <= 1e-12


class TestAveraging:
    def test_quadrature_validation(self, so3):
        rule = rc.finite_cyclic_rule(so3, e3, 4)
        assert len(rule.nodes) == 4
        assert abs(float(np.sum(rule.weights)) - 1.0) <= 1e-12
        with pytest.raises(ValueError):
            rc.QuadratureRule((np.eye(3),), np.array([0.5])).validate()

    def test_bi_invariant_baseline_unchanged(self, so3, rng):
        base = rc.baseline_connection(so3)
        rule = rc.finite_cyclic_rule(so3, e3, 4)
        avg = rc.average_connection(base, rule)
        for _ in range(3):
            xi = rng.standard_normal(3)
            assert np.max(np.abs(avg.coefficients(xi) - base.coefficients(xi))) <= 1e-12

    def test_equal_weights_give_arithmetic_mean(self, so3, rng):
        delta = rng.standard_normal((6, 6, 6)) * 0.2
        pert = rc.perturbed_connection(rc.baseline_connection(so3), delta)
        rule = rc.finite_cyclic_rule(so3, e3, 4)
        avg = rc.average_connection(pert, rule)
        xi = rng.standard_normal(3)
        manual = sum(rc.pullback_connection(pert, g).coefficients(xi)
                     for g in rule.nodes) / 4.0
        assert np.max(np.abs(avg.coefficients(xi) - manual)) <= 1e-13

    def test_average_of_torsion_free_is_torsion_free(self, so3, rng):
        delta = rng.standard_normal((6, 6, 6)) * 0.3
        pert = rc.perturbed_connection(rc.baseline_connection(so3), delta, symmetric=True)
        assert rc.torsion_defect(pert, np.zeros(3)) <= 1e-13
        avg = rc.average_connection(pert, rc.finite_cyclic_rule(so3, e3, 4))
        for _ in range(3):
            assert rc.torsion_defect(avg, rng.standard_normal(3)) <= 1e-10

    def test_fixed_by_subgroup_nodes(self, so3, rng):
        delta = rng.standard_normal((6, 6, 6)) * 0.3
        pert = rc.perturbed_connection(rc.baseline_connection(so3), delta, symmetric=True)
        rule = rc.finite_cyclic_rule(so3, e3, 4)
        avg = rc.average_connection(pert, rule)
        for g in rule.nodes:
            pulled = rc.pullback_connection(avg, g)
            for _ in range(2):
                xi = rng.standard_normal(3)
                assert np.max(np.abs(pulled.coefficients(xi)
                                     - avg.coefficients(xi))) <= 1e-10

    def test_torus_rule_normalization(self, so3):
        rule = rc.torus_rule(so3, [e3], 6)
        assert len(rule.nodes) == 6
        assert abs(float(np.sum(rule.weights)) - 1.0) <= 1e-12
        avg = rc.average_connection(rc.baseline_connection(so3), rule)
        assert np.max(np.abs(avg.coefficients(zero3)
                             - rc.baseline_connection(so3).coefficients(zero3))) <= 1e-12


class TestFrameStructure:
    def test_group_block_is_bracket(self, so3):
        C = frame_structure(so3)
        assert np.all(C[:3, :3, :3] == so3.c)
        assert np.all(C[3:, :, :] == 0.0)
        assert np.all(C[:, 3:, :] == 0.0)


class TestExport:
    def test_json_roundtrip(self, so3, rng):
        conn = rc.symplectize(rc.baseline_connection(so3))
        xi_list = [rng.standard_normal(3) for _ in range(2)]
        doc = rc.connection_to_json(conn, xi_list)
        text = json.dumps(doc)
        back = json.loads(text)
        assert back["dim"] == 3
        assert len(back["frame"]) == 6
        assert len(back["evaluations"]) == 2
        gamma = np.asarray(back["evaluations"][0]["gamma"])
        assert gamma.shape == (6, 6, 6)
        assert np.max(np.abs(gamma - conn.coefficients(xi_list[0]))) <= 1e-15
