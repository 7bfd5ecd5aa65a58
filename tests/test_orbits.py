import numpy as np
import pytest
import scipy.linalg

import redconn as rc
from redconn import linalg
from redconn.errors import NotTangent, RankLoss
from redconn.orbits import kks_pairs
from redconn.pipeline import CaseConfig
from tests import oracles
from tests.conftest import CATALOG_CASES, perfbench_cases
from tests.test_liealg import _realized_exp

e1, e2, e3 = np.eye(3)


class TestOrbitChart:
    def test_center_maps_to_mu(self, so3_ctx, so3_chart, mu_so3):
        assert np.max(np.abs(oracles.nu(so3_chart, np.zeros(2)) - mu_so3)) <= 1e-12

    @pytest.mark.parametrize("scale", [1e-3, 0.3, 1.0, -7.0])
    def test_center_is_mu_bit_for_bit(self, scale):
        # e⁰ is I exactly (the Padé approximant of 0), so ν(0) = μ bit for bit on
        # the catalog's, so(4)'s and so(5)'s charts, and the chart needs no check
        # of it (μ's zero entries are +0, as perfbench's cases write them: a −0
        # entry reads +0 at ν(0), equal in value)
        cases = perfbench_cases()
        docs = [{"group": name, "mu": mu} for name, mu in CATALOG_CASES] + [
            {"group": cases.so_n_group(n), "mu": cases.so_n_mu(n, weights)}
            for _, n, weights, _, _ in cases.SO4_CASES + cases.SO5_CASES]
        for doc in docs:
            cfg = CaseConfig.from_dict(doc)
            a, mu = cfg.algebra(), np.array([scale * x if x else 0.0 for x in doc["mu"]])
            chart = rc.default_chart(rc.build_context(a, mu))
            assert chart.dim and oracles.nu(chart, np.zeros(chart.dim)).tobytes() == mu.tobytes()

    def test_so3_orbit_is_unit_sphere(self, so3_chart, rng):
        for _ in range(10):
            t = rng.uniform(-0.9, 0.9, 2)
            assert abs(np.linalg.norm(oracles.nu(so3_chart, t)) - 1.0) <= 1e-10

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
            D = oracles.dnu(so3_chart, t)
            for a in range(2):
                step = np.eye(2)[a] * h
                fd = (oracles.nu(so3_chart, t + step) - oracles.nu(so3_chart, t - step)) / (2 * h)
                assert np.max(np.abs(fd - D[:, a])) <= 1e-8

    @pytest.mark.parametrize("name,mu", CATALOG_CASES, ids=[n for n, _ in CATALOG_CASES])
    def test_section_vectors_match_finite_differences(self, name, mu, rng):
        # oracle: left-trivialized velocity of s -> exp(A(t + s e_a)) by
        # numerically differentiating the realization matrix itself
        a = rc.named_algebra(name)
        chart = rc.default_chart(rc.build_context(a, np.asarray(mu)))
        h = 1e-6
        t = rng.uniform(-0.4, 0.4, chart.dim)
        vecs = chart.lift_data(t)[1][0]
        g = _realized_exp(a, chart.m_basis @ t)
        for i in range(chart.dim):
            step = np.eye(chart.dim)[i] * h
            dmat = (_realized_exp(a, chart.m_basis @ (t + step))
                    - _realized_exp(a, chart.m_basis @ (t - step))) / (2 * h)
            fd = oracles.matrix_coords(a, np.linalg.solve(g, dmat))
            assert np.max(np.abs(fd - vecs[:, i])) <= 1e-8

    def test_section_lands_on_level_set(self, so3, so3_chart, rng):
        # the section pairs exp(t·E) with the fixed level mu by construction;
        # its element is a rotation in the realization and in Ad
        t = rng.uniform(-0.5, 0.5, 2)
        g = _realized_exp(so3, so3_chart.m_basis @ t)
        for M in (g, oracles.section_element(so3_chart, t)):
            assert abs(np.linalg.det(M) - 1.0) <= 1e-9
            assert np.max(np.abs(M.T @ M - np.eye(3))) <= 1e-9

    @pytest.mark.parametrize("case", ["so3", "so4-regular", "so5-regular"])
    def test_coords_roundtrip(self, case):
        # on so3 and at the orbit dimensions the benchmark serves: so(4) and
        # so(5) regular (km = 4 and 8), at perfbench/cases.py's μ
        cases = perfbench_cases()
        doc = next(({"group": cases.so_n_group(n), "mu": cases.so_n_mu(n, weights)}
                    for label, n, weights, _, _ in cases.SO4_CASES + cases.SO5_CASES
                    if label == case), {"group": "so3", "mu": [0.0, 0.0, 1.0]})
        cfg = CaseConfig.from_dict(doc)
        chart = rc.default_chart(rc.build_context(cfg.algebra(), np.asarray(doc["mu"])))
        rng = np.random.default_rng(3)
        for _ in range(5):
            t = rng.uniform(-0.5, 0.5, chart.dim)
            back = oracles.coords(chart, oracles.nu(chart, t), t0=t + 0.05)
            assert np.max(np.abs(oracles.nu(chart, back) - oracles.nu(chart, t))) <= 1e-11

    def test_full_rank_within_radius(self, so3_chart, rng):
        for _ in range(5):
            assert linalg.rank(oracles.dnu(so3_chart, rng.uniform(-0.9, 0.9, 2))) == so3_chart.dim

    def test_degenerate_complement_raises(self, so3, mu_so3):
        # e3 spans the stabilizer of μ = e3, so its tangent −K(μ)ᵀe3 is 0
        with pytest.raises(RankLoss, match=r"chart differential lost rank at t = \[0.0, 0.0\]"):
            rc.orbit_chart(so3, mu_so3, np.eye(3)[:, [0, 2]])

    def test_exp_data_of_no_points(self, so3_chart):
        # an empty stack of chart points gives every field with no rows
        coad, vecs, D, d_vecs = so3_chart.exp_data(np.zeros((0, 2)))
        assert coad.shape == (0, 3, 3) and vecs.shape == D.shape == (0, 3, 2)
        assert d_vecs.shape == (0, 2, 3, 2)


def _exponential_cases() -> list:
    """(label, chart): the catalog's charts, so(4) regular and singular and so(5) regular."""
    cases = perfbench_cases()
    out = [(name, rc.default_chart(rc.build_context(rc.named_algebra(name), np.asarray(mu))))
           for name, mu in CATALOG_CASES if name != "su2"]
    for label, n, weights, _, _ in cases.SO4_CASES + cases.SO5_CASES[:1]:
        cfg = CaseConfig.from_dict({"group": cases.so_n_group(n), "mu": cases.so_n_mu(n, weights)})
        out.append((label, rc.default_chart(rc.build_context(cfg.algebra(), np.asarray(cfg.mu)))))
    return out


EXPONENTIAL_CASES = _exponential_cases()


def _van_loan_exp_data(chart, t) -> tuple:
    """``OrbitChart.exp_data`` at one t from one 3n×3n Van Loan block per chart
    direction c, expm([[−ad A, −ad E_c, 0], [0, −ad A, I], [0, 0, 0]]) (Van Loan,
    IEEE Trans. Automat. Control 23 (1978)): blocks (1, 1) and (2, 3) are
    Coad(exp A)ᵀ and φ₁(−ad A), block (1, 3) the derivative of φ₁(−ad A) along E_c."""
    a, n, m = chart.algebra, chart.algebra.dim, chart.m_basis
    block = np.zeros((chart.dim, 3 * n, 3 * n))
    block[:, :n, :n] = block[:, n:2 * n, n:2 * n] = -a.ad(m @ t)
    block[:, :n, n:2 * n] = -np.einsum("ijk,ic->ckj", a.c, m)
    block[:, n:2 * n, 2 * n:] = np.eye(n)
    E = np.array([scipy.linalg.expm(b) for b in block])
    coad, vecs = E[0, :n, :n].T, E[0, n:2 * n, 2 * n:] @ m
    return coad, vecs, -coad @ (a.bracket_pairing(chart.mu).T @ vecs), E[:, :n, 2 * n:] @ m


class TestChartExponential:
    """``exp_data`` takes e^B and its Fréchet derivatives for B = [[−ad A, I], [0, 0]]:
    it must give the Van Loan blocks' values, and scipy's Fréchet derivatives."""

    @pytest.mark.parametrize("label,chart", EXPONENTIAL_CASES,
                             ids=[c for c, _ in EXPONENTIAL_CASES])
    def test_matches_van_loan_and_scipy_frechet(self, label, chart, rng, monkeypatch):
        a, n, m = chart.algebra, chart.algebra.dim, chart.m_basis
        direction = rng.uniform(-1, 1, chart.dim)
        ts = np.array([s * direction / np.linalg.norm(direction)
                       for s in (1e-4, 1e-2, 0.1, 0.5, 2.0, 5.0)])
        plans = []
        expm = linalg.expm

        def recorded(A, directions=None):
            if directions is not None:
                plans.extend(linalg._expm_plan(float(np.abs(b).sum(axis=0).max())) for b in A)
            return expm(A, directions=directions)

        monkeypatch.setattr(linalg, "expm", recorded)
        got = chart.exp_data(ts)
        # ‖B‖₁ ≥ 1 (its identity block), so every chart point takes degree 9 or
        # 13 (degrees 3–7 are in test_linalg); on heis3 and se2 ad A stays too
        # small at |t| = 5 for scaling
        assert {mdeg for mdeg, _ in plans} == {9, 13}
        assert max(s for _, s in plans) > 0 or label in ("heis3", "se2")
        for index, t in enumerate(ts):
            for g, want in zip(got, _van_loan_exp_data(chart, t)):
                assert np.linalg.norm(g[index] - want) <= 1e-12 * np.linalg.norm(want)
            B = np.zeros((2 * n, 2 * n))
            B[:n, :n], B[:n, n:] = -a.ad(m @ t), np.eye(n)
            for c in range(chart.dim):
                E = np.zeros((2 * n, 2 * n))
                E[:n, :n] = -a.ad(m[:, c])
                ref = scipy.linalg.expm_frechet(B, E, compute_expm=False)[:n, n:] @ m
                assert np.linalg.norm(got[3][index, c] - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("label,chart", EXPONENTIAL_CASES,
                             ids=[c for c, _ in EXPONENTIAL_CASES])
    def test_lift_data_shares_the_exponentials_bit_for_bit(self, label, chart, rng):
        ts = rng.uniform(-0.4, 0.4, (3, chart.dim))
        for lift, full in zip(chart.lift_data(ts), chart.exp_data(ts)):
            assert lift.tobytes() == full.tobytes()


class TestTangentFrame:
    def test_frame_matches_chart_differential_at_center(self, so3, so3_ctx, so3_chart, mu_so3):
        frame = rc.orbit_tangent_frame(so3, mu_so3, so3_ctx.m)
        D = oracles.dnu(so3_chart, np.zeros(2))
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
            frame = rc.orbit_tangent_frame(so3, oracles.nu(so3_chart, t), so3_ctx.m)
            assert np.linalg.matrix_rank(frame) == 2


class TestKksForm:
    def test_so3_hand_value(self, so3, mu_so3):
        v = so3.coad_star(e1, mu_so3)
        w = so3.coad_star(e2, mu_so3)
        assert abs(oracles.kks_form(so3, mu_so3, v, w) - 1.0) <= 1e-12

    def test_heis3_hand_value(self):
        a = rc.heis3()
        nu = e3.copy()
        v = a.coad_star(e1, nu)
        w = a.coad_star(e2, nu)
        assert abs(oracles.kks_form(a, nu, v, w) - 1.0) <= 1e-12

    def test_equal_arguments_vanish(self, so3, mu_so3, rng):
        v = so3.coad_star(rng.standard_normal(3), mu_so3)
        assert oracles.kks_form(so3, mu_so3, v, v) == 0.0

    def test_independent_of_representative(self, so3, mu_so3, rng):
        # shifting the representative by a stabilizer element changes nothing
        g_mu = rc.stabilizer_algebra(so3, mu_so3)
        X = rng.standard_normal(3)
        Y = rng.standard_normal(3)
        v = so3.coad_star(X, mu_so3)
        w = so3.coad_star(Y, mu_so3)
        base = oracles.kks_form(so3, mu_so3, v, w)
        for s in (-1.0, 0.5, 2.0):
            Xs = X + s * g_mu[:, 0]
            shifted = float(mu_so3 @ so3.bracket(Xs, Y))
            assert abs(shifted - float(mu_so3 @ so3.bracket(X, Y))) <= 1e-10
        assert abs(base - float(mu_so3 @ so3.bracket(X, Y))) <= 1e-10

    def test_nondegenerate_on_orbit_frame(self, so3, so3_ctx, so3_chart, rng):
        for _ in range(3):
            t = rng.uniform(-0.5, 0.5, 2)
            nu = oracles.nu(so3_chart, t)
            frame = rc.orbit_tangent_frame(so3, nu, so3_ctx.m)
            gram = np.array([[oracles.kks_form(so3, nu, frame[:, i], frame[:, j])
                              for j in range(2)] for i in range(2)])
            assert abs(np.linalg.det(gram)) > 1e-6

    def test_not_tangent_rejected(self, so3, mu_so3):
        # e3* direction is normal to the unit sphere at the pole
        with pytest.raises(NotTangent):
            oracles.kks_form(so3, mu_so3, e3, e1)

    def test_tangent_representative_residual(self, so3, mu_so3, rng):
        X = rng.standard_normal(3)
        v = so3.coad_star(X, mu_so3)
        rep = oracles.tangent_representative(so3, mu_so3, v)
        assert np.max(np.abs(so3.coad_star(rep, mu_so3) - v)) <= 1e-10


class TestKksPairs:
    @pytest.fixture(scope="class")
    def so5_point(self):
        """so(5) regular (orbit dimension 8): the algebra, dnu and ν at a chart point t ≠ 0."""
        cases = perfbench_cases()
        _, n, weights, _, _ = cases.SO5_CASES[0]
        a = rc.algebra_from_json(cases.so_n_group(n))
        chart = rc.default_chart(rc.build_context(a, np.array(cases.so_n_mu(n, weights))))
        t = np.linspace(-0.3, 0.2, chart.dim)
        return a, oracles.dnu(chart, t), oracles.nu(chart, t)

    def test_matches_kks_form_per_pair(self, so5_point):
        a, D, nu = so5_point
        km = D.shape[1]
        omega = np.arange(km * km, dtype=float).reshape(km, km)
        expected = [(omega[i, j], oracles.kks_form(a, nu, D[:, i], D[:, j]))
                    for i in range(km) for j in range(i + 1, km)]
        expected = [(red, ref) for red, ref in expected if abs(ref) > 1e-12]
        pairs = kks_pairs(a, D, nu, omega)
        assert km == 8 and len(pairs) == len(expected) > 0
        scale = max(abs(ref) for _, ref in expected)
        for (red, ref), (red_0, ref_0) in zip(pairs, expected):
            assert red == red_0
            assert abs(ref - ref_0) <= 1e-12 * scale

    def test_non_tangent_column_rejected(self, so5_point):
        # ν is normal to the orbit through it: ⟨ν, ν∘ad(X)⟩ = 0 for every X
        a, D, nu = so5_point
        bad = D.copy()
        bad[:, 3] = nu
        with pytest.raises(NotTangent):
            kks_pairs(a, bad, nu, np.zeros((D.shape[1],) * 2))

    def test_one_least_squares_solve(self, so5_point, monkeypatch):
        # the least-squares solve is ``tangent_solve``'s pseudo-inverse: one SVD
        a, D, nu = so5_point
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: calls.append(1)
                            or svd(*args, **kw))
        kks_pairs(a, D, nu, np.zeros((D.shape[1],) * 2))
        assert len(calls) == 1
