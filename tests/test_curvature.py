import numpy as np
import pytest

import redconn as rc
from redconn.curvature import (convergence_factor, curvature_battery, curvature_exact,
                               curvature_routes)
from redconn import curvature, linalg, orbits, pipeline, reduction
from redconn.errors import RankLoss, ZeroDimensionalBase
from redconn.pipeline import THRESHOLDS, CaseConfig, run_pipeline
from redconn.reduction import SigmaGeometry
from tests import oracles
from tests.conftest import (CATALOG_CASES, count_builds, perfbench_cases, pushdown, run_battery,
                            stencil, symmetrized, track_geometries)
from tests.test_compare_reports import compare_reports
from tests.test_liealg import _so4


def _chart_components(chart, t, v):
    D = oracles.dnu(chart, t)
    coords, *_ = np.linalg.lstsq(D, v, rcond=None)
    assert np.linalg.norm(D @ coords - v) <= 1e-8 * max(1.0, np.linalg.norm(v))
    return coords


def _ricci(chart, t, tensor):
    """r[b, l] = tr(Z ↦ R(Z, f_b)f_l) from the chart components of the tensor."""
    km = chart.dim
    comps = np.array([[[_chart_components(chart, t, tensor[a, b, l]) for l in range(km)]
                       for b in range(km)] for a in range(km)])
    return np.einsum("abla->bl", comps)


@pytest.fixture(scope="module")
def so3_setup():
    a = rc.so3()
    mu = np.array([0.0, 0.0, 1.0])
    ctx = rc.build_context(a, mu)
    chart = rc.default_chart(ctx)
    return a, ctx, chart


class TestFlatCases:
    def test_zero_connection_on_flat_synthetic_case(self):
        # the heis3 level set has constant horizontal lifts, so the reduced
        # derivative of the zero connection vanishes identically
        a = rc.heis3()
        mu = np.array([0.0, 0.0, 1.0])
        ctx = rc.build_context(a, mu, gamma_mu=np.zeros((6, 6, 6)))
        chart = rc.default_chart(ctx)
        out = curvature_routes(SigmaGeometry(ctx, chart), np.array([0.2, -0.1]))[1][0, 1, 0]
        assert np.max(np.abs(out)) <= 1e-6

    def test_heis3_reduction_is_flat(self, heis3_ctx):
        chart = rc.default_chart(heis3_ctx)
        geom = SigmaGeometry(heis3_ctx, chart)
        t = np.array([0.3, 0.2])
        for out in curvature_routes(geom, t):
            assert np.max(np.abs(out[0, 1, 1])) <= 1e-6

    def test_zero_dimensional_base_rejected(self, rng):
        a = rc.abelian(2)
        mu = rng.standard_normal(2)
        ctx = rc.build_context(a, mu)
        chart = rc.orbit_chart(a, mu, ctx.m)
        with pytest.raises(ZeroDimensionalBase):
            curvature_routes(SigmaGeometry(ctx, chart), np.zeros(0))


class TestFlagship:
    def test_formula_matches_oracle(self, so3_setup, rng):
        _, ctx, chart = so3_setup
        pts = [np.zeros(2)] + [rng.uniform(-0.4, 0.4, 2) for _ in range(2)]
        battery = run_battery(SigmaGeometry(ctx, chart), pts)
        assert battery["samples"], "no samples generated"
        assert battery["max_discrepancy"] <= 1e-4

    def test_coordinate_vector_fields_commute(self, so3_setup):
        # the chart-space bracket of coordinate fields vanishes, so the
        # tensor route has no bracket term
        _, ctx, chart = so3_setup
        fields = [lambda t, c=c: c for c in np.eye(chart.dim)]  # constant components
        t = np.array([0.1, -0.2])
        h = 1e-5
        xc = fields[0](t)
        br = np.zeros(2)
        for b in range(2):
            e_b = np.eye(2)[b] * h
            dy = (fields[1](t + e_b) - fields[1](t - e_b)) / (2 * h)
            br += xc[b] * dy
        assert np.max(np.abs(br)) == 0.0

    @pytest.mark.parametrize("name,mu", [("so3", [0.0, 0.0, 1.0]),
                                         ("so4", [1.0, 0.0, 0.0, 0.0, 0.0, 2.0])])
    def test_tensorial_under_change_of_section(self, name, mu):
        # a second chart on m + g_mu·B has the same dν(0) but other coordinate
        # fields, whose reduced derivatives at 0 differ; the curvature at 0 is
        # a tensor in its arguments, so neither route may see the change
        a = _so4() if name == "so4" else rc.named_algebra(name)
        ctx = rc.build_context(a, np.asarray(mu))
        B = np.random.default_rng(5).standard_normal((ctx.stabilizer_dim, ctx.base_dim))
        charts = [rc.default_chart(ctx), rc.orbit_chart(a, ctx.mu, ctx.m + ctx.split.g_mu @ B)]
        geoms = [SigmaGeometry(ctx, chart) for chart in charts]
        t = np.zeros(charts[0].dim)
        assert np.max(np.abs(oracles.dnu(charts[0], t) - oracles.dnu(charts[1], t))) <= 1e-12
        covs = [geom.kernels(t, geom.identity).cov[0] for geom in geoms]
        assert np.max(np.abs(covs[0] - covs[1])) > 0.1
        for first, second in zip(*(curvature_routes(geom, t) for geom in geoms)):
            scale = max(1.0, float(np.max(np.linalg.norm(first, axis=-1))))
            gap = float(np.max(np.linalg.norm(first - second, axis=-1)))
            assert gap <= THRESHOLDS["curvature_agreement"] * scale

    def test_group_invariance_through_chart(self, so3_setup, rng):
        # transport the evaluation point and inputs by a coadjoint motion and
        # compare the transported curvature value; the transported inputs are
        # the pushforwards of the chart coordinate fields, contracted with the
        # tensor at the moved point through their chart components
        a, ctx, chart = so3_setup
        t = np.array([0.1, 0.05])
        geom = SigmaGeometry(ctx, chart)
        base = curvature_routes(geom, t)[1][0, 1, 1]
        g = rc.group_exp(a, 0.15 * rng.standard_normal(3))
        C = rc.coadjoint_matrix(g)
        C_inv = rc.coadjoint_matrix(np.linalg.inv(g))
        t2 = oracles.coords(chart, C @ oracles.nu(chart, t), t0=t)
        t_pre = oracles.coords(chart, C_inv @ oracles.nu(chart, t2), t0=t)
        moved = [_chart_components(chart, t2, C @ oracles.dnu(chart, t_pre)[:, a_idx])
                 for a_idx in range(2)]
        val = np.einsum("i,j,l,ijln->n", moved[0], moved[1], moved[1],
                        curvature_routes(geom, t2)[1])
        assert np.max(np.abs(val - C @ base)) <= 1e-6

    def test_su2_matches_so3(self, so3_setup):
        # isomorphic bracket tables through independent realizations must
        # produce the same reduced curvature in chart components
        _, ctx3, chart3 = so3_setup
        a2 = rc.su2()
        mu = np.array([0.0, 0.0, 1.0])
        ctx2 = rc.build_context(a2, mu)
        chart2 = rc.default_chart(ctx2)
        t = np.array([0.2, -0.1])
        r3 = curvature_routes(SigmaGeometry(ctx3, chart3), t)[1][0, 1, 1]
        r2 = curvature_routes(SigmaGeometry(ctx2, chart2), t)[1][0, 1, 1]
        v3, v2 = _chart_components(chart3, t, r3), _chart_components(chart2, t, r2)
        assert np.max(np.abs(v3 - v2)) <= 1e-6


class TestTensorRoute:
    @pytest.mark.parametrize("t", [np.zeros(4), np.array([0.12, -0.2, 0.07, 0.15])],
                             ids=["origin", "off-origin"])
    def test_so4_regular_matches_formula_on_every_triple(self, t):
        # so(4) at L01 + 2·L23: a 4-dimensional orbit S² × S²
        ctx = rc.build_context(_so4(), np.array([1.0, 0.0, 0.0, 0.0, 0.0, 2.0]))
        chart = rc.default_chart(ctx)
        geom = SigmaGeometry(ctx, chart)
        formula, tensor = curvature_routes(geom, t)
        assert chart.dim == 4 and formula.shape == tensor.shape
        gap = np.linalg.norm(formula - tensor, axis=-1)
        assert np.all(gap <= THRESHOLDS["curvature_agreement"]
                      * np.maximum(1.0, np.linalg.norm(tensor, axis=-1)))

    def test_direction_subset_is_a_block_of_the_full_tensor(self, so3_setup):
        _, ctx, chart = so3_setup
        geom = SigmaGeometry(ctx, chart)
        t = np.array([0.1, -0.2])
        (full_f, full_t), (block_f, block_t) = (curvature_routes(geom, t, directions=d)
                                                for d in (None, (1, 0)))
        assert np.max(np.abs(block_t - full_t[np.ix_([1, 0], [1, 0])])) <= 1e-13
        assert (block_f == full_f[np.ix_([1, 0], [1, 0])]).all()

    def test_direction_subset_reads_only_its_rows_on_so4(self, monkeypatch):
        # on so(4) regular km = 4, so a block over two directions builds the
        # kernel at t and then, in one batch, the tensor's t ± h·eₓ and the
        # formula's stencil points of its own two directions only
        ctx = rc.build_context(_so4(), np.array([1.0, 0.0, 0.0, 0.0, 0.0, 2.0]))
        chart = rc.default_chart(ctx)
        t = np.array([0.12, -0.2, 0.07, 0.15])
        built = count_builds(monkeypatch)
        full = curvature_routes(SigmaGeometry(ctx, chart), t)[0]
        block = curvature_routes(SigmaGeometry(ctx, chart), t, directions=(2, 0))[0]
        assert (block == full[np.ix_([2, 0], [2, 0])]).all()
        assert built == [1, 2 * 4 + 2 * 4, 1, 2 * 2 + 2 * 2]


class TestCatalogAgreement:
    @pytest.mark.parametrize("name,mu", [
        ("so3", [0, 0, 1]), ("su2", [0, 0, 1]), ("sl2r", [1, 0, 0]),
        ("heis3", [0, 0, 1]), ("se2", [0, 1, 0]),
    ])
    def test_routes_agree_at_default_steps(self, name, mu):
        a = rc.named_algebra(name)
        ctx = rc.build_context(a, np.asarray(mu, float))
        chart = rc.default_chart(ctx)
        battery = run_battery(SigmaGeometry(ctx, chart), [np.array([0.15, -0.1])])
        assert battery["max_discrepancy"] <= 1e-4


class TestSymmetryBattery:
    def test_so3_defects_within_tolerance(self, so3_setup, rng):
        _, ctx, chart = so3_setup
        pts = [np.zeros(2), rng.uniform(-0.3, 0.3, 2)]
        report = run_battery(SigmaGeometry(ctx, chart), pts)["symmetry"]
        assert report["antisymmetry_defect"] <= 1e-4
        assert report["symplectic_defect"] <= 1e-4
        assert report["bianchi_defect"] <= 1e-4

    def test_negative_control_violates_symplectic_valuedness(self, so3_setup):
        # an unprojected torsion-free connection (what the symplectization
        # step would have fixed) must be flagged by the default battery
        a, _, _ = so3_setup
        mu = np.array([0.0, 0.0, 1.0])
        rng = np.random.default_rng(7)
        delta = rng.standard_normal((6, 6, 6)) * 0.5
        raw = rc.baseline_coefficients(a) + symmetrized(delta)
        assert rc.torsion_defect(a, raw) <= 1e-12
        ctx_bad = rc.build_context(a, mu, gamma_mu=raw)
        chart = rc.default_chart(ctx_bad)
        bad = run_battery(SigmaGeometry(ctx_bad, chart),
                          [np.array([0.12, -0.07])])["symmetry"]
        assert bad["symplectic_defect"] > 1e-2
        ctx_good = rc.build_context(a, mu, gamma_mu=rc.symplectized_coefficients(a, mu, raw))
        good = run_battery(SigmaGeometry(ctx_good, chart),
                           [np.array([0.12, -0.07])])["symmetry"]
        assert good["symplectic_defect"] <= 1e-4

    def test_only_the_tensor_route_flags_the_control(self, so3_setup):
        # on the unprojected connection the formula and the exact route agree
        # with each other and are sp-valued; only the chart-Christoffel tensor,
        # the curvature of the reduced connection itself, shows the defect.
        # Reading the battery's defect from another route would pass the control
        a, _, _ = so3_setup
        delta = np.random.default_rng(7).standard_normal((6, 6, 6)) * 0.5
        ctx = rc.build_context(a, np.array([0.0, 0.0, 1.0]),
                               gamma_mu=rc.baseline_coefficients(a) + symmetrized(delta))
        geom = SigmaGeometry(ctx, rc.default_chart(ctx))
        t, e = np.array([0.12, -0.07]), geom.identity
        formula, tensor, exact = (r[0, 1] for r in (*curvature_routes(geom, t),
                                                    curvature_exact(geom, t)))
        assert np.max(np.abs(formula - exact)) <= 1e-8
        assert np.max(np.abs(tensor - formula)) > 0.05
        assert np.max(np.abs(tensor - exact)) > 0.05

        K = geom.kernels(t, e)

        def symplectic_defect(rows):  # max |ω(R f_l, f_w) − ω(R f_w, f_l)|
            form = geom.form_table(geom.lift(K, rows), K.lifts[0])
            return float(np.max(np.abs(form - form.T)))

        assert symplectic_defect(tensor) > 0.05
        assert symplectic_defect(formula) <= 1e-8
        assert symplectic_defect(exact) <= 1e-12

    def test_one_lift_per_point_on_so4(self, monkeypatch):
        # the symplectic-valuedness defect lifts the tensor rows of every pair
        # i < j (6 pairs of 4 rows on so(4) regular) at every point with one
        # stacked solve
        ctx = rc.build_context(_so4(), np.array([1.0, 0.0, 0.0, 0.0, 0.0, 2.0]))
        geom = SigmaGeometry(ctx, rc.default_chart(ctx))
        calls = []
        lift = SigmaGeometry.lift

        def counted(self, K, v):
            calls.append(np.shape(v))
            return lift(self, K, v)

        monkeypatch.setattr(SigmaGeometry, "lift", counted)
        run_battery(geom, [np.array([0.12, -0.2, 0.07, 0.15]), np.zeros(4)])
        assert calls == [(2, 6 * 4, 6)]

    @pytest.mark.parametrize("name,mu", [("so3", [0.0, 0.0, 1.0]), ("sl2r", [1.0, 0.0, 0.0]),
                                         ("so4", [1.0, 0.0, 0.0, 0.0, 0.0, 2.0])])
    @pytest.mark.parametrize("offset", [0.0, 1.0], ids=["origin", "off-origin"])
    def test_ricci_is_symmetric(self, name, mu, offset):
        # a torsion-free symplectic connection has a symmetric Ricci tensor
        # (Bieliavsky–Cahen–Gutt–Rawnsley–Schwachhöfer, IJGMMP 3 (2006), §2)
        a = _so4() if name == "so4" else rc.named_algebra(name)
        ctx = rc.build_context(a, np.asarray(mu))
        chart = rc.default_chart(ctx)
        t = offset * np.array([0.12, -0.2, 0.07, 0.15])[: chart.dim]
        r = _ricci(chart, t, curvature_routes(SigmaGeometry(ctx, chart), t)[1])
        assert np.max(np.abs(r - r.T)) <= 1e-4 * max(1.0, float(np.max(np.abs(r))))

    def test_negative_control_breaks_ricci_symmetry(self, so3_setup):
        # the unprojected connection's curvature is not sp-valued, so its Ricci
        # tensor picks up the antisymmetric part −tr R(X, Y)
        a, _, _ = so3_setup
        mu = np.array([0.0, 0.0, 1.0])
        delta = np.random.default_rng(7).standard_normal((6, 6, 6)) * 0.5
        raw = rc.baseline_coefficients(a) + symmetrized(delta)
        t = np.array([0.12, -0.07])
        asym = []
        for gamma in (raw, rc.symplectized_coefficients(a, mu, raw)):
            ctx = rc.build_context(a, mu, gamma_mu=gamma)
            chart = rc.default_chart(ctx)
            r = _ricci(chart, t, curvature_routes(SigmaGeometry(ctx, chart), t)[1])
            asym.append(float(np.max(np.abs(r - r.T))))
        assert asym[0] > 1e-3
        assert asym[1] <= 1e-4


def _formula_every_stencil(geom, t, fd_step, fd_step2):
    """The lift-expansion formula with every first derivative a central
    difference of step fd_step: the level-set tables (at t and at each outer
    stencil point), the bracket, and the derivatives along the bracket and its
    radical part.  The reference for the exact derivatives of
    ``curvature_routes``' formula, to the error of its nested stencils."""
    ctx, e, km = geom.ctx, geom.identity, geom.chart.dim
    hproj = ctx.horizontal_part
    K = geom.kernels(t, e)
    u = K.lifts[0]

    def lifts(ts, fibers):
        return geom.kernels(ts, fibers).lifts

    def inner(t2, fib, frames, v):  # [l] = the derivative of f̄_l along v, by a stencil
        return stencil(geom, t2, fib, v, fd_step, frames, lifts)

    def grads_at(t2, fib):
        P = geom.kernels(t2, fib)
        w = P.lifts[0]
        level = np.array([geom._induced(w[j], w, inner(t2, fib, P.F, w[j])) for j in range(km)])
        return np.stack([level, ctx.alpha_star(level)], axis=2)

    def grads(ts, fibers):
        return np.array([grads_at(t2, fib) for t2, fib in zip(ts, fibers)])

    base = grads_at(t, e)
    outer = [geom._induced(u[x], base, stencil(geom, t, e, u[x], fd_step2, K.F, grads))
             for x in range(km)]
    d = [inner(t, e, K.F, u[x]) for x in range(km)]
    out = np.zeros((km, km, km, geom.n))
    for i in range(km):
        for j in range(km):
            if i == j:
                continue
            bracket = d[i][j] - d[j][i] + np.einsum("abc,a,b->c", geom.struct, u[i], u[j])
            radical = ctx.alpha_star(bracket)
            term3 = geom._induced(bracket, u, inner(t, e, K.F, bracket))
            t5 = geom._induced(radical, u, inner(t, e, K.F, radical))
            r_amb = (outer[i][j, :, 0] - outer[j][i, :, 0]) - term3
            r_bar = (hproj(r_amb) - hproj(outer[i][j, :, 1]) + hproj(outer[j][i, :, 1])
                     + hproj(t5))
            out[i, j] = pushdown(geom, K.coad[0], r_bar)
    return out


def _exact_cases() -> list:
    """(label, algebra, μ): the catalog, and so(4) and so(5) regular and singular."""
    cases = perfbench_cases()
    return ([(name, rc.named_algebra(name), np.array(mu)) for name, mu in CATALOG_CASES]
            + [(label, rc.algebra_from_json(cases.so_n_group(n)), np.array(cases.so_n_mu(n, w)))
               for label, n, w, _, _ in cases.SO4_CASES + cases.SO5_CASES])


EXACT_CASES = _exact_cases()
# the orbits with [m, m] ⊂ g_μ, where R(f_i, f_j)f_l = −([[E_i, E_j], E_l])♯ at μ
SYMMETRIC = ("so3", "su2", "sl2r", "heis3", "se2", "so4-regular", "so4-singular",
             "so5-singular")


def _geometry(a, mu) -> SigmaGeometry:
    ctx = rc.build_context(a, mu)
    return SigmaGeometry(ctx, rc.default_chart(ctx))


class TestExactCurvature:
    @pytest.mark.parametrize("label,a,mu", EXACT_CASES, ids=[c[0] for c in EXACT_CASES])
    def test_matches_the_tensor_route(self, label, a, mu):
        # the tensor route's finite-difference error at fd_step2 = 1e-4 is about
        # 4e-9 relative; the exact value carries roundoff only
        geom = _geometry(a, mu)
        km = geom.chart.dim
        for t in (np.zeros(km), np.random.default_rng(5).uniform(-0.3, 0.3, km)):
            exact, tensor = curvature_exact(geom, t), curvature_routes(geom, t)[1]
            assert exact.shape == tensor.shape == (km, km, km, a.dim)
            scale = max(1.0, float(np.max(np.abs(tensor))))
            assert np.max(np.abs(exact - tensor)) <= 1e-7 * scale, label

    @pytest.mark.parametrize("label,a,mu", EXACT_CASES, ids=[c[0] for c in EXACT_CASES])
    def test_symmetric_orbits_read_the_closed_form(self, label, a, mu):
        # on a symmetric orbit the canonical connection's curvature at μ is
        # −([[E_i, E_j], E_l])♯ with X♯ = −K(μ)ᵀX; so(5) regular is not
        # symmetric and reads O(1) against it (0.89 relative)
        geom = _geometry(a, mu)
        m = geom.chart.m_basis
        nested = np.einsum("abx,ai,bj,xyz,yl->ijlz", a.c, m, m, a.c, m)
        closed = nested @ a.bracket_pairing(mu)  # K(μ)ᵀ[[E_i, E_j], E_l]
        exact = curvature_exact(geom, np.zeros(geom.chart.dim))
        gap = float(np.max(np.abs(exact - closed))) / max(1.0, float(np.max(np.abs(exact))))
        if label in SYMMETRIC:
            assert gap <= 1e-12
        else:
            assert label == "so5-regular" and gap >= 0.5

    def test_builds_no_kernel_beyond_the_one_at_t(self, so3_setup, monkeypatch):
        # not even the one at t: Coad and D there come from the chart's lift block
        _, ctx, chart = so3_setup
        built = count_builds(monkeypatch)
        curvature_exact(SigmaGeometry(ctx, chart), np.array([0.1, -0.2]))
        assert built == []

    def test_raises_past_the_chart_radius_as_the_kernels_do(self):
        # at t = π·e₀ on so(4) regular the chart-fiber frame is singular: the
        # point's kernel and both routes raise RankLoss, and so does the exact
        # curvature, which would otherwise read about 1e-16 there
        label, a, mu = next(case for case in EXACT_CASES if case[0] == "so4-regular")
        geom = _geometry(a, mu)
        bad = np.pi * np.eye(geom.chart.dim)[0]
        for entry in (lambda: geom.kernels(bad, geom.identity),
                      lambda: curvature_routes(geom, bad), lambda: curvature_exact(geom, bad)):
            with pytest.raises(RankLoss, match="chart-fiber frame lost rank"):
                entry()


class TestFormulaStencils:
    @pytest.mark.parametrize("t", [np.zeros(4), np.array([0.12, -0.2, 0.07, 0.15])],
                             ids=["origin", "off-origin"])
    def test_shared_and_skipped_stencils_keep_every_entry(self, monkeypatch, t):
        # so(4) at L01 + 2·L23: the exact first derivatives give every entry of
        # the all-stencil formula to that formula's error (1.1e-6 at the origin
        # and 1.6e-6 off it, against |R| ≈ 2.2: roundoff of order
        # ε/(fd_step·fd_step2)), and the formula's only stencils are the outer
        # ones, one per direction, all placed by one stencil-point call
        ctx = rc.build_context(_so4(), np.array([1.0, 0.0, 0.0, 0.0, 0.0, 2.0]))
        chart = rc.default_chart(ctx)
        ref = _formula_every_stencil(SigmaGeometry(ctx, chart), t, 1e-5, 1e-4)
        calls = []
        stencil_points = SigmaGeometry._stencil_points

        def counted(self, *args, **kwargs):
            calls.append(args)
            return stencil_points(self, *args, **kwargs)

        monkeypatch.setattr(SigmaGeometry, "_stencil_points", counted)
        out = curvature_routes(SigmaGeometry(ctx, chart), t)[0]
        scale = max(1.0, float(np.max(np.linalg.norm(ref, axis=-1))))
        assert np.max(np.linalg.norm(out - ref, axis=-1)) <= 1e-5 * scale
        # (the stencil takes one step per row)
        assert ([(np.unique(args[3]).tolist(), len(args[2])) for args in calls]
                == [([1e-4], chart.dim)])


def _formula_per_pair(geom, t, dirs):
    """``curvature_routes``' formula at fd_step2 1e-4, one entry [a, b] at a time: the
    reference its entries, stacked over all pairs, must equal bit for bit."""
    ctx, e, km = geom.ctx, geom.identity, geom.chart.dim
    K = geom.kernels(t, e)
    u = K.lifts[0]

    def grads(ts, fibers):
        level = geom.kernels(ts, fibers).level
        return np.stack([level, ctx.alpha_star(level)], axis=-2)

    xs = list(dict.fromkeys(dirs))
    d_grads = stencil(geom, t, e, u[xs], 1e-4, K.F, grads)
    inner = geom.lift_derivatives(K, K.lifts)[0]
    outer = {x: geom._induced(u[x], grads(t[None], e[None])[0], d) for x, d in zip(xs, d_grads)}
    out = np.zeros((len(dirs), len(dirs), km, geom.n))
    for a, i in enumerate(dirs):
        for b, j in enumerate(dirs):
            if i == j:
                continue
            # struct contracted with u_i, then with u_j, one vector at a time
            su_i = linalg.matvec(geom.struct.reshape(2 * geom.n, -1).T, u[i])
            bracket = (inner[i, j] - inner[j, i]
                       + linalg.matvec(su_i.reshape(2 * geom.n, -1).T, u[j]))
            along = [bracket, ctx.alpha_star(bracket)]
            term3, t5 = (geom._induced(v, u, d)
                         for v, d in zip(along, geom.lift_derivatives(K, along)[0]))
            r_amb = (outer[i][j, :, 0] - outer[j][i, :, 0]) - term3
            r_bar = ctx.horizontal_part(r_amb - outer[i][j, :, 1] + outer[j][i, :, 1] + t5)
            out[a, b] = pushdown(geom, K.coad[0], r_bar)
    return out


class TestStackedPairs:
    @pytest.mark.parametrize("case", perfbench_cases().SO4_CASES, ids=lambda c: c[0])
    def test_every_entry_matches_the_per_pair_loop(self, case):
        cases = perfbench_cases()
        _, n, weights, _, _ = case
        a = rc.algebra_from_json(cases.so_n_group(n))
        ctx = rc.build_context(a, np.array(cases.so_n_mu(n, weights)))
        geom = SigmaGeometry(ctx, rc.default_chart(ctx))
        km = geom.chart.dim
        for t in (np.zeros(km), np.linspace(-0.2, 0.15, km), np.linspace(0.1, -0.25, km)):
            for dirs in (range(km), (0, 1), (1, 0)):
                out = curvature_routes(geom, t, directions=dirs)[0]
                ref = _formula_per_pair(geom, t, list(dirs))
                assert out.shape == ref.shape and out.tobytes() == ref.tobytes()


class TestStackedJobs:
    """Both routes over a stack of jobs (t, step, directions), ``curvature._routes``
    on the kernels at the jobs' points: each job's arrays are its one-point
    ``curvature_routes`` call's bit for bit, whatever the other jobs of the stack."""

    @pytest.mark.parametrize("case", perfbench_cases().SO4_CASES + perfbench_cases().SO5_CASES[:1],
                             ids=lambda c: c[0])
    def test_each_job_is_its_one_job_call(self, case):
        cases = perfbench_cases()
        _, n, weights, _, _ = case
        ctx = rc.build_context(rc.algebra_from_json(cases.so_n_group(n)),
                               np.array(cases.so_n_mu(n, weights)))
        chart = rc.default_chart(ctx)
        km = chart.dim
        t1, t2 = np.linspace(-0.2, 0.15, km), np.linspace(0.1, -0.25, km)
        ts = np.array([t1, np.zeros(km), t1, t2, t1])
        steps = [1e-4, 1e-4, 4e-3, 2e-3, 1e-4]
        dirs = [range(km), (1, 0), (0, km - 1), (km - 1, 1, 0), (1, 1)]
        geom = SigmaGeometry(ctx, chart)
        # the kernels at the jobs' points come from one batch of those points,
        # each one-job call's from a batch of its point alone
        formula, tensor = curvature._routes(geom, [*zip(ts, steps, map(list, dirs))],
                                            geom.kernels(ts, geom.identity))
        assert len(formula) == len(tensor) == len(ts)
        for t, h, d, *stacked in zip(ts, steps, dirs, formula, tensor):
            one = curvature_routes(SigmaGeometry(ctx, chart), t, fd_step2=h, directions=d)
            for out, alone in zip(stacked, one):
                assert out.shape == alone.shape and out.tobytes() == alone.tobytes()

    def test_a_job_past_the_chart_radius_raises_as_alone(self, so3_setup):
        # at t = (2π, 0) φ₁(−ad A) vanishes on the rotation plane of A: the
        # chart-fiber frame is singular there, alone or in a stack
        _, ctx, chart = so3_setup
        far, near = np.array([2 * np.pi, 0.0]), np.array([0.1, -0.2])
        with pytest.raises(RankLoss):
            curvature_routes(SigmaGeometry(ctx, chart), far)
        for ts in ([near, far], [far, near]):
            with pytest.raises(RankLoss):
                run_battery(SigmaGeometry(ctx, chart), ts)

    def test_each_entry_point_builds_one_batch(self, so3_setup, monkeypatch):
        # _routes lays out each call's batch of displaced points: one kernels
        # call per curvature_battery call, which reads the kernels at its
        # points, and per curvature_routes or convergence_factor call after
        # the one that builds the kernel at its point
        _, ctx, chart = so3_setup
        geom, t = SigmaGeometry(ctx, chart), np.array([0.1, -0.2])
        K = geom.kernels([t, np.zeros(2)], geom.identity)
        built = count_builds(monkeypatch)
        curvature_routes(geom, t)
        assert built == [1, 2 * 2 + 2 * 2]  # t; then t ± h·eₓ, the stencils along f̄_x
        curvature_battery(geom, [t, np.zeros(2)], K)
        assert len(built) == 3
        convergence_factor(geom, t)
        assert len(built) == 5 and built[3] == 1

    def test_routes_builds_its_distinct_rows_in_one_call(self, monkeypatch):
        # the battery's batch repeats rows (at t_points[0] = 0, where the
        # probe's two jobs sit, the formula's stencils land bit for bit on the
        # tensor's t ± h·eₓ); _routes drops them and asks kernels once, for
        # pairwise distinct rows: on perfbench's so(4) regular case (seed 1), 32
        # rows of which 16 are distinct, none at the stage's point, whose
        # kernel the chart sweep built
        cfg = CaseConfig.from_dict(perfbench_cases().so4_full_cases(1)[0]["config"])
        distinct, asked, batches = linalg.distinct_rows, [], []

        def spied(keys):
            keys = list(keys)
            if keys and isinstance(keys[0], tuple):  # (t, fiber) bytes, not exp_data's t
                asked.append(keys)
            return distinct(keys)

        kernels = SigmaGeometry.kernels

        def recorded(self, ts, fibers):
            batches.append([(t.tobytes(), f.tobytes()) for t, f in zip(ts, fibers)])
            return kernels(self, ts, fibers)

        run = pipeline._run_stages(cfg, "reduce", {}, {})
        monkeypatch.setattr(linalg, "distinct_rows", spied)
        monkeypatch.setattr(SigmaGeometry, "kernels", recorded)
        pipeline._stage_curvature(cfg, run)
        (keys,), (rows,) = asked, batches
        assert len(keys) == 32 and len(rows) == len(set(rows)) == 16
        assert rows == list(dict.fromkeys(keys))
        assert (np.zeros(run.geom.chart.dim).tobytes(), run.geom.identity.tobytes()) not in rows

    @pytest.mark.parametrize("case", perfbench_cases().SO4_CASES, ids=lambda c: c[0])
    def test_curvature_stage_builds_one_batch(self, case, monkeypatch):
        # the points' kernels are the chart sweep's, so the tensor's t ± h·eₓ,
        # every formula stencil and the probe's points (all known before any
        # kernel is built) are one build, whatever the number of points
        cases = perfbench_cases()
        _, n, weights, _, samples = case
        doc = {"group": cases.so_n_group(n), "mu": cases.so_n_mu(n, weights)}
        battery, kernels, builds, stage = pipeline.curvature_battery, SigmaGeometry.kernels, [], []

        def counted(self, ts, fibers):
            stage[-1:] = [stage[-1] + 1] if stage else []
            return kernels(self, ts, fibers)

        def staged(geom, pts, K):
            stage.append(0)
            out = battery(geom, pts, K)
            builds.append(stage.pop())
            return out

        monkeypatch.setattr(SigmaGeometry, "kernels", counted)
        monkeypatch.setattr(pipeline, "curvature_battery", staged)
        for extra in ({}, {"samples": 6}):
            rep, code = run_pipeline(CaseConfig.from_dict(dict(doc, **extra)), "curvature")
            assert code == 0 and rep["stages"]["curvature"]["symmetry"]["points"] >= 1
        assert builds == [1, 1]

    def test_battery_after_the_sweep_builds_once_and_solves_each_kind_once(self, monkeypatch):
        # after the reduce stage, on the chart sweep's kernels at its points,
        # three points' battery builds one batch and takes four stacked solves
        # (R_μ's N and the exact value's B, Γ at every tensor point, the lifts of
        # the symplectic defect) and no lstsq, whatever the number of points
        cases = perfbench_cases()
        _, n, weights, _, _ = cases.SO4_CASES[0]
        cfg = CaseConfig.from_dict({"group": cases.so_n_group(n), "mu": cases.so_n_mu(n, weights),
                                    "samples": 6})
        run = pipeline._run_stages(cfg, "reduce", {}, {})
        pts = np.array(run.stages["reduce"]["chart_points"][:3])  # the curvature stage's points
        calls = {"build": 0, "lstsq": 0, "tangent_solve": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(SigmaGeometry, "kernels", counted("build", SigmaGeometry.kernels))
        monkeypatch.setattr(np.linalg, "lstsq", counted("lstsq", np.linalg.lstsq))
        solve = counted("tangent_solve", curvature.tangent_solve)
        monkeypatch.setattr(curvature, "tangent_solve", solve)
        monkeypatch.setattr(reduction, "tangent_solve", solve)
        out = curvature_battery(run.geom, pts, run.kernels[:3])
        assert out["symmetry"]["points"] == 3 and not pts[0].any()
        assert calls == {"build": 1, "lstsq": 0, "tangent_solve": 4}


def _stage_cases() -> list:
    """(label, config document, rows of the curvature stage's batch) on so3 and on
    both so(4) cases of ``perfbench/cases.py``."""
    cases = perfbench_cases()
    out = [("so3", {"group": "so3", "mu": [0.0, 0.0, 1.0]}, 20)]
    for (label, n, weights, _, samples), rows in zip(cases.SO4_CASES, (16, 32)):
        doc = {"group": cases.so_n_group(n), "mu": cases.so_n_mu(n, weights)}
        out.append((label, dict(doc, samples=samples) if samples else doc, rows))
    return out


class TestSweepKernels:
    """The curvature stage reads the chart sweep's kernels at its points."""

    @pytest.mark.parametrize("label,doc,rows", _stage_cases(), ids=[c[0] for c in _stage_cases()])
    def test_curvature_stage_builds_no_row_at_its_points(self, label, doc, rows, monkeypatch):
        # in the pipeline and in verify alike, the stage makes one exp_data call,
        # its batch's (with derivatives), and no lift-only read; its batch holds
        # only displaced rows, none at its own points, whose kernels the sweep built
        cfg = CaseConfig.from_dict(doc)
        exp_data, kernels = orbits.OrbitChart.exp_data, SigmaGeometry.kernels
        stage, calls, batches, points, active = pipeline._stage_curvature, [], [], [], []

        def spied_exp_data(self, ts, derivatives=True):
            if active:
                calls.append((derivatives, len(np.atleast_2d(ts))))
            return exp_data(self, ts, derivatives)

        def spied_kernels(self, ts, fibers):
            if active:
                ts = np.reshape(ts, (-1, self.chart.dim))
                batches.append([(t.tobytes(), f.tobytes()) for t, f in
                                zip(ts, np.broadcast_to(fibers, (len(ts), self.n, self.n)))])
            return kernels(self, ts, fibers)

        def staged(cfg, run):  # the stage's (t, fiber) rows, and its calls while it runs
            pts = np.array(run.stages["reduce"]["chart_points"][: max(1, cfg.samples // 2)])
            points.append({(t.tobytes(), run.geom.identity.tobytes()) for t in pts})
            active.append(True)
            out = stage(cfg, run)
            active.clear()
            return out

        monkeypatch.setattr(orbits.OrbitChart, "exp_data", spied_exp_data)
        monkeypatch.setattr(SigmaGeometry, "kernels", spied_kernels)
        monkeypatch.setitem(pipeline._STAGE_RUNS, "curvature", staged)
        for run in (lambda: run_pipeline(cfg, "curvature"), lambda: pipeline.verify_suite(cfg)):
            del calls[:], batches[:], points[:]
            assert run()[1] == 0
            (own,), (batch,) = points, batches
            assert calls == [(True, rows)] and len(batch) == rows
            assert own and own.isdisjoint(batch)

    @pytest.mark.parametrize("label,doc", [c[:2] for c in _stage_cases()],
                             ids=[c[0] for c in _stage_cases()])
    def test_battery_on_the_sweeps_rows_is_its_own_builds(self, label, doc):
        # a kernel never depends on its batch, so the battery on the sweep's rows
        # at its points equals the battery on a batch of those points alone, bit
        # for bit in every sample, defect and convergence field, at t = 0 and t ≠ 0
        cfg = CaseConfig.from_dict(dict(doc, samples=6))
        run = pipeline._run_stages(cfg, "reduce", {}, {})
        pts = np.array(run.stages["reduce"]["chart_points"][:3])
        assert not pts[0].any() and pts[1:].any(axis=1).all()
        swept = curvature_battery(run.geom, pts, run.kernels[:3])
        alone = curvature_battery(run.geom, pts, run.geom.kernels(pts, run.geom.identity))
        km = run.geom.chart.dim
        assert swept["symmetry"]["points"] == 3
        assert len(swept["samples"]) == 3 * km * km * (km - 1) // 2  # (point, i < j, l)
        assert repr(swept) == repr(alone)


class TestProbePick:
    @pytest.mark.parametrize("label,a,mu", EXACT_CASES, ids=[c[0] for c in EXACT_CASES])
    def test_the_exact_value_picks_the_tensors_triple(self, label, a, mu):
        # the battery picks the probe's triple from curvature_exact at t_points[0]
        # = 0, before any kernel but the one there is built; on every chart case
        # that is the triple the finite-difference tensor there picks (ties by
        # symmetry included: every flat heis3 entry is 0, so both pick (0, 1, 0))
        geom = _geometry(a, mu)
        t0 = np.zeros(geom.chart.dim)
        assert (curvature._probe_inputs(curvature_exact(geom, t0))
                == curvature._probe_inputs(curvature_routes(geom, t0)[1])), label


class TestConvergence:
    def test_second_order_step_halving(self, so3_setup):
        _, ctx, chart = so3_setup
        report = convergence_factor(SigmaGeometry(ctx, chart), np.array([0.15, -0.1]))
        assert 3.0 <= report["factor"] <= 5.0
        assert report["oracle_error_fine"] < report["oracle_error_coarse"]

    def test_halving_again_keeps_converging(self, so3_setup):
        _, ctx, chart = so3_setup
        geom = SigmaGeometry(ctx, chart)
        coarse = convergence_factor(geom, np.array([0.15, -0.1]), coarse=8e-3)
        fine = convergence_factor(geom, np.array([0.15, -0.1]), coarse=4e-3)
        assert 3.0 <= coarse["factor"] <= 5.0
        assert 3.0 <= fine["factor"] <= 5.0

    def test_errors_are_against_the_exact_value(self):
        # each route's error at each step is its distance to curvature_exact
        ctx = rc.build_context(_so4(), np.array([1.0, 0.0, 0.0, 0.0, 0.0, 2.0]))
        geom = SigmaGeometry(ctx, rc.default_chart(ctx))
        t = np.array([0.1, -0.05, 0.08, 0.02])
        i, j, l = 0, 2, 1
        report = convergence_factor(geom, t, inputs=(i, j, l))
        exact = curvature_exact(geom, t)[i, j, l]
        for step, name in ((4e-3, "coarse"), (2e-3, "fine")):
            routes = curvature_routes(geom, t, fd_step2=step, directions=(i, j))
            for r, key in zip(routes, ("formula", "oracle")):
                assert report[f"{key}_error_{name}"] == float(np.linalg.norm(r[0, 1, l] - exact))
        assert 3.0 <= report["factor"] <= 5.0

    def test_probe_triple_ignores_roundoff_in_tied_norms(self, so3_setup):
        # on so3 the (0, 1, 0) and (0, 1, 1) values have norms equal by
        # symmetry up to the last bits; moving every entry of one value 1 ulp
        # away from zero and of the other 1 ulp towards it decides the plain
        # argmax either way, but must not move the probe
        _, ctx, chart = so3_setup
        tensor = curvature_routes(SigmaGeometry(ctx, chart), np.zeros(2))[1]
        assert curvature._probe_inputs(tensor) == (0, 1, 0)
        for grown in range(2):
            bumped = tensor.copy()
            bumped[0, 1, grown] = np.nextafter(tensor[0, 1, grown],
                                               np.copysign(np.inf, tensor[0, 1, grown]))
            bumped[0, 1, 1 - grown] = np.nextafter(tensor[0, 1, 1 - grown], 0.0)
            norms = np.linalg.norm(bumped[0, 1], axis=-1)
            assert int(np.argmax(norms)) == grown
            assert curvature._probe_inputs(bumped) == (0, 1, 0)

    def test_probe_builds_one_row_per_displaced_point(self, monkeypatch):
        # the probe reads R(f_i, f_j)f_l only, on its own geometry: the table at
        # t and, for each step, the formula's two stencil points along f̄_i and
        # f̄_j and the tensor's t ± h·eᵢ, t ± h·eⱼ, every table whole and built
        # once (both steps' jobs sit at t, whose kernel is built first and read
        # by both); every displaced kernel is in one batch, and the exact
        # reference reads the kernel at t
        ctx = rc.build_context(_so4(), np.array([1.0, 0.0, 0.0, 0.0, 0.0, 2.0]))
        chart = rc.default_chart(ctx)
        t = np.array([0.1, -0.05, 0.08, 0.02])
        geometries = track_geometries(monkeypatch)
        batches = []
        kernels = SigmaGeometry.kernels

        def counted(self, ts, fibers):
            batches.append((ts, kernels(self, ts, fibers)))
            return batches[-1][1]

        monkeypatch.setattr(SigmaGeometry, "kernels", counted)
        convergence_factor(SigmaGeometry(ctx, chart), t, inputs=(0, 2, 1))
        assert len(geometries) == 1  # the reference shares the probe's geometry
        geom, = geometries
        displaced = 2 * (2 * 2 + 2 * 2)
        (t_row, _), (ts, K) = batches
        assert np.reshape(t_row, -1).tobytes() == t.tobytes()
        assert len(ts) == displaced and t.tobytes() not in {row.tobytes() for row in ts}
        assert K.level.shape == (len(ts), chart.dim, chart.dim, 2 * geom.n)
        assert K.cov.shape == (len(ts), chart.dim, chart.dim, geom.n)

    def test_so4_regular_probe_measures_truncation(self):
        # on S² × S² the triples (0, 1, l) have zero curvature at the first
        # chart point, so a probe on them reads roundoff; the battery must pick
        # a nonzero component and see second-order convergence on it
        cases = perfbench_cases()
        _, n, weights, _, samples = cases.SO4_CASES[0]
        doc = {"group": cases.so_n_group(n), "mu": cases.so_n_mu(n, weights),
               "samples": samples}
        rep, code = run_pipeline(CaseConfig.from_dict(doc), "curvature")
        assert code == 0
        conv = rep["stages"]["curvature"]["convergence"]
        assert conv["oracle_error_coarse"] >= 1e-6
        assert 3.0 <= conv["factor"] <= 5.0


class TestOneEvaluationPerValue:
    def test_pipeline_evaluates_each_curvature_value_once(self, monkeypatch):
        counts = {"formula": 0}

        def counted(name, route):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return route(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(curvature, "_formula", counted("formula", curvature._formula))
        # every level-set table, read by the tensor, the sweep and the
        # formula, is computed with its kernel, once per build and (t, fiber)
        built = count_builds(monkeypatch)
        cfg = CaseConfig.from_dict({"group": "so3", "mu": [0.0, 0.0, 1.0], "samples": 5})
        rep, code = run_pipeline(cfg)
        assert code == 0
        samples = rep["stages"]["curvature"]["samples"]
        points, km = 2, 2
        assert len({tuple(s["t"]) for s in samples}) == points
        # one formula call per stage: one array per point and per step of the
        # convergence probe (its reference is exact), all in one stacked call
        assert counts["formula"] == 1
        # one table per chart point of the sweep and per fiber of the
        # fiber-independence check (the autoparallel check stops at its
        # defect on so3); per curvature point, t ± h·eₓ for the tensor and the
        # formula's outer stencil points (both routes read the sweep's table at t).
        # At t = 0 the lift of f_x solves to exactly (eₓ, 0) in the chart-fiber
        # frame, so the formula's outer points are the tensor's.  The probe, at
        # t = 0 in the same batch, adds at each of its two steps t ± h along its
        # two directions, shared by both routes; its exact reference adds none.
        assert rep["stages"]["reduce"]["autoparallel"]["independence"] is None
        assert len(built) == 2
        assert sum(built) == (cfg.samples + 5 + points * 2 * 2 * km - 2 * km
                              + 2 * (2 * 2))

        ctx = rc.build_context(rc.so3(), np.array([0.0, 0.0, 1.0]))
        chart = rc.default_chart(ctx)
        sample = samples[-1]
        i, j, l = sample["inputs"]
        fresh = curvature_routes(SigmaGeometry(ctx, chart), np.array(sample["t"]))[0][i, j, l]
        assert fresh.tolist() == sample["value"]


class TestRoundoff:
    def test_so5_regular_samples_survive_a_roundoff_level_kernel_change(self, monkeypatch):
        # exp(A) as exp(A/2)², and its Fréchet derivative L(A, E) as
        # L(A/2, E/2)·exp(A/2) + exp(A/2)·L(A/2, E/2), changes every exponential
        # by roundoff.  With two
        # nested finite-difference levels the so(5) regular samples moved by
        # 8.9e-6, just under the 1e-5 that tools/compare_reports.py allows a
        # kernel rewrite; with one level, at fd_step2, the move is of order
        # ε/fd_step2 (3.6e-11 here), so it must stay a thousand times smaller
        cases = perfbench_cases()
        _, n, weights, _, _ = cases.SO5_CASES[0]
        cfg = CaseConfig.from_dict({"group": cases.so_n_group(n),
                                    "mu": cases.so_n_mu(n, weights), "samples": 2})
        runs = [run_pipeline(cfg, "curvature")]
        expm = linalg.expm

        def halved(A, directions=None, **kwargs):
            if directions is None:
                half = expm(np.asarray(A) / 2.0, **kwargs)
                return half @ half
            half, d = expm(np.asarray(A) / 2.0, directions=directions / 2.0, **kwargs)
            r = d.shape[-2]  # the derivatives' first r rows, below which A[r:, :r] = 0
            return half @ half, d @ half[..., None, :, :] + half[..., None, :r, :r] @ d

        monkeypatch.setattr(linalg, "expm", halved)
        runs.append(run_pipeline(cfg, "curvature"))
        assert [code for _, code in runs] == [0, 0]
        before, after = (rep["stages"]["curvature"]["samples"] for rep, _ in runs)
        assert len(before) == len(after) == 28 * 8  # one point, pairs i < j of 8, every l
        for a, b in zip(before, after):
            for key in ("value", "oracle"):
                va, vb = np.asarray(a[key]), np.asarray(b[key])
                assert (np.linalg.norm(vb - va)
                        < 1e-3 * compare_reports.CURVATURE_RTOL * max(1.0, np.linalg.norm(va)))
