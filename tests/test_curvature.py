import numpy as np
import pytest

import redconn as rc
from redconn.curvature import (convergence_factor, curvature_battery, curvature_formula,
                               curvature_tensor)
from redconn import curvature
from redconn.errors import ZeroDimensionalBase
from redconn.pipeline import THRESHOLDS, CaseConfig, run_pipeline
from redconn.reduction import SigmaGeometry
from tests.conftest import perfbench_cases, track_geometries
from tests.test_liealg import _so4


def _chart_components(chart, t, v):
    D = chart.dnu(t)
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
        zero = rc.FrameConnection(a, lambda xi: np.zeros((6, 6, 6)))
        ctx = rc.build_context(a, mu, connection=zero)
        chart = rc.default_chart(ctx)
        out = curvature_tensor(SigmaGeometry(ctx, chart), np.array([0.2, -0.1]))[0, 1, 0]
        assert np.max(np.abs(out)) <= 1e-6

    def test_heis3_reduction_is_flat(self, heis3_ctx):
        chart = rc.default_chart(heis3_ctx)
        geom = SigmaGeometry(heis3_ctx, chart)
        t = np.array([0.3, 0.2])
        for out in (curvature_formula(geom, t)[0, 1, 1], curvature_tensor(geom, t)[0, 1, 1]):
            assert np.max(np.abs(out)) <= 1e-6

    def test_zero_dimensional_base_rejected(self, rng):
        a = rc.abelian(2)
        mu = rng.standard_normal(2)
        ctx = rc.build_context(a, mu)
        chart = rc.orbit_chart(a, mu, ctx.m)
        with pytest.raises(ZeroDimensionalBase):
            curvature_formula(SigmaGeometry(ctx, chart), np.zeros(0))


class TestFlagship:
    def test_formula_matches_oracle(self, so3_setup, rng):
        _, ctx, chart = so3_setup
        pts = [np.zeros(2)] + [rng.uniform(-0.4, 0.4, 2) for _ in range(2)]
        battery = curvature_battery(SigmaGeometry(ctx, chart), pts)
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
        # a second chart on m + g_mu·B has the same dnu(0) but other coordinate
        # fields, whose reduced derivatives at 0 differ; the curvature at 0 is
        # a tensor in its arguments, so neither route may see the change
        a = _so4() if name == "so4" else rc.named_algebra(name)
        ctx = rc.build_context(a, np.asarray(mu))
        B = np.random.default_rng(5).standard_normal((ctx.stabilizer_dim, ctx.base_dim))
        charts = [rc.default_chart(ctx), rc.orbit_chart(a, ctx.mu, ctx.m + ctx.g_mu @ B)]
        geoms = [SigmaGeometry(ctx, chart) for chart in charts]
        t = np.zeros(charts[0].dim)
        assert np.max(np.abs(charts[0].dnu(t) - charts[1].dnu(t))) <= 1e-12
        covs = [geom.cov_table(t, geom.identity, 1e-5)[1] for geom in geoms]
        assert np.max(np.abs(covs[0] - covs[1])) > 0.1
        for route in (curvature_formula, curvature_tensor):
            first, second = (route(geom, t) for geom in geoms)
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
        base = curvature_tensor(geom, t)[0, 1, 1]
        g = rc.group_exp(a, 0.15 * rng.standard_normal(3))
        C = rc.coadjoint_matrix(g)
        C_inv = rc.coadjoint_matrix(np.linalg.inv(g))
        t2 = chart.coords(C @ chart.nu(t), t0=t)
        t_pre = chart.coords(C_inv @ chart.nu(t2), t0=t)
        moved = [_chart_components(chart, t2, C @ chart.dnu(t_pre)[:, a_idx])
                 for a_idx in range(2)]
        val = np.einsum("i,j,l,ijln->n", moved[0], moved[1], moved[1],
                        curvature_tensor(geom, t2))
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
        r3 = curvature_tensor(SigmaGeometry(ctx3, chart3), t)[0, 1, 1]
        r2 = curvature_tensor(SigmaGeometry(ctx2, chart2), t)[0, 1, 1]
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
        tensor = curvature_tensor(geom, t)
        formula = curvature_formula(geom, t)
        assert chart.dim == 4 and formula.shape == tensor.shape
        gap = np.linalg.norm(formula - tensor, axis=-1)
        assert np.all(gap <= THRESHOLDS["curvature_agreement"]
                      * np.maximum(1.0, np.linalg.norm(tensor, axis=-1)))

    def test_direction_subset_is_a_block_of_the_full_tensor(self, so3_setup):
        _, ctx, chart = so3_setup
        geom = SigmaGeometry(ctx, chart)
        t = np.array([0.1, -0.2])
        full = curvature_tensor(geom, t)
        block = curvature_tensor(geom, t, directions=(1, 0))
        assert np.max(np.abs(block - full[np.ix_([1, 0], [1, 0])])) <= 1e-13
        full = curvature_formula(geom, t)
        block = curvature_formula(geom, t, directions=(1, 0))
        assert (block == full[np.ix_([1, 0], [1, 0])]).all()

    def test_direction_subset_reads_only_its_rows_on_so4(self):
        # on so(4) regular km = 4, so a block over two directions builds a
        # strict subset of the table rows at t and at each outer stencil point
        ctx = rc.build_context(_so4(), np.array([1.0, 0.0, 0.0, 0.0, 0.0, 2.0]))
        chart = rc.default_chart(ctx)
        t = np.array([0.12, -0.2, 0.07, 0.15])
        full = curvature_formula(SigmaGeometry(ctx, chart), t)
        block = curvature_formula(SigmaGeometry(ctx, chart), t, directions=(2, 0))
        assert (block == full[np.ix_([2, 0], [2, 0])]).all()


class TestCatalogAgreement:
    @pytest.mark.parametrize("name,mu", [
        ("so3", [0, 0, 1]), ("su2", [0, 0, 1]), ("sl2r", [1, 0, 0]),
        ("heis3", [0, 0, 1]), ("se2", [0, 1, 0]),
    ])
    def test_routes_agree_at_default_steps(self, name, mu):
        a = rc.named_algebra(name)
        ctx = rc.build_context(a, np.asarray(mu, float))
        chart = rc.default_chart(ctx)
        battery = curvature_battery(SigmaGeometry(ctx, chart), [np.array([0.15, -0.1])])
        assert battery["max_discrepancy"] <= 1e-4


class TestSymmetryBattery:
    def test_so3_defects_within_tolerance(self, so3_setup, rng):
        _, ctx, chart = so3_setup
        pts = [np.zeros(2), rng.uniform(-0.3, 0.3, 2)]
        report = curvature_battery(SigmaGeometry(ctx, chart), pts)["symmetry"]
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
        raw = rc.perturbed_connection(rc.baseline_connection(a), delta, symmetric=True)
        assert rc.torsion_defect(raw, mu) <= 1e-12
        ctx_bad = rc.build_context(a, mu, connection=raw)
        chart = rc.default_chart(ctx_bad)
        bad = curvature_battery(SigmaGeometry(ctx_bad, chart),
                                [np.array([0.12, -0.07])])["symmetry"]
        assert bad["symplectic_defect"] > 1e-2
        ctx_good = rc.build_context(a, mu, connection=rc.symplectize(raw))
        good = curvature_battery(SigmaGeometry(ctx_good, chart),
                                 [np.array([0.12, -0.07])])["symmetry"]
        assert good["symplectic_defect"] <= 1e-4

    def test_one_lift_per_point_on_so4(self, monkeypatch):
        # the symplectic-valuedness defect lifts the tensor rows of every pair
        # i < j (6 pairs of 4 rows on so(4) regular) with one solve
        ctx = rc.build_context(_so4(), np.array([1.0, 0.0, 0.0, 0.0, 0.0, 2.0]))
        geom = SigmaGeometry(ctx, rc.default_chart(ctx))
        calls = []
        lift = SigmaGeometry.lift

        def counted(self, t, fiber, v):
            calls.append(np.shape(v))
            return lift(self, t, fiber, v)

        monkeypatch.setattr(SigmaGeometry, "lift", counted)
        curvature_battery(geom, [np.array([0.12, -0.2, 0.07, 0.15])])
        assert calls == [(6 * 4, 6)]

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
        r = _ricci(chart, t, curvature_tensor(SigmaGeometry(ctx, chart), t))
        assert np.max(np.abs(r - r.T)) <= 1e-4 * max(1.0, float(np.max(np.abs(r))))

    def test_negative_control_breaks_ricci_symmetry(self, so3_setup):
        # the unprojected connection's curvature is not sp-valued, so its Ricci
        # tensor picks up the antisymmetric part −tr R(X, Y)
        a, _, _ = so3_setup
        mu = np.array([0.0, 0.0, 1.0])
        delta = np.random.default_rng(7).standard_normal((6, 6, 6)) * 0.5
        raw = rc.perturbed_connection(rc.baseline_connection(a), delta, symmetric=True)
        t = np.array([0.12, -0.07])
        asym = []
        for conn in (raw, rc.symplectize(raw)):
            ctx = rc.build_context(a, mu, connection=conn)
            chart = rc.default_chart(ctx)
            r = _ricci(chart, t, curvature_tensor(SigmaGeometry(ctx, chart), t))
            asym.append(float(np.max(np.abs(r - r.T))))
        assert asym[0] > 1e-3
        assert asym[1] <= 1e-4


def _formula_every_stencil(geom, t, fd_step, fd_step2):
    """The lift-expansion formula with a fresh inner stencil along every f̄_i
    and a stencil along every bracket and radical part, zero or not: the
    reference for the stencils ``curvature_formula`` shares and skips."""
    ctx, e, km = geom.ctx, geom.identity, geom.chart.dim
    hproj = ctx.horizontal_part
    u = geom.lifts(t, e)

    def grads(t2, fib):
        level, _ = geom.cov_table(t2, fib, fd_step)
        return np.array([[[g, ctx.alpha_star(g)] for g in row] for row in level])

    base = grads(t, e)
    outer = [np.array([[[geom._induced(u[x], base[j, l, s], d[j, l, s]) for s in range(2)]
                        for l in range(km)] for j in range(km)])
             for x, d in ((x, geom._stencil(t, e, u[x], fd_step2, grads)) for x in range(km))]
    inner = [geom._stencil(t, e, u[x], fd_step, geom.lifts) for x in range(km)]
    out = np.zeros((km, km, km, geom.n))
    for i in range(km):
        for j in range(km):
            if i == j:
                continue
            bracket = (inner[i][j] - inner[j][i]
                       + np.einsum("abc,a,b->c", geom.struct, u[i], u[j]))
            radical = ctx.alpha_star(bracket)
            along = geom._stencil(t, e, bracket, fd_step, geom.lifts)
            along_radical = geom._stencil(t, e, radical, fd_step, geom.lifts)
            for l in range(km):
                term3 = geom._induced(bracket, u[l], along[l])
                t5 = geom._induced(radical, u[l], along_radical[l])
                r_amb = (outer[i][j, l, 0] - outer[j][i, l, 0]) - term3
                r_bar = (hproj(r_amb) - hproj(outer[i][j, l, 1]) + hproj(outer[j][i, l, 1])
                         + hproj(t5))
                out[i, j, l] = geom.pushdown(t, e, r_bar)
    return out


class TestFormulaStencils:
    @pytest.mark.parametrize("t", [np.zeros(4), np.array([0.12, -0.2, 0.07, 0.15])],
                             ids=["origin", "off-origin"])
    def test_shared_and_skipped_stencils_keep_every_entry(self, monkeypatch, t):
        # so(4) at L01 + 2·L23: at the origin [f̄_i, f̄_j] is exactly zero for
        # 4 of the 12 ordered pairs, and its radical part for those 4
        ctx = rc.build_context(_so4(), np.array([1.0, 0.0, 0.0, 0.0, 0.0, 2.0]))
        chart = rc.default_chart(ctx)
        ref = _formula_every_stencil(SigmaGeometry(ctx, chart), t, 1e-5, 1e-4)
        calls = []
        stencil = SigmaGeometry._stencil

        def counted(self, *args):
            calls.append(args)
            return stencil(self, *args)

        monkeypatch.setattr(SigmaGeometry, "_stencil", counted)
        assert (curvature_formula(SigmaGeometry(ctx, chart), t) == ref).all()
        if not t.any():
            # 68 with its own inner stencils, every bracket and radical stencil
            # and the full table at each of the 2·4 outer stencil points, where
            # the formula reads every row but x
            assert len(calls) == 68 - 4 - 4 - 4 - 2 * 4


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

    def test_probe_triple_ignores_roundoff_in_tied_norms(self, so3_setup):
        # on so3 the (0, 1, 0) and (0, 1, 1) values have norms equal by
        # symmetry up to the last bits; moving every entry of one value 1 ulp
        # away from zero and of the other 1 ulp towards it decides the plain
        # argmax either way, but must not move the probe
        _, ctx, chart = so3_setup
        tensor = curvature_tensor(SigmaGeometry(ctx, chart), np.zeros(2))
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
        # the probe reads R(f_i, f_j)f_l only: at t it needs rows i and j, and
        # at a point displaced along f̄_i (f̄_j) only row j (i)
        ctx = rc.build_context(_so4(), np.array([1.0, 0.0, 0.0, 0.0, 0.0, 2.0]))
        chart = rc.default_chart(ctx)
        t = np.array([0.1, -0.05, 0.08, 0.02])
        geometries = track_geometries(monkeypatch)
        convergence_factor(SigmaGeometry(ctx, chart), t, inputs=(0, 2, 1))
        assert len(geometries) == 2  # the probe's and its Richardson reference's
        rows = {}
        for geom in geometries:
            for (t_key, _, _), (_, level, _) in geom._tables.items():
                built = [i for i, row in enumerate(level) if row is not None]
                rows.setdefault(t_key == t.tobytes(), []).append(built)
        assert rows[True] == [[0, 2]] * 3  # the reference and both steps at t
        assert rows[False] and all(len(built) == 1 for built in rows[False])

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

        monkeypatch.setattr(curvature, "curvature_formula",
                            counted("formula", curvature_formula))
        # every level-set table, whether read through cov_table (tensor, sweep)
        # or directly (formula), is computed by _level_table once per geometry
        # and (t, fiber, step)
        geometries = track_geometries(monkeypatch)
        cfg = CaseConfig.from_dict({"group": "so3", "mu": [0.0, 0.0, 1.0], "samples": 5})
        rep, code = run_pipeline(cfg)
        assert code == 0
        samples = rep["stages"]["curvature"]["samples"]
        points, km = 2, 2
        assert len({tuple(s["t"]) for s in samples}) == points
        # one formula array per point; the convergence probe adds a reference
        # and two steps
        assert counts["formula"] == points + 3
        # one table per chart point of the sweep and per fiber of the
        # fiber-independence check (the autoparallel check stops at its
        # defect on so3); per curvature point, the table at t that both routes
        # read, t ± h·eₓ for the tensor and the formula's outer stencil points.
        # At t = 0 the table at t is the sweep's first, and the lift of f_x
        # solves to exactly (eₓ, 0) in the chart-fiber frame, so the formula's
        # outer points are the tensor's.  The probe, at t = 0, adds t and the
        # four Richardson points along each of its two directions for the
        # reference, and at each of its two steps t and t ± h along the two
        # directions, shared by both routes.
        assert rep["stages"]["reduce"]["autoparallel"]["independence"] is None
        tables = sum(len(g._tables) for g in geometries)
        assert tables == (cfg.samples + 5 + points * (1 + 2 * 2 * km) - 1 - 2 * km
                          + (1 + 2 * 4) + 2 * (1 + 2 * 2))

        ctx = rc.build_context(rc.so3(), np.array([0.0, 0.0, 1.0]))
        chart = rc.default_chart(ctx, cfg.chart_radius)
        sample = samples[-1]
        i, j, l = sample["inputs"]
        fresh = curvature_formula(SigmaGeometry(ctx, chart), np.array(sample["t"]),
                                  fd_step=cfg.fd_step, fd_step2=cfg.fd_step2)[i, j, l]
        assert fresh.tolist() == sample["value"]
