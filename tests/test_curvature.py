import numpy as np
import pytest

import redconn as rc
from redconn.curvature import (convergence_factor, curvature_battery, curvature_tensor,
                               reduced_curvature_formula)
from redconn import curvature
from redconn.errors import ZeroDimensionalBase
from redconn.pipeline import THRESHOLDS, CaseConfig, run_pipeline
from redconn.reduction import SigmaGeometry, coordinate_fields
from tests.test_liealg import _so4


def _chart_components(chart, t, v):
    D = chart.dnu(t)
    coords, *_ = np.linalg.lstsq(D, v, rcond=None)
    assert np.linalg.norm(D @ coords - v) <= 1e-8 * max(1.0, np.linalg.norm(v))
    return coords


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
        zero = rc.FrameConnection(a, lambda xi: np.zeros((6, 6, 6)), constant=True)
        ctx = rc.build_context(a, mu, connection=zero)
        chart = rc.default_chart(ctx)
        out = curvature_tensor(SigmaGeometry(ctx, chart), np.array([0.2, -0.1]))[0, 1, 0]
        assert np.max(np.abs(out)) <= 1e-6

    def test_heis3_reduction_is_flat(self, heis3_ctx):
        chart = rc.default_chart(heis3_ctx)
        fields = coordinate_fields(chart)
        t = np.array([0.3, 0.2])
        tensor = curvature_tensor(SigmaGeometry(heis3_ctx, chart), t)
        formula = reduced_curvature_formula(heis3_ctx, chart, fields[0], fields[1], fields[1], t)
        for out in (formula, tensor[0, 1, 1]):
            assert np.max(np.abs(out)) <= 1e-6

    def test_zero_dimensional_base_rejected(self, rng):
        a = rc.abelian(2)
        mu = rng.standard_normal(2)
        ctx = rc.build_context(a, mu)
        chart = rc.orbit_chart(a, mu, ctx.m)
        f = lambda t: np.zeros(0)
        with pytest.raises(ZeroDimensionalBase):
            reduced_curvature_formula(ctx, chart, f, f, f, np.zeros(0))


class TestFlagship:
    def test_formula_matches_oracle(self, so3_setup, rng):
        _, ctx, chart = so3_setup
        pts = [np.zeros(2)] + [rng.uniform(-0.4, 0.4, 2) for _ in range(2)]
        battery = curvature_battery(SigmaGeometry(ctx, chart), pts)
        assert battery["samples"], "no samples generated"
        assert battery["max_discrepancy"] <= 1e-4

    def test_equal_first_arguments_vanish(self, so3_setup):
        _, ctx, chart = so3_setup
        fields = coordinate_fields(chart)
        out = reduced_curvature_formula(ctx, chart, fields[0], fields[0], fields[1],
                                        np.array([0.2, 0.1]))
        assert np.max(np.abs(out)) <= 1e-9

    def test_coordinate_fields_commute(self, so3_setup):
        # the chart-space bracket of coordinate fields vanishes, so the
        # tensor route has no bracket term
        _, ctx, chart = so3_setup
        fields = coordinate_fields(chart)
        t = np.array([0.1, -0.2])
        h = 1e-5
        xc = fields[0](t)
        br = np.zeros(2)
        for b in range(2):
            e_b = np.eye(2)[b] * h
            dy = (fields[1](t + e_b) - fields[1](t - e_b)) / (2 * h)
            br += xc[b] * dy
        assert np.max(np.abs(br)) == 0.0

    def test_tensorial_in_each_slot(self, so3_setup):
        # rescaling a field by a chart function scales the value by its value
        # at the evaluation point
        _, ctx, chart = so3_setup
        fields = coordinate_fields(chart)
        t = np.array([0.15, -0.1])

        def f(tt):
            return 1.0 + 0.4 * tt[0] - 0.7 * tt[1]

        def scaled(field):
            return lambda tt: f(tt) * field(tt)

        geom = SigmaGeometry(ctx, chart)
        base = reduced_curvature_formula(ctx, chart, fields[0], fields[1], fields[1],
                                         t, geom=geom)
        for slot in range(3):
            args = [fields[0], fields[1], fields[1]]
            args[slot] = scaled(args[slot])
            val = reduced_curvature_formula(ctx, chart, *args, t, geom=geom)
            assert np.max(np.abs(val - f(t) * base)) <= 1e-5 * max(1.0, np.max(np.abs(base)))

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
        C_inv = rc.coadjoint_matrix(g.inverse())
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
        fields = coordinate_fields(chart)
        tensor = curvature_tensor(geom, t)
        km = chart.dim
        assert km == 4
        for i in range(km):
            for j in range(km):
                for l in range(km):
                    formula = reduced_curvature_formula(ctx, chart, fields[i], fields[j],
                                                        fields[l], t, geom=geom)
                    gap = np.linalg.norm(formula - tensor[i, j, l])
                    assert gap <= THRESHOLDS["curvature_agreement"] * max(
                        1.0, np.linalg.norm(tensor[i, j, l]))

    def test_direction_subset_is_a_block_of_the_full_tensor(self, so3_setup):
        _, ctx, chart = so3_setup
        geom = SigmaGeometry(ctx, chart)
        t = np.array([0.1, -0.2])
        full = curvature_tensor(geom, t)
        block = curvature_tensor(geom, t, directions=(1, 0))
        assert np.max(np.abs(block - full[np.ix_([1, 0], [1, 0])])) <= 1e-13


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


class TestOneEvaluationPerValue:
    def test_pipeline_evaluates_each_curvature_value_once(self, monkeypatch):
        counts = {"formula": 0, "cov_table": 0}

        def counted(name, route):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return route(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(curvature, "reduced_curvature_formula",
                            counted("formula", reduced_curvature_formula))
        monkeypatch.setattr(SigmaGeometry, "cov_table",
                            counted("cov_table", SigmaGeometry.cov_table))
        cfg = CaseConfig.from_dict({"group": "so3", "mu": [0.0, 0.0, 1.0], "samples": 5})
        rep, code = run_pipeline(cfg)
        assert code == 0
        samples = rep["stages"]["curvature"]["samples"]
        points, km = 2, 2
        assert len({tuple(s["t"]) for s in samples}) == points
        # per point: the formula on every (i, j, l) with i != j; the
        # convergence probe adds a reference and two steps
        assert counts["formula"] == points * km * km * (km - 1) + 3
        # one table per chart point of the sweep and per fiber of the
        # fiber-independence check (the autoparallel check stops at its
        # defect on so3), one per Christoffel point of each curvature point,
        # t and t ± h·eₓ, and t and t ± h along the probe's two directions
        # at each of its two steps
        assert rep["stages"]["reduce"]["autoparallel"]["independence"] is None
        assert counts["cov_table"] == cfg.samples + 5 + points * (2 * km + 1) + 2 * 5

        ctx = rc.build_context(rc.so3(), np.array([0.0, 0.0, 1.0]))
        chart = rc.default_chart(ctx, cfg.chart_radius)
        fields = coordinate_fields(chart)
        sample = samples[-1]
        i, j, l = sample["inputs"]
        fresh = reduced_curvature_formula(ctx, chart, fields[i], fields[j], fields[l],
                                          np.array(sample["t"]), fd_step=cfg.fd_step,
                                          fd_step2=cfg.fd_step2, geom=SigmaGeometry(ctx, chart))
        assert fresh.tolist() == sample["value"]
