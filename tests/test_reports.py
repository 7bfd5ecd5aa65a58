"""Reports against docs/report_schema.json, and reduce-stage numbers against
the library's public definitions."""

import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import redconn as rc
from redconn import report as report_mod
from redconn.cli import main
from redconn.orbits import kks_gap, kks_pairs
from redconn.pipeline import THRESHOLDS, CaseConfig, run_pipeline, verify_suite
from tests.conftest import AFF1_DOC, CATALOG_CASES

DOCS = Path(__file__).resolve().parent.parent / "docs"
AFF1_NO_REALIZATION = {k: v for k, v in AFF1_DOC.items() if k != "realization"}
SCHEMA_CASES = CATALOG_CASES + [("abelian(3)", [1.0, 0.5, -1.0]),
                                (AFF1_NO_REALIZATION, [0.0, 1.0])]


def _schema(name: str) -> dict:
    return json.loads((DOCS / name).read_text())


@pytest.fixture(scope="module")
def report_validator():
    schema = _schema("report_schema.json")
    jsonschema.Draft202012Validator.check_schema(schema)
    return jsonschema.Draft202012Validator(schema)


def _serialized(rep: dict) -> dict:
    return json.loads(report_mod.dumps(rep))


@pytest.mark.parametrize("group,mu", SCHEMA_CASES,
                         ids=[g if isinstance(g, str) else g["name"] for g, _ in SCHEMA_CASES])
def test_pipeline_and_verify_reports_match_schema(report_validator, group, mu):
    cfg = CaseConfig.from_dict({"group": group, "mu": mu, "samples": 2})
    for rep, _ in (run_pipeline(cfg, "curvature"), verify_suite(cfg)):
        report_validator.validate(_serialized(rep))


@pytest.mark.parametrize("name,mu", [c for c in CATALOG_CASES if c[0] in ("so3", "sl2r")],
                         ids=["so3", "sl2r"])
def test_pipeline_avoids_realization_round_trip(monkeypatch, name, mu):
    # Ad, Coad and chart velocities come from the structure constants; the
    # realization coordinates are off the hot path
    def refuse(*args, **kwargs):
        raise AssertionError("realization round trip on the hot path")

    monkeypatch.setattr(rc.LieAlgebra, "matrix_coords", refuse)
    cfg = CaseConfig.from_dict({"group": name, "mu": mu, "samples": 2})
    for rep, code in (run_pipeline(cfg, "curvature"), verify_suite(cfg)):
        assert code == 0, rep["error"]


def test_config_error_report_matches_schema(report_validator, tmp_path, capsys):
    path = tmp_path / "case.json"
    path.write_text(json.dumps({"group": "so3", "mu": [0.0, 0.0, 1.0],
                                "tol": {"kks_mach": 1e-3}}))
    assert main(["curvature", "--config", str(path)]) == 2
    report_validator.validate(json.loads(capsys.readouterr().out))


def test_stray_stage_key_fails_schema(report_validator):
    rep, _ = run_pipeline(CaseConfig.from_dict({"group": "so3", "mu": [0.0, 0.0, 1.0],
                                                "samples": 1}))
    doc = _serialized(rep)
    doc["stages"]["curvature"]["convergence"]["discrepancy_coarse"] = 0.0
    with pytest.raises(jsonschema.ValidationError):
        report_validator.validate(doc)


def test_regularity_report_is_the_left_report_alone(report_validator):
    # one left-side report, {"points", "regular"}; a per-side layout fails the schema
    rep, _ = run_pipeline(CaseConfig.from_dict({"group": "so3", "mu": [0.0, 0.0, 1.0]}),
                          "validate")
    doc = _serialized(rep)
    regularity = doc["stages"]["validate"]["regularity"]
    assert list(regularity) == ["points", "regular"] and len(regularity["points"]) == 5
    assert doc["stages"]["validate"]["level_set_checks"]["momentum_rank_regular"] is True
    for stray in ({"side": "left", **regularity}, {"right": regularity, "left": regularity}):
        doc["stages"]["validate"]["regularity"] = stray
        with pytest.raises(jsonschema.ValidationError):
            report_validator.validate(doc)


def test_config_schema_lists_the_threshold_names():
    tol = _schema("config_schema.json")["properties"]["tol"]
    assert tol["propertyNames"]["enum"] == list(THRESHOLDS)


@pytest.mark.parametrize("name", ["so3", "sl2r", "heis3"])
def test_reduce_stage_matches_library_definitions(name):
    # torsion and kks share the sweep's evaluation path (cov_table, and the
    # kernel's lifts with form_table), so they agree bit for bit; the sweep's
    # parallel defect differentiates Ω exactly, while this reference
    # differences reduced_form (symplectic_form on stacked lifts) centrally at
    # h = 1e-5, so the two agree to that stencil's error bar: truncation
    # h²·|∂³Ω|/6 and roundoff ε·|Ω|/h (the reference reads up to 5.6e-11 here)
    mu = dict(CATALOG_CASES)[name]
    cfg = CaseConfig.from_dict({"group": name, "mu": mu})
    rep, code = run_pipeline(cfg, "reduce")
    assert code == 0
    stage = rep["stages"]["reduce"]
    ctx = rc.build_context(rc.named_algebra(name), np.asarray(mu, dtype=float))
    chart = rc.default_chart(ctx)
    geom = rc.SigmaGeometry(ctx, chart)
    km = chart.dim
    h = 1e-5

    def omega(t, v, w):
        return rc.reduced_form(geom, v, w, t)

    def omega_coords(t, i, j):
        D = chart.dnu(t)
        return omega(t, D[:, i], D[:, j])

    torsion = kks = parallel = 0.0
    for t in np.asarray(stage["chart_points"]):
        D = chart.dnu(t)
        p = geom.kernels(t, geom.identity)[0]
        cov, lifts = p.cov, p.lifts
        pairs = kks_pairs(ctx.algebra, p.D, p.coad @ ctx.mu, geom.form_table(lifts, lifts))
        kks = max(kks, kks_gap(pairs))
        for i in range(km):
            for j in range(km):
                torsion = max(torsion, float(np.max(np.abs(cov[i][j] - cov[j][i]))))
        for x in range(km):
            e_x = np.eye(km)[x] * h
            for i in range(km):
                for j in range(km):
                    lead = (omega_coords(t + e_x, i, j) - omega_coords(t - e_x, i, j)) / (2 * h)
                    gap = lead - omega(t, cov[x][i], D[:, j]) - omega(t, D[:, i], cov[x][j])
                    parallel = max(parallel, abs(gap))
    assert stage["reduced_torsion_defect"] == torsion
    assert stage["kks_residual"] == kks
    assert abs(stage["reduced_form_parallel_defect"] - parallel) <= 1e-9


@pytest.mark.parametrize("group,mu,reason", [
    ("abelian(3)", [1.0, 0.5, -1.0], "zero-dimensional base"),
    (AFF1_NO_REALIZATION, [0.0, 1.0], "no matrix realization"),
], ids=["abelian3", "aff1-no-realization"])
def test_curvature_skip_reason(report_validator, group, mu, reason):
    # aff1 without a realization has a 2-dimensional orbit but no chart
    rep, code = run_pipeline(CaseConfig.from_dict({"group": group, "mu": mu}))
    assert code == 0
    assert rep["stages"]["reduce"]["zero_dimensional_base"] == (reason == "zero-dimensional base")
    assert rep["stages"]["curvature"] == {"status": "skipped", "reason": reason}
    report_validator.validate(_serialized(rep))
