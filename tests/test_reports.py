"""Reports against docs/report_schema.json, and reduce-stage numbers against
the library's public definitions."""

import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import scipy.linalg

import redconn as rc
from redconn import report as report_mod
from redconn.cli import main
from redconn.pipeline import THRESHOLDS, CaseConfig, run_pipeline, verify_suite
from redconn.reduction import coordinate_fields
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
    # realization coordinates and the Frechet derivative are off the hot path
    def refuse(*args, **kwargs):
        raise AssertionError("realization round trip on the hot path")

    monkeypatch.setattr(rc.LieAlgebra, "matrix_coords", refuse)
    monkeypatch.setattr(scipy.linalg, "expm_frechet", refuse)
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


def test_config_schema_lists_the_threshold_names():
    tol = _schema("config_schema.json")["properties"]["tol"]
    assert tol["propertyNames"]["enum"] == list(THRESHOLDS)


@pytest.mark.parametrize("name", ["so3", "heis3"])
def test_reduce_stage_matches_library_definitions(name):
    mu = dict(CATALOG_CASES)[name]
    cfg = CaseConfig.from_dict({"group": name, "mu": mu})
    rep, code = run_pipeline(cfg, "reduce")
    assert code == 0
    stage = rep["stages"]["reduce"]
    ctx = rc.build_context(rc.named_algebra(name), np.asarray(mu, dtype=float))
    chart = rc.default_chart(ctx, cfg.chart_radius)
    fields = coordinate_fields(chart)
    km = chart.dim
    h = cfg.fd_step

    def omega(t, v, w):
        return rc.reduced_form(ctx, chart, v, w, t)

    def omega_coords(t, i, j):
        D = chart.dnu(t)
        return omega(t, D[:, i], D[:, j])

    torsion = kks = parallel = 0.0
    for t in np.asarray(stage["chart_points"]):
        D = chart.dnu(t)
        cov = [[rc.reduced_covderiv(ctx, chart, fi, fj, t, fd_step=h) for fj in fields]
               for fi in fields]
        kks = max(kks, rc.kks_residual(ctx, chart, t))
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
    assert stage["reduced_form_parallel_defect"] == parallel
