"""``verify_suite`` runs the pipeline's stages and reads their results: the values
and the work of ``run_pipeline(cfg, "curvature")``, with a pinned check list."""

from types import SimpleNamespace

import numpy as np
import pytest

from redconn import connections, liealg, phasespace, pipeline, reduction
from redconn.errors import RankLoss
from redconn.pipeline import (EXIT_ASSUMPTION, EXIT_NUMERICAL, THRESHOLDS, CaseConfig, _record,
                              run_pipeline, verify_suite)
from tests.conftest import perfbench_cases, track_geometries

# verify check -> (the run_pipeline(cfg, "curvature") report entry it mirrors,
# its THRESHOLDS key)
REPORT_ENTRIES = {
    "phase/tperp-span": (("validate", "level_set_checks", "tperp_equals_generator_span"),
                         "tperp_span"),
    "conn/baseline-closed-form": (("connect", "baseline_closed_form_residual"),
                                  "baseline_closed_form"),
    "conn/torsion": (("connect", "torsion_defect"), "symplectized_torsion"),
    "conn/nabla-omega": (("connect", "nabla_omega_defect"), "symplectized_nabla_omega"),
    "red/s-isotropic": (("reduce", "isotropy_defect"), "isotropy"),
    "red/projector-idempotent": (("reduce", "projector_defect"), "projector_idempotent"),
    "red/reduced-torsion": (("reduce", "reduced_torsion_defect"), "reduced_torsion"),
    "red/kks-match": (("reduce", "kks_residual"), "kks_match"),
    "red/reduced-form-parallel": (("reduce", "reduced_form_parallel_defect"),
                                  "reduced_form_parallel"),
    "red/fiber-independence": (("reduce", "fiber_independence"), "fiber_independence"),
    "red/autoparallel-independence": (("reduce", "autoparallel", "independence"),
                                      "fiber_independence"),
    "curv/formula-oracle": (("curvature", "max_discrepancy"), "curvature_agreement"),
    "curv/antisymmetry": (("curvature", "symmetry", "antisymmetry_defect"),
                          "curvature_antisymmetry"),
    "curv/symplectic-valued": (("curvature", "symmetry", "symplectic_defect"),
                               "curvature_symplectic"),
    "curv/bianchi": (("curvature", "symmetry", "bianchi_defect"), "curvature_bianchi"),
}
# mirrored checks whose values the chart sweep computes but the reduce stage
# does not report: check -> (sweep entry, THRESHOLDS key)
SWEEP_ENTRIES = {"red/reduced-oracle": ("oracle", "reduced_oracle"),
                 "red/reduced-form-closed": ("closed", "reduced_form_closed"),
                 "red/lift-projection": ("projection", "lift_projection")}


def _doc(label: str) -> dict:
    cases = perfbench_cases()
    table = cases.so4_full_cases(1) if label.startswith("so4") else cases.catalog_cli_cases(1)
    return dict(next(c for c in table if c["label"] == f"{label}-curvature")["config"],
                samples=2)


def _dig(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@pytest.mark.parametrize("label", ["so3", "se2", "so4-regular"])
def test_mirrored_checks_read_the_stage_values(monkeypatch, label):
    # tol_scale moves every threshold and no stage value
    cfg = CaseConfig.from_dict(dict(_doc(label), tol_scale=2.0))
    sweeps = []
    chart_sweep = pipeline._chart_sweep

    def recorded(*args):
        sweeps.append(chart_sweep(*args))
        return sweeps[-1]

    monkeypatch.setattr(pipeline, "_chart_sweep", recorded)
    rep, code = run_pipeline(cfg, "curvature")
    assert code == 0
    stages = rep["stages"]
    ver, code = verify_suite(cfg)
    assert code == 0
    checks = {c["name"]: c for c in ver["checks"]}
    compared = 0
    for name, (path, key) in REPORT_ENTRIES.items():
        if name in checks:
            assert checks[name]["value"] == _dig(stages, path), name
            assert checks[name]["threshold"] == cfg.threshold(key) == 2.0 * THRESHOLDS[key]
            compared += 1
    for name, (entry, key) in SWEEP_ENTRIES.items():
        assert checks[name]["value"] == sweeps[0][entry], name
        assert checks[name]["threshold"] == cfg.threshold(key) == 2.0 * THRESHOLDS[key]
    assert compared >= 14
    reduced = stages["reduce"]
    assert checks["red/geodesic-oracle"]["note"] == \
        f"defect {reduced['totally_geodesic_defect']:.3e}"
    auto = checks.get("red/autoparallel-independence", checks.get("red/autoparallel-report"))
    assert auto["note"] == f"defect {reduced['autoparallel']['defect']:.3e}"
    conv = stages["curvature"]["convergence"]
    assert checks["curv/convergence-factor"]["note"] in (f"factor {conv['factor']:.1f}",
                                                         "flat, below floor")


@pytest.mark.parametrize("label", ["so3", "so4-regular"])
def test_verify_builds_no_more_than_the_pipeline(monkeypatch, label):
    cfg = CaseConfig.from_dict(_doc(label))
    calls = []

    def counted(module, name):
        route = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return route(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    # the reduce stage builds its context through the pipeline's import, the
    # autoparallel check its second one through the reduction module's; ω(μ)
    # is built by each context and read from it everywhere else
    for module, name in ((pipeline, "build_context"), (reduction, "build_context"),
                         (pipeline, "_chart_sweep"), (pipeline, "curvature_battery"),
                         (reduction, "omega_gram")):
        counted(module, name)
    geometries = track_geometries(monkeypatch)
    counts = []
    for run in (lambda: run_pipeline(cfg, "curvature"), lambda: verify_suite(cfg)):
        calls.clear()
        geometries.clear()
        _, code = run()
        assert code == 0
        counts.append({"calls": sorted(calls), "geometries": len(geometries),
                       "tables": sum(len(g._tables) for g in geometries)})
    assert counts[0] == counts[1]
    assert {"build_context", "_chart_sweep", "curvature_battery"} <= set(counts[0]["calls"])
    assert counts[0]["calls"].count("omega_gram") == counts[0]["calls"].count("build_context")
    assert counts[0]["tables"] > counts[0]["geometries"] > 0


@pytest.mark.parametrize("label", ["so3", "so4-regular"])
def test_one_stabilizer_solve_per_constraint_split(monkeypatch, label):
    # the constraint split is the one caller of the stabilizer solve, and
    # build_context reads the basis from its split
    calls = []
    for name, route in (("stabilizer_algebra", liealg.stabilizer_algebra),
                        ("constraint_split", phasespace.constraint_split)):
        def wrapper(*args, _name=name, _route=route, **kwargs):
            calls.append(_name)
            return _route(*args, **kwargs)

        for module in (liealg, phasespace, reduction, pipeline):
            if getattr(module, name, None) is route:
                monkeypatch.setattr(module, name, wrapper)
    cfg = CaseConfig.from_dict(_doc(label))
    for run in (lambda: run_pipeline(cfg, "curvature"), lambda: verify_suite(cfg)):
        calls.clear()
        assert run()[1] == 0
        assert calls.count("constraint_split") > 0
        assert calls.count("stabilizer_algebra") == calls.count("constraint_split")


@pytest.mark.parametrize("label", ["so4-regular", "so4-singular", "so5-regular",
                                   "so5-singular"])
def test_each_connection_is_evaluated_once_per_xi(monkeypatch, label):
    # Γ(ξ) of the symplectized connection is evaluated once per ξ sample in a
    # run: the connect stage's torsion and ∇ω and build_context's Γ(μ) read
    # the same arrays.  verify adds the symplectization applied again at each
    # ξ and the pulled-back connection at each moved ξ, each pair once
    calls = []
    evaluate = connections.symplectized_coefficients

    def counted(conn, xi, gamma=None):
        calls.append((id(conn), np.asarray(xi).tobytes()))
        return evaluate(conn, xi, gamma)

    for module in (connections, pipeline):
        monkeypatch.setattr(module, "symplectized_coefficients", counted)
    cases = perfbench_cases()
    case = next(c for c in cases.so4_full_cases(1) + cases.so5_reduce_cases(1)
                if c["label"].startswith(label))
    cfg = CaseConfig.from_dict(case["config"])
    assert run_pipeline(cfg, "reduce" if label.startswith("so5") else "curvature")[1] == 0
    assert len(calls) == len(set(calls)) == 4
    calls.clear()
    assert verify_suite(cfg)[1] == 0
    assert len(calls) == len(set(calls)) <= 12


LIE = ["lie/antisymmetry", "lie/jacobi", "lie/bracket-pairing-antisymmetry",
       "lie/stabilizer-annihilation"]
LIE_GROUP = ["lie/coad-fixes-mu", "lie/ad-homomorphism", "lie/coad-group-law"]
PHASE = ["phase/omega-closed", "phase/tsigma-delta-pairing", "phase/tperp-span",
         "phase/radical-span", "phase/split-dims"]
CONN = ["conn/baseline-torsion", "conn/baseline-closed-form", "conn/torsion",
        "conn/nabla-omega", "conn/a-symmetry", "conn/symplectize-idempotent"]
RED = ["red/s-isotropic", "red/projector-idempotent", "red/projector-range",
       "red/projector-kernel", "red/alpha-identities", "red/delta-tsigma-pairing"]
RED_LEVEL = ["red/l-equivariance", "red/geodesic-oracle"]
CHART = ["red/sigma-equivariance", "red/sigma-torsion", "red/reduced-torsion",
         "red/reduced-oracle", "red/kks-match", "red/reduced-form-parallel",
         "red/reduced-form-closed", "red/fiber-independence", "red/lift-projection",
         "red/jet-fd",
         "red/autoparallel-report"]
CURV = ["curv/formula-oracle", "curv/antisymmetry", "curv/symplectic-valued", "curv/bianchi",
        "curv/convergence-factor"]
SO3_NAMES = (LIE + ["lie/complement-equivariance"] + LIE_GROUP + PHASE + CONN
             + ["conn/right-invariance"] + RED + ["red/w1-omega-nondegenerate"] + RED_LEVEL
             + CHART + CURV + ["avg/torsion-free", "avg/node-fixed"])
PINNED_NAMES = {
    "so3": ({"group": "so3", "mu": [0.0, 0.0, 1.0]}, SO3_NAMES),
    "aff1-no-realization": (
        {"group": perfbench_cases().AFF1_NO_REALIZATION, "mu": [0.0, 1.0]},
        LIE + LIE_GROUP + PHASE + CONN + ["conn/right-invariance"] + RED
        + ["red/w1-omega-nondegenerate"] + RED_LEVEL + ["red/autoparallel-report"]),
    "abelian3": ({"group": "abelian(3)", "mu": [1.0, 0.5, -1.0]},
                 LIE + LIE_GROUP + PHASE + CONN + ["conn/right-invariance"] + RED + RED_LEVEL
                 + ["red/autoparallel-report"]),
    "so4-regular": (None, SO3_NAMES[:-2]),
}


@pytest.mark.parametrize("label", list(PINNED_NAMES))
def test_check_names_in_order(label):
    doc, names = PINNED_NAMES[label]
    rep, code = verify_suite(CaseConfig.from_dict(doc or _doc(label)))
    assert code == 0
    assert [c["name"] for c in rep["checks"]] == names


def test_nonreductive_stabilizer_keeps_its_exit_code():
    rep, code = verify_suite(CaseConfig.from_dict({"group": "sl2r", "mu": [0.0, 1.0, 0.0]}))
    assert code == EXIT_ASSUMPTION == 3
    assert rep["error"]["type"] == "NonReductiveStabilizer"
    assert rep["passed"] is False


@pytest.mark.parametrize("stage", pipeline.STAGES)
def test_numerical_error_exits_four_and_others_propagate(monkeypatch, stage):
    def fail(cfg, run):
        raise error

    monkeypatch.setitem(pipeline._STAGE_RUNS, stage, fail)
    cfg = CaseConfig.from_dict({"group": "so3", "mu": [0.0, 0.0, 1.0], "samples": 2})
    error = RankLoss("x")
    rep, code = run_pipeline(cfg, "curvature")
    assert code == EXIT_NUMERICAL == 4
    assert rep["error"] == {"type": "RankLoss", "message": "x", "stage": stage}
    rep, code = verify_suite(cfg)
    assert code == EXIT_NUMERICAL
    assert rep["error"] == {"type": "RankLoss", "message": "x", "stage": "verify"}
    assert rep["passed"] is False
    # an error outside the library's numerical and configuration failures is a bug
    error = KeyError("x")
    for run in (run_pipeline, verify_suite):
        with pytest.raises(KeyError):
            run(cfg)


def test_every_threshold_is_read_by_some_check():
    # each THRESHOLDS key gets a distinct value; every one of them is some
    # check's threshold on so3, where every part of the battery runs
    tol = {key: 1.0 + i for i, key in enumerate(THRESHOLDS)}
    rep, _ = verify_suite(CaseConfig.from_dict({"group": "so3", "mu": [0.0, 0.0, 1.0],
                                                "tol": tol}))
    assert rep["error"] is None
    used = {c["threshold"] for c in rep["checks"]}
    assert [key for key, value in tol.items() if value not in used] == []


def test_convergence_note_prints_the_factor_to_its_precision():
    cfg = CaseConfig.from_dict({"group": "so3", "mu": [0.0, 0.0, 1.0]})

    def note(conv):
        # the curvature part of the battery on a curvature stage holding conv
        stage = {"max_discrepancy": 0.0, "convergence": conv,
                 "symmetry": dict.fromkeys(("antisymmetry_defect", "symplectic_defect",
                                            "bianchi_defect"), 0.0)}
        run = SimpleNamespace(geom=object(), stages={"curvature": stage})
        *_, check = pipeline._verify_curvature(cfg, run)
        return _record(cfg, *check)

    # the factor carries roundoff of about ±0.01
    a, b = (note({"oracle_error_coarse": 1e-5, "factor": f}) for f in (4.003, 3.993))
    assert a["note"] == b["note"] == "factor 4.0"
    assert a["passed"] and b["passed"]
    assert not note({"oracle_error_coarse": 1e-5, "factor": 5.5})["passed"]
    flat = note({"oracle_error_coarse": 1e-7, "factor": 0.9})
    assert flat["passed"] and flat["note"] == "flat, below floor"
    assert a["value"] == 0.0 and a["threshold"] == 0.0
    # numpy floats compare to numpy bools, which are not Python bools: the
    # verdict must still be recorded as a verdict, not as the defect 1.0
    c = note({"oracle_error_coarse": np.float64(1e-5), "factor": np.float64(4.0)})
    assert c["passed"] is True and c["value"] == c["threshold"] == 0.0
    for verdict in (np.bool_(True), np.bool_(False)):
        check = _record(cfg, "x", verdict)
        assert check["passed"] is bool(verdict)
        assert check["value"] == check["threshold"] == 0.0


def test_jet_fd_check_catches_a_sign_flipped_fiber_term(monkeypatch):
    # the check differences along the stabilizer generators too, so a wrong
    # fiber half of the jet shows even at the sweep's first point, t = 0,
    # where the lifts move along the chart only
    cfg = CaseConfig.from_dict({"group": "so3", "mu": [0.0, 0.0, 1.0], "samples": 1})
    rep, code = verify_suite(cfg)
    checks = {c["name"]: c for c in rep["checks"]}
    assert code == 0 and checks["red/jet-fd"]["value"] <= 1e-9
    init = reduction.SigmaGeometry.__init__

    def flipped(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.ad_fiber_T = -self.ad_fiber_T

    monkeypatch.setattr(reduction.SigmaGeometry, "__init__", flipped)
    rep, code = verify_suite(cfg)
    assert code == pipeline.EXIT_NUMERICAL == 4
    failed = [c["name"] for c in rep["checks"] if not c["passed"]]
    assert failed == ["red/jet-fd"]
