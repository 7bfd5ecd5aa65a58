"""The comparison rules of ``tools/compare_reports.py``, on real so3 reports."""

import ast
import copy
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from redconn import report as report_mod
from redconn.pipeline import THRESHOLDS, CaseConfig, run_pipeline, verify_suite


ROOT = Path(__file__).resolve().parent.parent


def _load_tool():
    path = ROOT / "tools" / "compare_reports.py"
    spec = importlib.util.spec_from_file_location("compare_reports", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_reports = _load_tool()


@pytest.fixture(scope="module")
def so3_dumps():
    """The so3 curvature and verify reports as ``dump`` writes and ``diff`` reads them."""
    cfg = CaseConfig.from_dict({"group": "so3", "mu": [0.0, 0.0, 1.0]})
    out = {}
    for verb, (rep, code) in (("curvature", run_pipeline(cfg, "curvature")),
                              ("verify", verify_suite(cfg))):
        rep.pop("timings", None)
        out[verb] = json.loads(report_mod.dumps({"exit_code": code, "report": rep}))
    return out


def _unchanged(doc):
    pass


def _roundoff_factor(doc):
    conv = doc["report"]["stages"]["curvature"]["convergence"]
    conv["factor"] = float(np.nextafter(conv["factor"], np.inf))


def _curvature_value(doc):
    value = np.asarray(doc["report"]["stages"]["curvature"]["samples"][0]["value"])
    value[1] += 2e-5 * max(1.0, float(np.linalg.norm(value)))
    doc["report"]["stages"]["curvature"]["samples"][0]["value"] = value.tolist()


def _defect_over_threshold(doc):
    doc["report"]["stages"]["reduce"]["kks_residual"] = 2.0 * THRESHOLDS["kks_match"]


def _key_set(doc):
    del doc["report"]["stages"]["curvature"]["convergence"]["factor"]


def _passed_flag(doc):
    check = doc["report"]["checks"][0]
    check["passed"] = not check["passed"]


def _check_added_and_roundoff(doc):
    # a new check in the middle of the list, and roundoff on a later one
    checks = doc["report"]["checks"]
    checks.insert(3, dict(checks[3], name="new/check"))
    checks[-1]["value"] = float(np.nextafter(checks[-1]["value"], np.inf))


def _check_removed(doc):
    del doc["report"]["checks"][3]


# (verb, perturbation, problem expected, float moved)
CASES = {
    "self": ("curvature", _unchanged, False, False),
    "self-verify": ("verify", _unchanged, False, False),
    "roundoff-on-unthresholded-float": ("curvature", _roundoff_factor, False, True),
    "curvature-value-off-by-2e-5": ("curvature", _curvature_value, True, True),
    "defect-over-threshold": ("curvature", _defect_over_threshold, True, True),
    "key-set": ("curvature", _key_set, True, False),
    "passed-flag": ("verify", _passed_flag, True, False),
    "check-added": ("verify", _check_added_and_roundoff, True, True),
    "check-removed": ("verify", _check_removed, True, False),
}


@pytest.mark.parametrize("name", list(CASES))
def test_compare_rules(so3_dumps, name):
    verb, perturb, problem, moved_expected = CASES[name]
    a = so3_dumps[verb]
    b = copy.deepcopy(a)
    perturb(b)
    problems, moved = compare_reports._compare(a, b, THRESHOLDS)
    assert bool(problems) == problem, problems
    assert bool(moved) == moved_expected, moved


def test_pipeline_defects_match_the_benchmark():
    # the benchmark's table is read as source, without importing or running it
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    tables = [ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign)
              and any(getattr(target, "id", None) == "PIPELINE_DEFECTS" for target in node.targets)]
    assert tables == [compare_reports.PIPELINE_DEFECTS]
    assert {key for _, key in compare_reports.PIPELINE_DEFECTS} <= set(THRESHOLDS)


def test_checks_are_matched_by_name(so3_dumps):
    # an added or removed check is named as such, and does not hide the values
    # of the other checks behind a length mismatch
    a = so3_dumps["verify"]
    b = copy.deepcopy(a)
    _check_added_and_roundoff(b)
    problems, moved = compare_reports._compare(a, b, THRESHOLDS)
    assert problems == ["/checks: check new/check added"]
    last = a["report"]["checks"][-1]["name"]
    assert [path for _, path in moved] == [f"/checks/{last}/value"]
    problems, _ = compare_reports._compare(b, a, THRESHOLDS)
    assert problems == ["/checks: check new/check removed"]
    c = copy.deepcopy(a)
    checks = c["report"]["checks"]
    checks[0], checks[1] = checks[1], checks[0]
    assert compare_reports._compare(a, c, THRESHOLDS)[0] == ["/checks: checks reordered"]
