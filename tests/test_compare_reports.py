"""The comparison rules of ``tools/compare_reports.py``, on real so3 reports."""

import ast
import copy
import importlib.util
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from redconn import report as report_mod
from redconn.pipeline import THRESHOLDS, CaseConfig, run_pipeline, verify_suite
from tests import oracles


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
    """The so3 curvature, verify and export-connection reports as ``dump``
    writes and ``diff`` reads them."""
    doc = {"group": "so3", "mu": [0.0, 0.0, 1.0]}
    cfg = CaseConfig.from_dict(doc)
    out = {}
    for verb, (rep, code) in (("curvature", run_pipeline(cfg, "curvature")),
                              ("verify", verify_suite(cfg)),
                              ("export", compare_reports._export(doc))):
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


def _as_older_dumps_parse(value):
    # older trees' report.dumps wrote each float at 17 significant digits, so a
    # whole float below 1e17 such as 0.0 as "0", which parses as an int
    if isinstance(value, dict):
        return {k: _as_older_dumps_parse(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_as_older_dumps_parse(v) for v in value]
    if isinstance(value, float) and math.isfinite(value):
        return json.loads(format(value, ".17g"))
    return value


def _roundoff_gamma(doc):
    gamma = doc["report"]["connection"]["evaluations"][1]["gamma"]
    gamma[0][1][2] = float(np.nextafter(gamma[0][1][2], np.inf))


def _export_label(doc):
    doc["report"]["connection"]["label"] = "baseline"


def _whole_floats_as_ints(doc):
    doc["report"] = _as_older_dumps_parse(doc["report"])
    assert [type(v) for v in doc["report"]["config"]["mu"]] == [int, int, int]  # μ = (0, 0, 1)


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
    "whole-floats-as-ints": ("verify", _whole_floats_as_ints, False, False),
    "self-export": ("export", _unchanged, False, False),
    "roundoff-on-exported-gamma": ("export", _roundoff_gamma, False, True),
    "exported-label": ("export", _export_label, True, False),
}


def test_export_cases(so3_dumps):
    # so3 and so(4) regular, each without and with an xi_list, at the default
    # connection, and so3 at the baseline with an xi_list; the so3 one is the
    # report the CLI writes
    exports = {label: doc for label, verb, doc in compare_reports._cases()
               if verb == "export-connection"}
    assert sorted(exports) == ["so3-baseline-export-xi", "so3-export", "so3-export-xi",
                               "so4-regular-export", "so4-regular-export-xi"]
    for label, doc in exports.items():
        assert doc.get("connection", "symplectic") == (
            "baseline" if "baseline" in label else "symplectic")
        assert ("xi_list" in doc) == label.endswith("-xi")
    report = so3_dumps["export"]
    assert report["exit_code"] == 0
    assert report["report"]["config"] == CaseConfig.from_dict(exports["so3-export"]).as_dict()
    assert report["report"]["connection"]["label"] == "symplectized(baseline)"


@pytest.fixture(scope="module")
def dump_run(tmp_path_factory):
    """The directory ``dump`` fills from this tree's ``src``, and for each text
    ``report.dumps`` writes on the way (the export reports the CLI writes among
    them) whether it is the text ``json.dumps`` writes."""
    out = tmp_path_factory.mktemp("dump")
    dumps, as_json = report_mod.dumps, []

    def checked(report):
        text = dumps(report)
        as_json.append(text == oracles.json_dumps(report))
        return text

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(report_mod, "dumps", checked)
        assert compare_reports.dump(str(ROOT / "src"), str(out)) == 0
    return out, as_json


@pytest.fixture(scope="module")
def dumped(dump_run):
    return dump_run[0]


def test_every_dumped_report_is_written_as_json_writes_it(dump_run):
    # each dumped file, and each export report the CLI writes before dump reads it
    _, as_json = dump_run
    exports = sum(verb == "export-connection" for _, verb, _ in compare_reports._cases())
    assert as_json == [True] * (len(compare_reports._cases()) + exports)


def test_every_dumped_report_is_strict_json(dumped):
    # JSON has no Infinity or NaN: a report carrying one is rejected whole by
    # strict parsers (a flat case's convergence factor is null, not Infinity)
    def reject(constant):
        raise ValueError(f"{constant} in a report")

    paths = sorted(dumped.glob("*.json"))
    assert len(paths) == len(compare_reports._cases())
    for path in paths:
        json.loads(path.read_text(), parse_constant=reject)
    flat = json.loads((dumped / "heis3-curvature.json").read_text())
    assert flat["report"]["stages"]["curvature"]["convergence"]["factor"] is None


def _holds_the_reference(got: dict, versions: dict) -> bool:
    """Check a dump's ``summary`` against the committed reference: exit codes,
    verdicts and defect names exactly; with the numpy and BLAS builds, the BLAS
    core and the machine type the reference was made with (``versions``, as
    ``library_versions`` reads them), every dumped file bit for bit, and
    otherwise every defect under its threshold there stays under it.  Returns
    whether the sha256s were compared; they are not where the core is unknown."""
    reference = json.loads((ROOT / "tests" / "reference_reports.json").read_text())
    assert list(got) == list(reference["reports"])
    same_builds = versions == reference["versions"] and versions["blas_core"] is not None
    for label, want in reference["reports"].items():
        have = got[label]
        assert (have["exit_code"], have["verdicts"]) == (want["exit_code"], want["verdicts"]), label
        assert list(have["defects"]) == list(want["defects"]), label
        if same_builds:
            assert have["sha256"] == want["sha256"], label
        for name, (value, threshold) in want["defects"].items():
            assert value > threshold or have["defects"][name][0] <= threshold, (label, name)
    return same_builds


def test_dumps_match_the_committed_reference(dumped):
    _holds_the_reference(compare_reports.summary(dumped, THRESHOLDS),
                         compare_reports.library_versions())


# the OpenBLAS core that a second run of the dump is forced to, by machine type
FOREIGN_CORES = {"x86_64": "Prescott"}


def test_dumps_on_another_blas_core_hold_the_reference(tmp_path):
    # numpy's OpenBLAS picks its kernels by CPU at run time, so another CPU's
    # dumps may move bits: a child forced to another core reads that core, and
    # its dumps still meet the reference's exit codes, verdicts and thresholds
    machine, core = platform.machine(), compare_reports.blas_core()
    if machine not in FOREIGN_CORES or core is None:
        pytest.skip(f"no second OpenBLAS core is named for {machine} (core {core}): "
                    "the reference test compares the native run only")
    env = dict(os.environ)
    # a run that already forces a core leaves the child OpenBLAS's own pick
    if env.pop("OPENBLAS_CORETYPE", None) is None:
        env["OPENBLAS_CORETYPE"] = FOREIGN_CORES[machine]
    out = tmp_path / "reference.json"
    subprocess.run([sys.executable, str(ROOT / "tools" / "compare_reports.py"), "reference",
                    str(ROOT / "src"), str(out)], env=env, check=True, capture_output=True,
                   timeout=600)
    child = json.loads(out.read_text())
    assert child["versions"]["blas_core"] not in (None, core)
    # by the roundoff rule; bit for bit only if the child ran the reference's core
    _holds_the_reference(child["reports"], child["versions"])


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
    # the one exception: the benchmark's table keeps the row of the connect
    # stage's closed-form residual, whose check left for the test suite and
    # whose report entry no report holds any more, so its key is read for none
    dead = (("connect", "baseline_closed_form_residual"), "baseline_closed_form")
    assert [row for row in compare_reports.PIPELINE_DEFECTS
            if row[1] not in THRESHOLDS] == [dead]
    reference = json.loads((ROOT / "tests" / "reference_reports.json").read_text())
    assert not any("/".join(dead[0]) in entry["defects"]
                   for entry in reference["reports"].values())


def test_diff_reads_no_threshold_for_a_defect_key_this_tree_dropped(so3_dumps, tmp_path,
                                                                    capsys):
    # dumps of trees that still ran the connect stage's closed-form residual
    # hold connect.baseline_closed_form_residual, whose THRESHOLDS key this
    # tree has no more: diff names the removed entry as a problem, not a crash
    b = so3_dumps["curvature"]
    a = copy.deepcopy(b)
    connect = a["report"]["stages"]["connect"]
    a["report"]["stages"]["connect"] = {"status": connect["status"],
                                        "connection": connect["connection"],
                                        "baseline_closed_form_residual": 3.2e-15, **connect}
    assert "baseline_closed_form" not in THRESHOLDS
    assert "connect/baseline_closed_form_residual" not in compare_reports._defects(
        a["report"], THRESHOLDS)
    for side, doc in (("a", a), ("b", b)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "so3-curvature.json").write_text(report_mod.dumps(doc))
    assert compare_reports.main(["diff", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    out = capsys.readouterr().out
    assert ("  PROBLEM /stages/connect: keys ['status', 'connection', "
            "'baseline_closed_form_residual', ") in out
    assert out.endswith("problems: see above\n")


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


def test_allow_added_names_the_expected_checks(so3_dumps, tmp_path, capsys):
    # an added check named by --allow-added is no problem; any other added
    # check, and a removed one even when named, still is
    a = so3_dumps["verify"]
    b = copy.deepcopy(a)
    _check_added_and_roundoff(b)
    b["report"]["checks"].append(dict(b["report"]["checks"][0], name="other/check"))
    problems, moved = compare_reports._compare(a, b, THRESHOLDS, ("new/check",))
    assert problems == ["/checks: check other/check added"] and moved
    assert compare_reports._compare(b, a, THRESHOLDS, ("new/check",))[0] == [
        "/checks: check new/check removed", "/checks: check other/check removed"]
    for side, doc in (("a", a), ("b", b)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "so3-verify.json").write_text(json.dumps(doc))
    args = ["diff", str(tmp_path / "a"), str(tmp_path / "b"), "--allow-added", "new/check"]
    assert compare_reports.main(args) == 1
    assert capsys.readouterr().out.endswith("  PROBLEM /checks: check other/check added\n"
                                            "problems: see above\n")
    assert compare_reports.main(args + ["--allow-added", "other/check"]) == 0
    assert capsys.readouterr().out.endswith("problems: none\n")


def test_allow_removed_names_the_expected_checks(so3_dumps, tmp_path, capsys):
    # the mirror of --allow-added: a removed check it names is no problem, any
    # other removed check still is, and so is an added one even when named
    a = so3_dumps["verify"]
    b = copy.deepcopy(a)
    removed = [check["name"] for check in b["report"]["checks"][3:5]]
    del b["report"]["checks"][3:5]
    problems, moved = compare_reports._compare(a, b, THRESHOLDS, (), removed[:1])
    assert problems == [f"/checks: check {removed[1]} removed"] and not moved
    assert compare_reports._compare(b, a, THRESHOLDS, (), removed)[0] == [
        f"/checks: check {name} added" for name in removed]
    for side, doc in (("a", a), ("b", b)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "so3-verify.json").write_text(json.dumps(doc))
    args = ["diff", str(tmp_path / "a"), str(tmp_path / "b"), "--allow-removed", removed[0]]
    assert compare_reports.main(args) == 1
    assert capsys.readouterr().out.endswith(f"  PROBLEM /checks: check {removed[1]} removed\n"
                                            "problems: see above\n")
    assert compare_reports.main(args + ["--allow-removed", removed[1]]) == 0
    assert capsys.readouterr().out.endswith("problems: none\n")


def test_ignore_reaches_a_field_of_a_verify_check(so3_dumps, tmp_path, capsys):
    # check names contain "/": the path /checks/<name>/<field> drops that field
    # of the named check alone, on both sides
    a = so3_dumps["verify"]
    b = copy.deepcopy(a)
    check = next(c for c in b["report"]["checks"] if c["name"] == "curv/symplectic-valued")
    check["note"] = "another note"
    for side, doc in (("a", a), ("b", b)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "so3-verify.json").write_text(report_mod.dumps(doc))
    args = ["diff", str(tmp_path / "a"), str(tmp_path / "b")]
    assert compare_reports.main(args) == 1
    assert "PROBLEM /checks/curv/symplectic-valued/note: '' != 'another note'" in (
        capsys.readouterr().out)
    for other in ("/checks/curv/bianchi/note", "/checks/curv/symplectic/note"):
        assert compare_reports.main(args + ["--ignore", other]) == 1
        capsys.readouterr()
    assert compare_reports.main(args + ["--ignore", "/checks/curv/symplectic-valued/note"]) == 0
    out = capsys.readouterr().out
    assert "identical apart from /checks/curv/symplectic-valued/note (1): so3-verify\n" in out
    dropped = copy.deepcopy(a["report"])
    compare_reports._drop(dropped, "/checks/curv/symplectic-valued/note")
    assert [c for c in dropped["checks"] if "note" not in c] == [
        {k: v for k, v in check.items() if k != "note"}]


def test_diff_prints_headroom_on_both_sides(so3_dumps, tmp_path, capsys):
    # each differing dump's headroom, min log10(threshold / value) over the
    # thresholded defects, is printed for both sides with the defect that sets
    # it; a lower headroom under every threshold is printed, not judged
    a = so3_dumps["verify"]
    b = copy.deepcopy(a)
    kks = next(c for c in b["report"]["checks"] if c["name"] == "red/kks-match")
    kks["value"] = kks["threshold"] / 10.0 ** 0.5
    for side, doc in (("a", a), ("b", b)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "so3-verify.json").write_text(json.dumps(doc))
    defects = compare_reports._defects(a["report"], THRESHOLDS)
    headroom, setter = compare_reports._headroom(defects)
    assert headroom == min(math.log10(c["threshold"] / c["value"]) for c in a["report"]["checks"]
                           if c["threshold"] > 0 and 0 < c["value"] <= c["threshold"])
    assert headroom > 0.5 and setter != "red/kks-match"
    assert compare_reports.diff(str(tmp_path / "a"), str(tmp_path / "b")) == 0
    out = capsys.readouterr().out
    assert f"  headroom {headroom:.3f} dec ({setter}) -> 0.500 dec (red/kks-match)\n" in out
    assert out.endswith("problems: none\n")


def test_ignore_drops_a_key_from_both_reports(so3_dumps, tmp_path, capsys):
    # a reshaped reduce.autoparallel: the file that differs only there is listed
    # as identical apart from it, and one that also moves a float is still compared
    a = so3_dumps["curvature"]
    reshaped = copy.deepcopy(a)
    autoparallel = reshaped["report"]["stages"]["reduce"]["autoparallel"]
    reshaped["report"]["stages"]["reduce"]["autoparallel"] = {"left": autoparallel}
    moved = copy.deepcopy(reshaped)
    _roundoff_factor(moved)
    for side, docs in (("a", (a, a)), ("b", (reshaped, moved))):
        (tmp_path / side).mkdir()
        for label, doc in zip(("so3-curvature", "so3-moved-curvature"), docs):
            (tmp_path / side / f"{label}.json").write_text(report_mod.dumps(doc))
    args = ["diff", str(tmp_path / "a"), str(tmp_path / "b")]
    assert compare_reports.main(args) == 1
    assert "PROBLEM /stages/reduce/autoparallel: keys" in capsys.readouterr().out
    assert compare_reports.main(args + ["--ignore", "/stages/reduce/autoparallel"]) == 0
    out = capsys.readouterr().out
    assert "identical apart from /stages/reduce/autoparallel (1): so3-curvature\n" in out
    assert "differing (1): so3-moved-curvature\n" in out
    assert "so3-moved-curvature: 1 floats moved" in out and out.endswith("problems: none\n")
    # the key is dropped from both sides, and a path that is not there drops nothing
    assert compare_reports.main(args + ["--ignore", "/stages/reduce/nothing"]) == 1
