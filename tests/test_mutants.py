"""``tools/mutants.py``: its committed mutants apply, and a smoke run on the
catalog dumps tells a killed mutant from a surviving one."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "redconn"


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


mutants = _mutants()
BY_NAME = {m["name"]: m for m in map(mutants._name_fields, mutants.MUTANTS)}


def test_every_mutant_matches_once_and_changes_its_module():
    assert len(BY_NAME) == len(mutants.MUTANTS) >= 40
    for m in BY_NAME.values():
        assert (SRC / m["module"]).read_text(encoding="utf-8").count(m["old"]) == 1, m["name"]
        assert m["old"] != m["new"] and m["kind"] in ("program", "check", "graded"), m["name"]
    assert {m["module"] for m in BY_NAME.values()} == {p.name for p in SRC.glob("*.py")}


def test_a_smoke_run_on_the_catalog_dumps_kills_one_and_keeps_one():
    # KKS_MATCH_SIGN flipped fails red/kks-match; integers written as floats
    # move every report's bytes but parse to the same exit codes and verdicts
    labels = [f"{name}-{verb}" for name in ("so3", "su2", "sl2r", "heis3", "se2")
              for verb in ("curvature", "verify")]
    killed, kept = mutants.run([BY_NAME["orbits-kks-sign"], BY_NAME["report-int-as-float"]],
                               labels=labels, with_tier1=False, log=lambda line: None)
    assert killed["status"] == "dumps" and "red/kks-match" in killed["flipped"]
    assert killed["exits"] == []
    assert kept["status"] == "survived" and kept["flipped"] == kept["exits"] == []
    assert kept["moved"] == len(labels)
    assert mutants.sole_killers([killed, kept]) == {"red/kks-match": ["orbits-kks-sign"]}


def test_a_graded_family_runs_at_every_epsilon_and_its_largest_must_be_caught():
    family = [m for m in BY_NAME.values() if m["name"].startswith("red-geometry-gamma-scaled-")]
    assert [m["kind"] for m in family] == ["graded", "graded", "program"]
    assert [m["new"].split("(1.0 + ")[1] for m in family] == ["1e-09)", "1e-07)", "1e-05)"]
    records = [dict(m, status=status) for m, status in zip(family, ("survived", "tier-1", "dumps"))]
    assert mutants.graded_catches(records) == {"red-geometry-gamma-scaled":
                                               {"any": 1e-7, "dumps": 1e-5}}
    records[1]["status"] = "pin-only"
    assert mutants.graded_catches(records) == {"red-geometry-gamma-scaled":
                                               {"any": 1e-5, "dumps": 1e-5}}


def test_a_mutant_only_the_sha256_pin_fails_is_pin_only(monkeypatch, tmp_path):
    # tier-1 whose first failure is the pin runs again without it; a second run
    # that passes leaves the mutant caught by no test of behaviour
    runs = []

    def fake(outcomes):
        def run(cmd, **kwargs):
            runs.append(cmd)
            code, out = outcomes[len(runs) - 1]
            return mutants.subprocess.CompletedProcess(cmd, code, out, "")
        return run

    pin = f"FAILED {mutants.PIN} - AssertionError: x"
    other = "FAILED tests/test_cli.py::test_x - AssertionError"
    for outcomes, want in (([(1, pin), (0, "")], ("pin-only", mutants.PIN)),
                           ([(1, pin), (1, other)], ("tier-1", other)),
                           ([(1, other)], ("tier-1", other)),
                           ([(0, "")], ("survived", None))):
        runs.clear()
        monkeypatch.setattr(mutants.subprocess, "run", fake(outcomes))
        assert mutants.tier1(tmp_path) == want
        assert len(runs) == len(outcomes)
        assert ("--deselect" in runs[-1]) is (len(outcomes) == 2)
