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
        assert m["old"] != m["new"] and m["kind"] in ("program", "check"), m["name"]
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
