"""The summary of ``tools/ab_pairs.py`` on fixed runs: quartiles, wins, the
claim rule and the regression bound."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_tool():
    spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "tools" / "ab_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab_pairs = _load_tool()

SPEC = {"end_to_end": [{"name": "wall_rel", "unit": "probe", "better": "lower", "bound": 0.2},
                       {"name": "headroom_dec", "unit": "dec", "better": "higher",
                        "bound": 0.25}]}
# ten seeds; the change's wall_rel is 0.1 lower on every seed but the last, where
# it ties, and its headroom is 0.5 lower on every seed (a regression of 25% at
# the parent's median of 2.0, exactly at the bound)
PARENT_WALL = [1.0, 1.3, 1.1, 1.2, 1.05, 1.25, 1.15, 1.35, 1.0, 1.4]


def _runs():
    runs = []
    for i, seed in enumerate(range(41, 51)):
        for side, wall, head in (("parent", PARENT_WALL[i], 2.0),
                                 ("change", PARENT_WALL[i] - (0.1 if i < 9 else 0.0), 1.5)):
            runs.append({"workload": "so4-full", "seed": seed, "side": side,
                         "metrics": {"wall_rel": {"value": wall, "unit": "probe"},
                                     "headroom_dec": {"value": head, "unit": "dec"}},
                         "correct": True, "attempted": 10 + i,
                         "failed": int(side == "change" and i == 3)})
    return runs


def _traced():
    """One traced run per side on the first seed: counts, a time, and a count
    only the change's tracer has."""
    def record(side, exps, extra):
        return {"workload": "so4-full", "seed": 41, "side": side, "correct": True,
                "attempted": 4, "failed": 0,
                "metrics": {"liealg.group_exp.calls": {"value": exps, "unit": "count"},
                            "pipeline.verify_s": {"value": 0.01, "unit": "s"}, **extra}}

    return [record("parent", 16, {}),
            record("change", 8, {"kernel.inv.calls": {"value": 44, "unit": "count"}})]


def test_summary_on_fixed_runs():
    (name, out), = ab_pairs.summarize(_runs(), SPEC, _traced()).items()
    assert name == "so4-full" and out["seeds"] == list(range(41, 51))
    assert out["failed"] == {"parent": 0, "change": 1}
    assert out["attempted"] == {"parent": 145, "change": 145} and out["correct"]
    wall = out["metrics"]["wall_rel"]
    # sorted parent: 1.0 1.0 1.05 1.1 1.15 1.2 1.25 1.3 1.35 1.4; q1 at rank 2.25
    assert wall["parent"]["runs"] == PARENT_WALL
    assert wall["parent"]["median"] == pytest.approx(1.175)
    assert wall["parent"]["q1"] == pytest.approx(1.0625)
    assert wall["parent"]["q3"] == pytest.approx(1.2875)
    assert wall["parent"]["iqr"] == pytest.approx(0.225)
    assert wall["change_wins"] == "9/10" and wall["unit"] == "probe"
    # 9/10 wins, but the medians differ by less than the parent's IQR
    assert wall["change"]["median"] == pytest.approx(1.075)
    assert not wall["claim_met"] and wall["within_bound"]
    assert wall["median_change_rel"] == pytest.approx(-0.1 / 1.175)
    head = out["metrics"]["headroom_dec"]
    assert head["change_wins"] == "0/10" and head["parent"]["iqr"] == 0.0
    assert head["median_change_rel"] == pytest.approx(-0.25)
    assert head["within_bound"] and not head["claim_met"]
    # counts only, parent beside change, in the order the sides name them
    assert out["counts"] == {"liealg.group_exp.calls": {"parent": 16, "change": 8},
                             "kernel.inv.calls": {"parent": None, "change": 44}}


def test_claim_and_bound_rules():
    steady = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    faster = [v * 0.9 for v in steady]
    assert ab_pairs.summarize_metric(steady, faster, "lower", 0.2)["claim_met"]
    # the same gap read on a higher-is-better metric is a loss, and past a 5% bound
    lost = ab_pairs.summarize_metric(steady, faster, "higher", 0.05)
    assert lost["change_wins"] == "0/10" and not lost["claim_met"] and not lost["within_bound"]
    # eight wins of ten are short of the claim rule, whatever the gap
    mixed = faster[:8] + steady[8:]
    assert ab_pairs.summarize_metric(steady, mixed, "lower", 0.2)["change_wins"] == "8/10"
    assert not ab_pairs.summarize_metric(steady, mixed, "lower", 0.2)["claim_met"]
