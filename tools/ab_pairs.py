"""Run alternating perfbench pairs on two revisions and summarize them.

    python3 tools/ab_pairs.py <parent-rev> <change-rev> <work-dir> <out.json> --seeds FIRST-LAST

Each revision is extracted with ``git archive`` into its own directory under
``<work-dir>`` (which must not exist yet), so neither copy carries a
``__pycache__``, and every run has ``PYTHONDONTWRITEBYTECODE=1``, so neither
copy gains one: both sides pay the same bytecode compilation in ``setup_s``.
For each workload ``BENCHMARK.json`` lists and each seed, one
``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0``
runs on each side, ``S`` being ``BENCHMARK.json``'s ``run_seconds``; the side
that runs first alternates from seed to seed, the parent first on the first.
Each run's last stdout line (the metrics) is printed as it arrives.  After the
timed pairs, ``perfbench/run.py --trace 1`` runs once per side and workload, on
the first seed for ``TRACE_SECONDS``: its per-layer metrics of unit ``count``
(calls per pass) repeat exactly from run to run, so a gain in seconds can be
read against the calls it saved.

``<out.json>`` holds every run and, per workload and end-to-end metric of the
change's ``BENCHMARK.json``, each side's runs, median and quartiles (linear
interpolation between order statistics), the change's wins over the pairs (a
tie counts for neither), the relative change of the medians, whether a gain
may be claimed (the change wins at least nine tenths of the pairs and its
median is better than the parent's by more than the parent's interquartile
range) and whether the change's median stays within the metric's bound
(worse than the parent's median by at most ``bound``, relative), and the
traced counts, parent and change side by side.  The standard library alone runs it.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLAIM_WINS = 0.9  # the share of pairs a claimed gain must win
TRACE_SECONDS = 1  # a traced run's length: whole passes, at least one
CLAIM_RULE = ("a gain is claimed when the change wins at least nine tenths of the pairs "
              "(ties count for neither) and the medians differ, in the better direction, "
              "by more than the parent's interquartile range")


def extract(rev: str, dest: Path) -> str:
    """Extract ``rev`` of this repository into ``dest``; returns its commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, check=True,
                         capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return commit


def src_sha256(tree: Path) -> str:
    """SHA-256 over each ``src/**/*.py`` in sorted path order: path, NUL, file bytes."""
    digest = hashlib.sha256()
    for path in sorted(tree.glob("src/**/*.py")):
        digest.update(str(path.relative_to(tree)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One perfbench run in ``tree``: its result line, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> dict:
    """Median, quartiles and interquartile range, interpolating linearly between
    order statistics (as numpy's default percentile does)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": list(values), "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize_metric(parent: list, change: list, better: str, bound: float) -> dict:
    """The comparison of one metric's paired runs (``parent[i]`` with ``change[i]``)."""
    sign = 1.0 if better == "lower" else -1.0  # sign · (change − parent) < 0: change better
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p, c = quartiles(parent), quartiles(change)
    gain = sign * (p["median"] - c["median"])  # > 0 when the change's median is better
    rel = (c["median"] - p["median"]) / p["median"] if p["median"] else None
    return {"parent": p, "change": c, "better": better, "bound": bound,
            "change_wins": f"{wins}/{len(parent)}", "median_change_rel": rel,
            "claim_met": wins >= CLAIM_WINS * len(parent) and gain > p["iqr"],
            "within_bound": rel is None or sign * rel <= bound}


def count_columns(parent: dict, change: dict) -> dict:
    """Every metric of unit ``count`` in either side's result line ``metrics``,
    with the parent's value beside the change's (None where a side has none)."""
    names = dict.fromkeys(name for side in (parent, change) for name, m in side.items()
                          if m["unit"] == "count")
    return {name: {side: metrics[name]["value"] if name in metrics else None
                   for side, metrics in (("parent", parent), ("change", change))}
            for name in names}


def summarize(runs: list, spec: dict, traced: list) -> dict:
    """Per workload: seeds, every end-to-end metric of ``spec`` (``BENCHMARK.json``)
    compared over the pairs, the failed and attempted counts of each side, and
    the per-pass counts of its traced runs (``count_columns``).  ``runs`` and
    ``traced`` hold one record per run: workload, seed, side, and the run's
    result line (``metrics``, ``correct``, ``attempted``, ``failed``)."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        seeds = sorted({r["seed"] for r in mine})
        side = {(r["side"], r["seed"]): r for r in mine}
        metrics = {}
        for m in spec["end_to_end"]:
            values = {s: [side[s, seed]["metrics"][m["name"]]["value"] for seed in seeds]
                      for s in ("parent", "change")}
            metrics[m["name"]] = dict(summarize_metric(values["parent"], values["change"],
                                                       m["better"], m["bound"]), unit=m["unit"])
        out[workload] = {"seeds": seeds, "metrics": metrics,
                         "failed": {s: sum(side[s, k]["failed"] for k in seeds)
                                    for s in ("parent", "change")},
                         "attempted": {s: sum(side[s, k]["attempted"] for k in seeds)
                                       for s in ("parent", "change")},
                         "correct": all(r["correct"] for r in mine)}
        sides = {r["side"]: r["metrics"] for r in traced if r["workload"] == workload}
        out[workload]["counts"] = count_columns(sides["parent"], sides["change"])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("work", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("--seeds", required=True, help="FIRST-LAST, inclusive")
    args = parser.parse_args(argv)
    first, last = map(int, args.seeds.split("-"))
    if last <= first:
        parser.error("--seeds needs at least two seeds: quartiles need two runs a side")
    trees = {side: args.work / side for side in ("parent", "change")}
    commits = {side: extract(rev, trees[side])
               for side, rev in (("parent", args.parent), ("change", args.change))}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    runs, workloads = [], [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for i, seed in enumerate(range(first, last + 1)):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                result = run_once(trees[side], workload, seed, seconds)
                runs.append({"workload": workload, "seed": seed, "side": side, **result})
                print(json.dumps({k: runs[-1][k] for k in ("workload", "seed", "side")}
                                 | {k: v["value"] for k, v in result["metrics"].items()}),
                      flush=True)
    traced = []
    for workload in workloads:
        for side in ("parent", "change"):
            result = run_once(trees[side], workload, first, TRACE_SECONDS, trace=1)
            traced.append({"workload": workload, "seed": first, "side": side, **result})
            print(json.dumps({"workload": workload, "side": side, "trace": 1,
                              "correct": result["correct"]}), flush=True)
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True).stdout.strip()
    doc = {"what": "perfbench end-to-end metrics, parent commit against the change, one run "
                   "per side and seed, sides alternating which runs first",
           "command": f"python3 perfbench/run.py --workload NAME --seed N --seconds {seconds} "
                      "--trace 0",
           "count_command": f"python3 perfbench/run.py --workload NAME --seed {first} "
                            f"--seconds {TRACE_SECONDS} --trace 1",
           "parent": commits["parent"],
           "change": {"commit": commits["change"], "src_sha256": src_sha256(trees["change"]),
                      "src_sha256_of": "each src/**/*.py in sorted path order: path, NUL, "
                                       "file bytes"},
           "parent_src_sha256": src_sha256(trees["parent"]),
           "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                       "numpy": numpy, "platform": platform.platform(),
                       "pinning": "perfbench pins each run and its children to one CPU, "
                                  "BLAS to one thread",
                       "bytecode": "both trees fresh from git archive, without __pycache__; "
                                   "PYTHONDONTWRITEBYTECODE=1 kept them so"},
           "claim_rule": CLAIM_RULE,
           "workloads": summarize(runs, spec, traced),
           "runs": runs, "traced_runs": traced}
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
