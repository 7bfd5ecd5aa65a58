"""Dump a fixed set of reports from one source tree and compare two dumps.

    python3 tools/compare_reports.py dump <src> <dir>
    python3 tools/compare_reports.py diff <a> <b>

``dump`` imports ``redconn`` from ``<src>`` (a checkout's ``src`` directory)
and writes one JSON file per case into ``<dir>``: the report without its
``timings`` key, wrapped as ``{"exit_code": ..., "report": ...}`` and
serialized with ``redconn.report.dumps``.  The cases are
``run_pipeline(…, "curvature")`` and ``verify_suite`` on the catalog at the
``perfbench/cases.py`` μ, on so3 and se2 at seeds 1–3 with ``samples: 3``, on
abelian(3), on aff1 with and without a realization, on so3 with
``connection: "baseline"`` and on both so(4) cases of ``perfbench/cases.py``
(seed 1), ``run_pipeline(…, "curvature")`` on the so(4) regular case with
``samples: 5`` (a second curvature point, at t ≠ 0), plus
``run_pipeline(…, "reduce")`` on both so(5) cases and
``run_pipeline(…, "curvature")`` on the so(5) regular one (orbit dimension 8).

``diff`` lists the byte-identical and the differing files.  A differing file
passes when the two dumps agree on everything except floating-point
roundoff:

- exit codes, key sets, error records, list lengths, strings, booleans
  (verify ``passed`` flags included) and integers are equal;
- verify checks are matched by name: a check only one dump has is reported
  as added or removed, and the shared checks are still compared;
- ``chart_points``, ``sigma``, ``dims``, ``decomposition_cond``,
  ``stabilizer_dim`` and the config are equal bit for bit;
- every thresholded defect (verify checks, and the pipeline defects
  ``perfbench/run.py`` checks) under its threshold in ``<a>`` stays under
  it in ``<b>``;
- curvature sample ``value`` and ``oracle`` vectors agree within
  1e-5 · max(1, ‖v‖).

Other floats may move; the largest |b − a| / max(1, |a|) is printed, and so
is each side's headroom: the minimum of log10(threshold / value) over the
thresholded defects, as ``perfbench/run.py``'s ``check_case`` computes it,
with the defect that sets it.  The headroom is printed only, never judged.
Exit status is 0 when every file passes, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CURVATURE_RTOL = 1e-5
EXACT_KEYS = ("chart_points", "sigma", "dims", "decomposition_cond", "stabilizer_dim",
              "config")
AFF1_REALIZATION = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]]
# Pipeline report entries that carry a THRESHOLDS key, as perfbench/run.py reads them.
PIPELINE_DEFECTS = (
    (("validate", "level_set_checks", "tperp_equals_generator_span"), "tperp_span"),
    (("connect", "baseline_closed_form_residual"), "baseline_closed_form"),
    (("connect", "torsion_defect"), "symplectized_torsion"),
    (("connect", "nabla_omega_defect"), "symplectized_nabla_omega"),
    (("reduce", "isotropy_defect"), "isotropy"),
    (("reduce", "projector_defect"), "projector_idempotent"),
    (("reduce", "kks_residual"), "kks_match"),
    (("reduce", "reduced_torsion_defect"), "reduced_torsion"),
    (("reduce", "reduced_form_parallel_defect"), "reduced_form_parallel"),
    (("reduce", "fiber_independence"), "fiber_independence"),
    (("reduce", "autoparallel", "independence"), "fiber_independence"),
    (("curvature", "max_discrepancy"), "curvature_agreement"),
    (("curvature", "symmetry", "antisymmetry_defect"), "curvature_antisymmetry"),
    (("curvature", "symmetry", "symplectic_defect"), "curvature_symplectic"),
    (("curvature", "symmetry", "bianchi_defect"), "curvature_bianchi"),
)


def _cases() -> list:
    """(label, verb, config) for every dumped report."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import cases as case_sets

    out = []

    def both(label, doc):
        out.append((f"{label}-curvature", "curvature", doc))
        out.append((f"{label}-verify", "verify", doc))

    for name, mu in case_sets.CATALOG:
        both(name, {"group": name, "mu": mu})
    for name, mu in case_sets.CATALOG:
        if name in ("so3", "se2"):
            for seed in (1, 2, 3):
                both(f"{name}-seed{seed}", {"group": name, "mu": mu, "seed": seed, "samples": 3})
    both("abelian3", {"group": "abelian(3)", "mu": [1.0, 0.5, -1.0]})
    both("aff1", {"group": case_sets.AFF1_NO_REALIZATION, "mu": [0.0, 1.0]})
    both("aff1-realization", {"group": dict(case_sets.AFF1_NO_REALIZATION,
                                            realization=AFF1_REALIZATION),
                              "mu": [0.0, 1.0]})
    both("so3-baseline", {"group": "so3", "mu": [0.0, 0.0, 1.0], "connection": "baseline"})
    for case in case_sets.so4_full_cases(1) + case_sets.so5_reduce_cases(1):
        out.append((case["label"], case["verb"], case["config"]))
    so4_regular = case_sets.so4_full_cases(1)[0]
    out.append(("so4-regular-samples5-curvature", "curvature",
                dict(so4_regular["config"], samples=5)))
    so5_regular = case_sets.so5_reduce_cases(1)[0]
    out.append(("so5-regular-curvature", "curvature", so5_regular["config"]))
    return out


def dump(src: str, out_dir: str) -> int:
    sys.path.insert(0, str(Path(src).resolve()))
    from redconn import report as report_mod
    from redconn.pipeline import CaseConfig, run_pipeline, verify_suite

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for label, verb, doc in _cases():
        cfg = CaseConfig.from_dict(json.loads(json.dumps(doc)))
        rep, code = verify_suite(cfg) if verb == "verify" else run_pipeline(cfg, verb)
        rep.pop("timings", None)
        (out / f"{label}.json").write_text(report_mod.dumps({"exit_code": code, "report": rep}))
        print(f"{label}: exit {code}", flush=True)
    return 0


def _dig(doc, path):
    for key in path:
        if not isinstance(doc, dict) or key not in doc:
            return None
        doc = doc[key]
    return doc


def _defects(rep: dict, thresholds: dict) -> dict:
    """name -> (value, threshold) for every thresholded defect in a report."""
    out = {c["name"]: (c["value"], c["threshold"]) for c in rep.get("checks", [])
           if c["threshold"] > 0}
    cfg = rep.get("config", {})
    scale = float(cfg.get("tol_scale", 1.0))
    for path, key in PIPELINE_DEFECTS:
        value = _dig(rep.get("stages", {}), path)
        if value is not None:
            threshold = float(cfg.get("tol", {}).get(key, thresholds[key])) * scale
            out["/".join(path)] = (value, threshold)
    return out


def _headroom(defects: dict) -> tuple[float, str]:
    """min log10(threshold / value) over the defects (``_defects``) with
    0 < value <= threshold, and the name of the defect that sets it."""
    return min(((math.log10(threshold / value), name)
                for name, (value, threshold) in defects.items() if 0 < value <= threshold),
               default=(math.inf, "-"))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _walk(a, b, path: str, problems: list, moved: list) -> None:
    """Compare two JSON trees; floats may differ, everything else must not."""
    key = path.rsplit("/", 1)[-1]
    if key in EXACT_KEYS and a != b:
        problems.append(f"{path}: not bit-identical")
        return
    if key == "checks" and isinstance(a, list) and isinstance(b, list):
        _walk_checks(a, b, path, problems, moved)
    elif isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            problems.append(f"{path}: keys {list(a)} != {list(b)}")
            return
        for k in a:
            _walk(a[k], b[k], f"{path}/{k}", problems, moved)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            problems.append(f"{path}: lengths {len(a)} != {len(b)}")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            _walk(x, y, f"{path}/{i}", problems, moved)
    elif isinstance(a, float) or isinstance(b, float):
        # report.dumps writes a whole float such as 0.0 as "0", which parses as int
        if not _is_number(a) or not _is_number(b):
            problems.append(f"{path}: {a!r} != {b!r}")
        elif a != b and not (math.isnan(a) and math.isnan(b)):
            moved.append((abs(b - a) / max(1.0, abs(a)), path))
    elif type(a) is not type(b) or a != b:
        problems.append(f"{path}: {a!r} != {b!r}")


def _walk_checks(a: list, b: list, path: str, problems: list, moved: list) -> None:
    """Compare two verify ``checks`` lists by check name: a check only one side
    has is reported as added or removed, and every shared check is compared."""
    by_a, by_b = ({check["name"]: check for check in checks} for checks in (a, b))
    problems.extend(f"{path}: check {name} removed" for name in by_a if name not in by_b)
    problems.extend(f"{path}: check {name} added" for name in by_b if name not in by_a)
    shared = [name for name in by_a if name in by_b]
    if shared != [name for name in by_b if name in by_a]:
        problems.append(f"{path}: checks reordered")
    for name in shared:
        _walk(by_a[name], by_b[name], f"{path}/{name}", problems, moved)


def _compare(a: dict, b: dict, thresholds: dict) -> tuple[list, list]:
    problems: list = []
    moved: list = []
    if a["exit_code"] != b["exit_code"]:
        problems.append(f"exit code {a['exit_code']} != {b['exit_code']}")
    _walk(a["report"], b["report"], "", problems, moved)
    da, db = _defects(a["report"], thresholds), _defects(b["report"], thresholds)
    for name, (value, threshold) in da.items():
        if value <= threshold and name in db and not db[name][0] <= db[name][1]:
            problems.append(f"{name}: {db[name][0]:.3e} over its threshold {threshold:.3e}")
    samples_a = _dig(a["report"], ("stages", "curvature", "samples")) or []
    samples_b = _dig(b["report"], ("stages", "curvature", "samples")) or []
    for i, (sa, sb) in enumerate(zip(samples_a, samples_b)):
        for field in ("value", "oracle"):
            va, vb = np.asarray(sa[field]), np.asarray(sb[field])
            gap = float(np.linalg.norm(vb - va))
            if gap > CURVATURE_RTOL * max(1.0, float(np.linalg.norm(va))):
                problems.append(f"curvature sample {i} {field}: off by {gap:.3e}")
    return problems, moved


def diff(dir_a: str, dir_b: str) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from redconn.pipeline import THRESHOLDS

    a, b = Path(dir_a), Path(dir_b)
    names_a = {p.name for p in a.glob("*.json")}
    names_b = {p.name for p in b.glob("*.json")}
    ok = names_a == names_b
    for name in sorted(names_a ^ names_b):
        print(f"only in {a if name in names_a else b}: {name}")
    same, different = [], []
    for name in sorted(names_a & names_b):
        (same if (a / name).read_bytes() == (b / name).read_bytes() else different).append(name)
    print(f"byte-identical ({len(same)}): {', '.join(n[:-5] for n in same)}")
    print(f"differing ({len(different)}): {', '.join(n[:-5] for n in different)}")
    for name in different:
        docs = [json.loads((d / name).read_text()) for d in (a, b)]
        problems, moved = _compare(*docs, THRESHOLDS)
        worst = max(moved, default=(0.0, ""))
        print(f"{name[:-5]}: {len(moved)} floats moved, largest |b - a| / max(1, |a|) "
              f"{worst[0]:.3e} at {worst[1] or '-'}")
        (ha, set_a), (hb, set_b) = (_headroom(_defects(doc["report"], THRESHOLDS))
                                    for doc in docs)
        print(f"  headroom {ha:.3f} dec ({set_a}) -> {hb:.3f} dec ({set_b})")
        for problem in problems:
            print(f"  PROBLEM {problem}")
        ok = ok and not problems
    print("problems: none" if ok else "problems: see above")
    return 0 if ok else 1


def main(argv: list) -> int:
    if len(argv) != 3 or argv[0] not in ("dump", "diff"):
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: compare_reports.py dump <src> <dir> | diff <a> <b>", file=sys.stderr)
        return 2
    return dump(argv[1], argv[2]) if argv[0] == "dump" else diff(argv[1], argv[2])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
