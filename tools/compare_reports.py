"""Dump a fixed set of reports from one source tree and compare two dumps.

    python3 tools/compare_reports.py dump <src> <dir>
    python3 tools/compare_reports.py diff <a> <b> [--allow-added NAME]... [--allow-removed NAME]...
                                        [--ignore PATH]...
    python3 tools/compare_reports.py reference <src> <file>

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
Two error paths follow: sl2r at μ = (0, 1, 0) under both verbs, whose
stabilizer has no invariant complement (``NonReductiveStabilizer``, exit 3),
and ``verify_suite`` on so3 with ``tol_scale: 1e-3`` and
``tol: {"kks_match": 1e-20}``, whose failing checks exit 4.  The
``export-connection`` reports of so3 and the so(4) regular case at the
``perfbench/cases.py`` μ, with the default ``connection``, once without and
once with an ``xi_list``, and so3's at ``connection: "baseline"`` with an
``xi_list`` close the set; they go through ``cli.main`` with no flag but
``--config`` and ``--out``, which every tree's CLI accepts.

``diff`` lists the byte-identical and the differing files.  ``--ignore PATH``
(repeatable) drops the key at PATH, written as the differences below name it
(``/stages/reduce/autoparallel``, or ``/checks/<check name>/<field>`` for a
field of a verify check), from both reports before comparing, so a change
that moves or reshapes that key can still be judged on the rest; the files
identical apart from it are listed under their own heading.  A
differing file passes when the two dumps agree on everything except
floating-point roundoff:

- exit codes, key sets, error records, list lengths, strings, booleans
  (verify ``passed`` flags included) and integers are equal;
- verify checks are matched by name: a check only one dump has is reported
  as added or removed, and the shared checks are still compared.  A check
  only ``<b>`` has passes when ``--allow-added`` names it, and one only
  ``<a>`` has when ``--allow-removed`` names it (each option repeats, one
  name each), so a change that adds or removes a check can still get a
  roundoff verdict; every other added or removed check is a problem;
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

``reference`` dumps ``<src>`` into a scratch directory and writes to ``<file>``
what the committed ``tests/reference_reports.json`` holds: for each dump its
exit code, its verify verdicts (check name -> ``passed``), its thresholded
defects (name -> [value, threshold], as ``diff`` reads them) and the sha256 of
the dumped file, with the numpy and BLAS versions the dumps were made with,
the BLAS core they ran on and the machine type (``library_versions``).  A
change that moves a report rewrites the file in the same diff.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import platform
import re
import sys
import tempfile
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
    both("sl2r-nonreductive", {"group": "sl2r", "mu": [0.0, 1.0, 0.0]})
    out.append(("so3-tight-verify", "verify", {"group": "so3", "mu": [0.0, 0.0, 1.0],
                                               "tol_scale": 1e-3, "tol": {"kks_match": 1e-20}}))
    so4_label, n, weights, _, _ = case_sets.SO4_CASES[0]
    so4_doc = {"group": case_sets.so_n_group(n), "mu": case_sets.so_n_mu(n, weights)}
    for label, doc, xi in (("so3", {"group": "so3", "mu": [0.0, 0.0, 1.0]}, [0.5, -0.2, 0.1]),
                           (so4_label, so4_doc, [0.5, -0.2, 0.1, 0.3, -0.4, 0.2])):
        out.append((f"{label}-export", "export-connection", doc))
        out.append((f"{label}-export-xi", "export-connection",
                    dict(doc, xi_list=[doc["mu"], xi])))
    # the baseline's label and flags, byte-checked next to the symplectized ones
    out.append(("so3-baseline-export-xi", "export-connection",
                {"group": "so3", "mu": [0.0, 0.0, 1.0], "connection": "baseline",
                 "xi_list": [[0.0, 0.0, 1.0], [0.5, -0.2, 0.1]]}))
    return out


def _export(doc: dict) -> tuple[dict, int]:
    """The ``export-connection`` report of the config ``doc`` and its exit code,
    from ``cli.main`` with the config and the report in a scratch directory."""
    from redconn import cli

    with tempfile.TemporaryDirectory() as tmp:
        config, report = Path(tmp, "config.json"), Path(tmp, "report.json")
        config.write_text(json.dumps(doc))
        code = cli.main(["export-connection", "--config", str(config), "--out", str(report)])
        return json.loads(report.read_text()), code


def dump(src: str, out_dir: str) -> int:
    sys.path.insert(0, str(Path(src).resolve()))
    from redconn import report as report_mod
    from redconn.pipeline import CaseConfig, run_pipeline, verify_suite

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for label, verb, doc in _cases():
        if verb == "export-connection":
            rep, code = _export(doc)
        else:
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
        # an older tree's report may hold a defect whose key this tree dropped:
        # diff then lists it as a removed key, with no threshold to hold it to
        if value is not None and key in thresholds:
            threshold = float(cfg.get("tol", {}).get(key, thresholds[key])) * scale
            out["/".join(path)] = (value, threshold)
    return out


def _headroom(defects: dict) -> tuple[float, str]:
    """min log10(threshold / value) over the defects (``_defects``) with
    0 < value <= threshold, and the name of the defect that sets it."""
    return min(((math.log10(threshold / value), name)
                for name, (value, threshold) in defects.items() if 0 < value <= threshold),
               default=(math.inf, "-"))


def blas_core() -> str | None:
    """The kernel set numpy's bundled OpenBLAS picked for this CPU at run time
    (it is built ``DYNAMIC_ARCH``; ``OPENBLAS_CORETYPE`` overrides the pick), or
    None where that library or its core name cannot be found."""
    for path in Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*"):
        # the copy numpy loaded, found by its path
        get = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_", None)
        if get is not None:
            get.restype = ctypes.c_char_p
            return get().decode()
    return None


def library_versions() -> dict:
    """The numpy and BLAS builds a dump's bits depend on, with the BLAS core
    they ran on (``blas_core``) and the machine type."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_core": blas_core(), "machine": platform.machine()}


def summary(dump_dir, thresholds: dict) -> dict:
    """label -> exit code, verify verdicts, thresholded defects (``_defects``)
    and sha256 of each file of a dump."""
    out = {}
    for path in sorted(Path(dump_dir).glob("*.json")):
        doc = json.loads(path.read_text())
        rep = doc["report"]
        out[path.stem] = {
            "exit_code": doc["exit_code"],
            "verdicts": {check["name"]: check["passed"] for check in rep.get("checks", [])},
            "defects": {name: list(pair) for name, pair in _defects(rep, thresholds).items()},
            "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
        }
    return out


def reference(src: str, path: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        dump(src, tmp)
        from redconn.pipeline import THRESHOLDS  # the dumped tree's, which dump imported

        doc = {"versions": library_versions(), "reports": summary(tmp, THRESHOLDS)}
    # each [value, threshold] pair on one line
    text = re.sub(r"\[\s+([^][]*?),\s+([^][]*?)\s+\]", r"[\1, \2]", json.dumps(doc, indent=1))
    Path(path).write_text(text + "\n")
    return 0


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _walk(a, b, path: str, problems: list, moved: list, allow_added=(),
          allow_removed=()) -> None:
    """Compare two JSON trees; floats may differ, everything else must not,
    except that the verify checks named in ``allow_added`` may be added and
    those named in ``allow_removed`` removed."""
    key = path.rsplit("/", 1)[-1]
    if key in EXACT_KEYS and a != b:
        problems.append(f"{path}: not bit-identical")
        return
    if key == "checks" and isinstance(a, list) and isinstance(b, list):
        _walk_checks(a, b, path, problems, moved, allow_added, allow_removed)
    elif isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            problems.append(f"{path}: keys {list(a)} != {list(b)}")
            return
        for k in a:
            _walk(a[k], b[k], f"{path}/{k}", problems, moved, allow_added, allow_removed)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            problems.append(f"{path}: lengths {len(a)} != {len(b)}")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            _walk(x, y, f"{path}/{i}", problems, moved, allow_added, allow_removed)
    elif isinstance(a, float) or isinstance(b, float):
        # dumps of older trees wrote a whole float such as 0.0 as "0", which parses as int
        if not _is_number(a) or not _is_number(b):
            problems.append(f"{path}: {a!r} != {b!r}")
        elif a != b and not (math.isnan(a) and math.isnan(b)):
            moved.append((abs(b - a) / max(1.0, abs(a)), path))
    elif type(a) is not type(b) or a != b:
        problems.append(f"{path}: {a!r} != {b!r}")


def _walk_checks(a: list, b: list, path: str, problems: list, moved: list,
                 allow_added=(), allow_removed=()) -> None:
    """Compare two verify ``checks`` lists by check name: a check only one side
    has is reported as added (unless ``allow_added`` names it) or removed
    (unless ``allow_removed`` names it), and every shared check is compared."""
    by_a, by_b = ({check["name"]: check for check in checks} for checks in (a, b))
    problems.extend(f"{path}: check {name} removed" for name in by_a
                    if name not in by_b and name not in allow_removed)
    problems.extend(f"{path}: check {name} added" for name in by_b
                    if name not in by_a and name not in allow_added)
    shared = [name for name in by_a if name in by_b]
    if shared != [name for name in by_b if name in by_a]:
        problems.append(f"{path}: checks reordered")
    for name in shared:
        _walk(by_a[name], by_b[name], f"{path}/{name}", problems, moved)


def _compare(a: dict, b: dict, thresholds: dict, allow_added=(),
             allow_removed=()) -> tuple[list, list]:
    problems: list = []
    moved: list = []
    if a["exit_code"] != b["exit_code"]:
        problems.append(f"exit code {a['exit_code']} != {b['exit_code']}")
    _walk(a["report"], b["report"], "", problems, moved, allow_added, allow_removed)
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


def _drop(rep: dict, path: str) -> None:
    """Remove the key at ``path`` from a report, if it is there: ``/a/b/c``
    through nested objects, or ``/checks/<check name>/<field>`` for a field of
    the verify check of that name (check names contain ``/``)."""
    *parents, key = path.strip("/").split("/")
    if parents[:1] == ["checks"]:
        parent = next((check for check in rep.get("checks", [])
                       if check["name"] == "/".join(parents[1:])), None)
    else:
        parent = _dig(rep, parents)
    if isinstance(parent, dict):
        parent.pop(key, None)


def diff(dir_a: str, dir_b: str, allow_added=(), ignore=(), allow_removed=()) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from redconn.pipeline import THRESHOLDS

    a, b = Path(dir_a), Path(dir_b)
    names_a = {p.name for p in a.glob("*.json")}
    names_b = {p.name for p in b.glob("*.json")}
    ok = names_a == names_b
    for name in sorted(names_a ^ names_b):
        print(f"only in {a if name in names_a else b}: {name}")
    same, ignored, different, docs_of = [], [], [], {}
    for name in sorted(names_a & names_b):
        if (a / name).read_bytes() == (b / name).read_bytes():
            same.append(name)
            continue
        docs_of[name] = docs = [json.loads((d / name).read_text()) for d in (a, b)]
        for doc in docs:
            for path in ignore:
                _drop(doc["report"], path)
        (ignored if ignore and json.dumps(docs[0]) == json.dumps(docs[1])
         else different).append(name)
    print(f"byte-identical ({len(same)}): {', '.join(n[:-5] for n in same)}")
    if ignore:
        print(f"identical apart from {', '.join(ignore)} ({len(ignored)}): "
              f"{', '.join(n[:-5] for n in ignored)}")
    print(f"differing ({len(different)}): {', '.join(n[:-5] for n in different)}")
    for name in different:
        docs = docs_of[name]
        problems, moved = _compare(*docs, THRESHOLDS, allow_added, allow_removed)
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
    parser = argparse.ArgumentParser(prog="compare_reports.py",
                                     description=__doc__.strip().splitlines()[0])
    verbs = parser.add_subparsers(dest="verb", required=True)
    dump_args = verbs.add_parser("dump")
    dump_args.add_argument("src")
    dump_args.add_argument("dir")
    diff_args = verbs.add_parser("diff")
    diff_args.add_argument("a")
    diff_args.add_argument("b")
    diff_args.add_argument("--allow-added", action="append", default=[], metavar="NAME",
                           help="a verify check only <b> has that is not a problem")
    diff_args.add_argument("--allow-removed", action="append", default=[], metavar="NAME",
                           help="a verify check only <a> has that is not a problem")
    diff_args.add_argument("--ignore", action="append", default=[], metavar="PATH",
                           help="a report key, as /stages/reduce/autoparallel or "
                                "/checks/<check name>/note, left out of both")
    reference_args = verbs.add_parser("reference")
    reference_args.add_argument("src")
    reference_args.add_argument("file")
    args = parser.parse_args(argv)
    if args.verb == "dump":
        return dump(args.src, args.dir)
    if args.verb == "reference":
        return reference(args.src, args.file)
    return diff(args.a, args.b, args.allow_added, args.ignore, args.allow_removed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
