"""Layered benchmark for redconn.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (closed loop, one client, one process at a time, pinned with its
children to one CPU, BLAS pinned to one thread):

    catalog-cli  sequential ``python -m redconn.cli`` runs on the dimension-3
                 catalog plus the degenerate and typed-failure paths
    so4-full     in-process curvature pipeline and verify battery for so(4)
    so5-reduce   in-process reduce pipeline for so(5)

One pass runs the workload's whole case set.  Passes repeat while the next
one is expected to end within ``--seconds`` (at least one pass); each metric
is the median over passes.  Every case's output is checked (exit code, error
type, thresholded defects, verify checks, stage layout, stabilizer and orbit
dimensions); the run record (seed, machine, generated configs) is printed
before the result and, with per-case details, written under
``.perfbench_work/``.

End-to-end metrics (``--trace 0``, last stdout line):

    wall_rel      all cases, in probe units: each case's wall time divided by
                  the mean speed probe timed around it and, in process, during
                  it (probe.py), because the shared host's speed drifts
    pipeline_rel  the same over the validate/reduce/curvature cases
    setup_s       median fresh-interpreter import of redconn and redconn.cli
                  plus building and validating the workload's algebras
    peak_rss_mb   peak RSS of this process (of its children for catalog-cli)
    headroom_dec  mean over cases of min log10(threshold / defect)

Raw seconds, verify time, the failed fraction and the smallest headroom are
printed above the result line.  With ``--trace 1`` an untraced reference pass
runs first, then traced passes (tracer.py); the last line carries the
per-layer metrics and every traced report must equal its untraced one once
``timings`` is removed.  Runs with ``--trace 1`` probe only between cases.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported here or in any child process.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import cases as case_sets  # noqa: E402
from probe import BOUNDARY_PROBES, SpeedLog  # noqa: E402
from tracer import Tracer, merge_summaries  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 170

# Report entries that are defects with a threshold key in redconn.pipeline.THRESHOLDS.
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

END_TO_END_UNITS = {"wall_rel": "probe", "pipeline_rel": "probe", "setup_s": "s",
                    "peak_rss_mb": "MB", "headroom_dec": "dec"}

# Per-layer metrics read from the span summary: (metric, span name, field).
# ``total_s`` is inclusive time, ``self_s`` excludes time in traced callees.
SPAN_METRICS = (
    ("curvature.formula.calls", "curvature.reduced_curvature_formula", "calls"),
    ("curvature.formula.self_s", "curvature.reduced_curvature_formula", "self_s"),
    ("curvature.oracle.calls", "curvature.curvature_fd_oracle", "calls"),
    ("curvature.oracle.self_s", "curvature.curvature_fd_oracle", "self_s"),
    ("curvature.symmetry_report_s", "curvature.curvature_symmetry_report", "total_s"),
    ("curvature.convergence_s", "curvature.convergence_factor", "total_s"),
    ("reduction.reduced_cov.calls", "reduction.SigmaGeometry.reduced_cov", "calls"),
    ("reduction.reduced_cov.self_s", "reduction.SigmaGeometry.reduced_cov", "self_s"),
    ("reduction.directional_derivative.calls",
     "reduction.SigmaGeometry.directional_derivative", "calls"),
    ("reduction.directional_derivative.self_s",
     "reduction.SigmaGeometry.directional_derivative", "self_s"),
    ("reduction.lift.calls", "reduction.SigmaGeometry.lift", "calls"),
    ("reduction.lift.self_s", "reduction.SigmaGeometry.lift", "self_s"),
    ("reduction.reduced_form.calls", "reduction.reduced_form", "calls"),
    ("reduction.reduced_form.self_s", "reduction.reduced_form", "self_s"),
    ("reduction.build_context.calls", "reduction.build_context", "calls"),
    ("reduction.build_context.s", "reduction.build_context", "total_s"),
    ("reduction.autoparallel_check_s", "reduction.autoparallel_check", "total_s"),
    ("orbits.section_vectors.calls", "orbits.OrbitChart.section_vectors", "calls"),
    ("orbits.section_vectors.self_s", "orbits.OrbitChart.section_vectors", "self_s"),
    ("orbits.dnu.calls", "orbits.OrbitChart.dnu", "calls"),
    ("orbits.dnu.self_s", "orbits.OrbitChart.dnu", "self_s"),
    ("orbits.to_chart.calls", "orbits.OrbitChart.to_chart", "calls"),
    ("liealg.adjoint_matrix.calls", "liealg.adjoint_matrix", "calls"),
    ("liealg.adjoint_matrix.self_s", "liealg.adjoint_matrix", "self_s"),
    ("liealg.matrix_coords.calls", "liealg.LieAlgebra.matrix_coords", "calls"),
    ("liealg.matrix_coords.self_s", "liealg.LieAlgebra.matrix_coords", "self_s"),
    ("liealg.group_exp.calls", "liealg.group_exp", "calls"),
    ("liealg.group_exp.self_s", "liealg.group_exp", "self_s"),
    ("liealg.coadjoint_matrix.calls", "liealg.coadjoint_matrix", "calls"),
    ("liealg.reductive_complement_s", "liealg.reductive_complement", "total_s"),
    ("liealg.algebra_from_json_s", "liealg.algebra_from_json", "total_s"),
    ("connections.coefficients.calls", "connections.FrameConnection.coefficients", "calls"),
    ("connections.coefficients.self_s", "connections.FrameConnection.coefficients", "self_s"),
    ("phasespace.constraint_split.calls", "phasespace.constraint_split", "calls"),
    ("phasespace.regularity_report_s", "phasespace.regularity_report", "total_s"),
    ("linalg.nullspace.calls", "linalg.nullspace", "calls"),
    ("linalg.solve_columns.calls", "linalg.solve_columns", "calls"),
    ("kernel.lstsq.calls", "kernel.lstsq", "calls"),
    ("kernel.lstsq.self_s", "kernel.lstsq", "self_s"),
    ("kernel.expm.calls", "kernel.expm", "calls"),
    ("kernel.expm.self_s", "kernel.expm", "self_s"),
    ("kernel.expm_frechet.calls", "kernel.expm_frechet", "calls"),
    ("kernel.expm_frechet.self_s", "kernel.expm_frechet", "self_s"),
    ("kernel.svd.calls", "kernel.svd", "calls"),
    ("kernel.solve.calls", "kernel.solve", "calls"),
    ("kernel.inv.calls", "kernel.inv", "calls"),
)

OTHER_LAYER_UNITS = {
    "cli.import_s": "s", "cli.overhead_s": "s", "report.dumps_s": "s",
    "report.bytes": "bytes", "pipeline.validate_s": "s", "pipeline.connect_s": "s",
    "pipeline.reduce_s": "s", "pipeline.curvature_s": "s", "pipeline.verify_s": "s",
    "reduction.lift_cache.hit_ratio": "ratio", "trace.overhead_frac": "ratio",
}
LIFT_CLOSURE = "reduction.lift_field.closure"
LIFT = "reduction.SigmaGeometry.lift"


class BenchError(Exception):
    """The benchmark cannot run here (no program to measure)."""


# --- environment -----------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def import_program():
    """Import redconn from this checkout's src/, never from anywhere else."""
    if not (SRC / "redconn" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'redconn'} is missing")
    sys.path.insert(0, str(SRC))
    import redconn
    if Path(redconn.__file__).resolve().parent != (SRC / "redconn").resolve():
        raise BenchError(f"redconn imported from {redconn.__file__}, not from {SRC}")
    return redconn


def machine_record() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "pinned_to_cpus": sorted(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "loadavg_at_start": list(os.getloadavg()),
    }


# --- correctness -----------------------------------------------------------------


def _dig(doc, path):
    for key in path:
        if not isinstance(doc, dict) or key not in doc:
            return None
        doc = doc[key]
    return doc


def thresholded_defects(rep: dict, thresholds: dict) -> list:
    """(name, value, threshold) for every reported defect with a positive threshold."""
    cfg = rep.get("config", {})
    scale = float(cfg.get("tol_scale", 1.0))
    tol = cfg.get("tol", {})
    out = []
    for check in rep.get("checks", []):
        if check["threshold"] > 0:
            out.append((check["name"], float(check["value"]), float(check["threshold"])))
    stages = rep.get("stages", {})
    for path, key in PIPELINE_DEFECTS:
        value = _dig(stages, path)
        if value is not None:
            threshold = float(tol.get(key, thresholds[key])) * scale
            out.append(("/".join(path), float(value), threshold))
    return out


def check_case(case: dict, code: int, rep: dict | None, thresholds: dict) -> tuple[list, float]:
    """Problems found in one case's output, and its headroom in decades."""
    if rep is None:
        return ["report is not valid JSON"], math.inf
    problems = []
    if code != case["expect_exit"]:
        problems.append(f"exit code {code}, expected {case['expect_exit']}")
    err = rep.get("error")
    if case["expect_error"] is not None:
        if not err or err.get("type") != case["expect_error"]:
            problems.append(f"error {err}, expected {case['expect_error']}")
        return problems, math.inf
    if err is not None:
        problems.append(f"unexpected error {err}")
    headroom = math.inf
    for name, value, threshold in thresholded_defects(rep, thresholds):
        if not value <= threshold:
            problems.append(f"{name} = {value:.3e} exceeds {threshold:.0e}")
        elif value > 0:
            headroom = min(headroom, math.log10(threshold / value))
    if case["verb"] == "verify":
        failed = [c["name"] for c in rep.get("checks", []) if not c["passed"]]
        if failed or rep.get("passed") is not True:
            problems.append(f"verify checks failed: {failed}")
        return problems, headroom
    stages = rep.get("stages", {})
    order = ["validate", "connect", "reduce", "curvature"]
    if list(stages) != order[: order.index(case["verb"]) + 1]:
        problems.append(f"stages {list(stages)} for verb {case['verb']}")
    k = _dig(stages, ("validate", "stabilizer_dim"))
    if k != case["expect_k"]:
        problems.append(f"stabilizer dim {k}, expected {case['expect_k']}")
    group = case["config"]["group"]
    realized = not isinstance(group, dict) or group.get("realization") is not None
    if "reduce" in stages:
        red = stages["reduce"]
        if red["dims"]["w1"] != case["orbit_dim"]:
            problems.append(f"orbit dim {red['dims']['w1']}, expected {case['orbit_dim']}")
        if red["zero_dimensional_base"] != (case["orbit_dim"] == 0):
            problems.append("zero_dimensional_base flag disagrees with the orbit dimension")
        expect_sigma = -1.0 if realized and case["orbit_dim"] else None
        if red.get("sigma") != expect_sigma:
            problems.append(f"sigma {red.get('sigma')}, expected {expect_sigma}")
    if "curvature" in stages:
        curv = stages["curvature"]
        expect_status = "ok" if realized and case["orbit_dim"] else "skipped"
        if curv.get("status") != expect_status:
            problems.append(f"curvature status {curv.get('status')}, expected {expect_status}")
        elif expect_status == "ok":
            conv = curv["convergence"]
            if conv["oracle_error_coarse"] >= 1e-6 and not 3.0 <= conv["factor"] <= 5.0:
                problems.append(f"convergence factor {conv['factor']:.2f} outside [3, 5]")
    return problems, headroom


def report_key(text: str) -> str:
    """A report with ``timings`` removed, canonically serialized."""
    doc = json.loads(text)
    doc.pop("timings", None)
    return json.dumps(doc, sort_keys=True)


# --- passes ----------------------------------------------------------------------


def run_pass(cases: list, run_case, periodic: bool = False) -> dict:
    """Run every case once, in order, with speed probes between cases and,
    when ``periodic``, inside them.  A case's ``wall_s`` excludes the probes
    inside it; its ``probe_s`` is the mean probe over its span, boundaries
    included."""
    results = []
    log = SpeedLog()
    t0 = time.perf_counter()
    log.boundary()
    for case in cases:
        first = len(log.durations) - BOUNDARY_PROBES
        inner = len(log.durations)
        ts = time.perf_counter()
        with log.periodic() if periodic else nullcontext():
            res = run_case(case)
        wall = time.perf_counter() - ts - sum(log.durations[inner:])
        log.boundary()
        res.update(label=case["label"], verb=case["verb"], wall_s=wall,
                   probe_s=statistics.fmean(log.durations[first:]))
        results.append(res)
    return {"cases": results, "elapsed_s": time.perf_counter() - t0}


def inprocess_case(case: dict, tracer: Tracer | None = None) -> dict:
    """The CLI's work for one case without its process: parse the config, run
    the verb, serialize the report."""
    from redconn import pipeline, report
    with tracer.span(f"case.{case['label']}") if tracer else nullcontext():
        cfg = pipeline.CaseConfig.from_dict(json.loads(case_sets.config_bytes(case)))
        if case["verb"] == "verify":
            rep, code = pipeline.verify_suite(cfg)
        else:
            rep, code = pipeline.run_pipeline(cfg, case["verb"])
        return {"code": code, "report_text": report.dumps(rep)}


def cli_case(case: dict, config_path: Path, spans_prefix: Path | None = None) -> dict:
    """One ``python -m redconn.cli`` process; with ``spans_prefix`` it starts
    through child.py, which times the import and traces the verb."""
    tail = [case["verb"], "--config", str(config_path)]
    if spans_prefix is None:
        cmd = [sys.executable, "-m", "redconn.cli", *tail]
    else:
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), "cli", str(spans_prefix), *tail]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    return {"code": proc.returncode, "report_text": proc.stdout.decode(),
            "stderr": proc.stderr.decode()[-2000:]}


def measure(run_one_pass, seconds: float) -> list:
    """Whole passes while the next one is expected to end within ``seconds``."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_one_pass())
        if time.perf_counter() - t0 + passes[-1]["elapsed_s"] > seconds:
            return passes


def judge_pass(cases: list, result: dict, thresholds: dict) -> None:
    """Attach each case's report, problems and headroom to the pass result."""
    by_label = {case["label"]: case for case in cases}
    for res in result["cases"]:
        try:
            res["report"] = json.loads(res["report_text"])
        except json.JSONDecodeError:
            res["report"] = None
        res["problems"], res["headroom_dec"] = check_case(by_label[res["label"]], res["code"],
                                                          res["report"], thresholds)


def measure_setup(cases_path: Path) -> tuple[list, dict]:
    """Fresh interpreters that import redconn and build the workload's algebras."""
    times = []
    imports = []
    for _ in range(SETUP_REPEATS):
        ts = time.perf_counter()
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), "setup",
                               str(cases_path)], cwd=ROOT, env=child_env(),
                              capture_output=True, timeout=CHILD_TIMEOUT_S, check=False)
        times.append(time.perf_counter() - ts)
        if proc.returncode != 0:
            raise BenchError(f"setup failed: {proc.stderr.decode()[-2000:]}")
        out = json.loads(proc.stdout)
        imports.append(out["import_s"])
    out["import_s"] = imports
    return times, out


# --- metrics ---------------------------------------------------------------------


def pass_end_to_end(result: dict) -> dict:
    cases = result["cases"]
    pipeline = [c for c in cases if c["verb"] != "verify"]
    verify = [c for c in cases if c["verb"] == "verify"]
    # Mean over cases of each case's worst headroom: the minimum over all cases
    # hinges on one draw and spreads too much from seed to seed.
    finite = [c["headroom_dec"] for c in cases if math.isfinite(c["headroom_dec"])]
    return {
        "wall_rel": sum(c["wall_s"] / c["probe_s"] for c in cases),
        "pipeline_rel": sum(c["wall_s"] / c["probe_s"] for c in pipeline),
        "wall_s": sum(c["wall_s"] for c in cases),
        "pipeline_s": sum(c["wall_s"] for c in pipeline),
        "verify_s": sum(c["wall_s"] for c in verify),
        "probe_s": statistics.median(c["probe_s"] for c in cases),
        "headroom_dec": statistics.fmean(finite) if finite else math.nan,
        "headroom_min_dec": min(finite) if finite else math.nan,
    }


def pass_report_layers(result: dict) -> dict:
    """Per-layer numbers read from the reports and harness timings of a pass."""
    out = {key: 0.0 for key in ("cli.overhead_s", "report.bytes", "pipeline.validate_s",
                                "pipeline.connect_s", "pipeline.reduce_s",
                                "pipeline.curvature_s", "pipeline.verify_s")}
    for c in result["cases"]:
        timings = (c["report"] or {}).get("timings", {})
        # entry-point cost outside the pipeline's own timer: process start,
        # import, config parsing and report output for the CLI; config parsing
        # and report output in process
        out["cli.overhead_s"] += c["wall_s"] - timings.get("total", 0.0)
        out["report.bytes"] += len(c["report_text"].encode())
        if c["verb"] == "verify":
            out["pipeline.verify_s"] += timings.get("total", 0.0)
        else:
            for stage in ("validate", "connect", "reduce", "curvature"):
                out[f"pipeline.{stage}_s"] += timings.get(stage, 0.0)
    return out


def span_layers(summary: dict) -> dict:
    spans = summary["spans"]
    out = {name: spans.get(span, {}).get(field, 0) for name, span, field in SPAN_METRICS}
    attempts = spans.get(LIFT_CLOSURE, {}).get("calls", 0)
    misses = sum(n for p, c, n in summary["edges"] if p == LIFT_CLOSURE and c == LIFT)
    out["reduction.lift_cache.hit_ratio"] = (attempts - misses) / attempts if attempts else 0.0
    out["report.dumps_s"] = spans.get("report.dumps", {}).get("total_s", 0.0)
    return out


def median_of(dicts: list, key: str) -> float:
    return statistics.median(d[key] for d in dicts)


def per_layer_units() -> dict:
    units = {name: ("count" if field == "calls" else "s") for name, _, field in SPAN_METRICS}
    units.update(OTHER_LAYER_UNITS)
    return units


# --- main ------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(case_sets.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


def write_inputs(cases: list, work: Path) -> dict:
    """Write each case config (CLI input) and the case list (setup input)."""
    (work / "configs").mkdir(parents=True, exist_ok=True)
    paths = {"cases": work / "cases.json"}
    paths["cases"].write_text(json.dumps(cases, sort_keys=True))
    for case in cases:
        paths[case["label"]] = work / "configs" / f"{case['label']}.json"
        paths[case["label"]].write_bytes(case_sets.config_bytes(case))
    return paths


def traced_pass(cases: list, paths: dict, inprocess: bool, spans_dir: Path) -> dict:
    """One pass with every redconn layer and kernel traced; spans go to ``spans_dir``."""
    spans_dir.mkdir(exist_ok=True)
    if not inprocess:
        result = run_pass(cases, lambda c: cli_case(c, paths[c["label"]],
                                                    spans_dir / c["label"]))
        parts = []
        for case in cases:
            with open(spans_dir / f"{case['label']}.json", encoding="utf-8") as fh:
                parts.append(json.load(fh))
        result["summary"] = merge_summaries(parts)
        return result
    tracer = Tracer()
    tracer.install()
    try:
        result = run_pass(cases, lambda c: inprocess_case(c, tracer))
    finally:
        tracer.uninstall()
    result["summary"] = tracer.summary()
    tracer.dump(str(spans_dir / "spans.npz"))
    return result


def run(args) -> int:
    started = time.time()
    redconn = import_program()
    # One CPU for this process and every child it starts: the speed probes run
    # here and must time the CPU the measured CLI processes run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    machine = machine_record()
    from redconn.pipeline import THRESHOLDS

    cases = case_sets.WORKLOADS[args.workload](args.seed)
    work = WORK / args.workload
    paths = write_inputs(cases, work)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine,
              "configs_sha256": hashlib.sha256(
                  b"".join(case_sets.config_bytes(c) for c in cases)).hexdigest(),
              "configs": {c["label"]: c["config"] for c in cases}}
    print("record " + json.dumps(record, sort_keys=True), flush=True)

    problems = []
    setup_times, setup_out = measure_setup(paths["cases"])
    if Path(setup_out["redconn"]).resolve().parent != Path(redconn.__file__).resolve().parent:
        problems.append(f"setup imported redconn from {setup_out['redconn']}")
    for case in cases:
        got = setup_out["stabilizer_dims"].get(case["label"])
        if case["expect_k"] is not None and got != case["expect_k"]:
            problems.append(f"{case['label']}: stabilizer dim {got}, expected {case['expect_k']}")

    inprocess = args.workload != "catalog-cli"
    run_case = inprocess_case if inprocess else (lambda c: cli_case(c, paths[c["label"]]))
    if args.trace:
        # No probes inside cases here: the report timings and the overhead
        # ratio read from this pass must not include them.
        reference = run_pass(cases, run_case)
        passes = measure(lambda: traced_pass(cases, paths, inprocess, work / "spans"),
                         args.seconds)
        measured = [reference, *passes]
    else:
        passes = measured = measure(lambda: run_pass(cases, run_case, periodic=inprocess),
                                    args.seconds)
    for result in measured:
        judge_pass(cases, result, THRESHOLDS)
    if args.trace:
        ref_keys = {c["label"]: report_key(c["report_text"]) for c in reference["cases"]}
        problems += [f"{c['label']}: traced report differs from untraced"
                     for result in passes for c in result["cases"]
                     if report_key(c["report_text"]) != ref_keys[c["label"]]]

    attempted = sum(len(r["cases"]) for r in measured)
    failed_cases = [(c["label"], c["problems"]) for r in measured for c in r["cases"]
                    if c["problems"]]
    e2e = [pass_end_to_end(r) for r in measured]
    if args.trace:
        ref_rel = e2e[0]["wall_rel"]
        layer_rows = []
        for result, m in zip(passes, e2e[1:]):
            row = span_layers(result["summary"])
            row["trace.overhead_frac"] = m["wall_rel"] / ref_rel - 1.0
            layer_rows.append(row)
        values = {name: median_of(layer_rows, name) for name in layer_rows[0]}
        values.update(pass_report_layers(reference))
        values["cli.import_s"] = statistics.median(setup_out["import_s"])
        units = per_layer_units()
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF if inprocess
                                     else resource.RUSAGE_CHILDREN).ru_maxrss
        values = {
            "wall_rel": median_of(e2e, "wall_rel"),
            "pipeline_rel": median_of(e2e, "pipeline_rel"),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": rss_kib / 1024.0,
            "headroom_dec": median_of(e2e, "headroom_dec"),
        }
        units = END_TO_END_UNITS
    failed_frac = len(failed_cases) / attempted
    correct = not problems and not failed_cases

    detail = {"record": record, "setup_times_s": setup_times, "problems": problems,
              "failed_cases": failed_cases, "failed_frac": failed_frac,
              "passes": [{"end_to_end": m,
                          "cases": [{k: c[k] for k in ("label", "verb", "code", "wall_s",
                                                       "probe_s", "problems", "headroom_dec")}
                                    for c in r["cases"]]}
                         for r, m in zip(measured, e2e)],
              "metrics": values,
              "span_summaries": [r["summary"] for r in passes] if args.trace else None,
              "elapsed_s": time.time() - started}
    out_path = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(detail, indent=1))

    for msg in problems + [f"{label}: {p}" for label, p in failed_cases]:
        print(f"problem {msg}")
    # Printed for reading only; the last line carries the metrics BENCHMARK.json names.
    shown = {"failed_frac": (failed_frac, "ratio")}
    if not args.trace:
        for key, unit in (("wall_s", "s"), ("pipeline_s", "s"), ("verify_s", "s"),
                          ("probe_s", "s"), ("headroom_min_dec", "dec")):
            shown[key] = (median_of(e2e, key), unit)
    shown.update({name: (value, units[name]) for name, value in values.items()})
    for name, (value, unit) in shown.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failed_cases),
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
