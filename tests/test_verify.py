"""``verify_suite`` runs the pipeline's stages and reads their results: the values
and the work of ``run_pipeline(cfg, "curvature")``, with a pinned check list."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

import redconn as rc
from redconn import connections, linalg, liealg, orbits, phasespace, pipeline, reduction
from redconn.cli import main
from redconn.errors import NotTangent, RankLoss, SingularProjection
from redconn.pipeline import (EXIT_ASSUMPTION, EXIT_NUMERICAL, THRESHOLDS, CaseConfig, _record,
                              run_pipeline, verify_suite)
from tests.conftest import (AFF1_DOC, CATALOG_CASES, count_builds, perfbench_cases,
                            track_geometries)

# verify check -> (the run_pipeline(cfg, "curvature") report entry it mirrors,
# its THRESHOLDS key)
REPORT_ENTRIES = {
    "phase/tperp-span": (("validate", "level_set_checks", "tperp_equals_generator_span"),
                         "tperp_span"),
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

    def recorded(*args):  # the defects, and the kernels for the curvature stage
        sweep, K = chart_sweep(*args)
        sweeps.append(sweep)
        return sweep, K

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
    assert compared >= 13
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
    # verify builds no kernel beyond the pipeline's: the jet-fd check reads the
    # chart sweep's rows at t = 0, and its stencil points build none
    built = count_builds(monkeypatch)
    geometries = track_geometries(monkeypatch)
    # the reduce stage's stabilizer sample is the run's one; verify adds one
    # sample of two generic elements (lie/ad-homomorphism and conn/right-invariance)
    exps = []
    group_exp = pipeline.group_exp
    monkeypatch.setattr(pipeline, "group_exp", lambda a, X: exps.append(np.shape(X)) or
                        group_exp(a, X))
    counts = []
    for run in (lambda: run_pipeline(cfg, "curvature"), lambda: verify_suite(cfg)):
        calls.clear()
        geometries.clear()
        built.clear()
        exps.clear()
        _, code = run()
        assert code == 0
        counts.append({"calls": sorted(calls), "geometries": len(geometries),
                       "kernels": sum(built), "exps": list(exps)})
    n = cfg.algebra().dim
    assert counts[0].pop("exps") == [(5, n)]
    assert counts[1].pop("exps") == [(5, n), (2, n)]
    assert counts[0] == counts[1]
    assert {"build_context", "_chart_sweep", "curvature_battery"} <= set(counts[0]["calls"])
    assert counts[0]["calls"].count("omega_gram") == counts[0]["calls"].count("build_context")
    assert counts[0]["kernels"] > counts[0]["geometries"] > 0


@pytest.mark.parametrize("label", ["so3", "se2", "so4-regular", "so4-singular"])
def test_verify_draws_nothing_after_the_generic_sample(monkeypatch, label):
    # the stages draw, then verify draws its two generic group elements from
    # where they left the rng, and no check draws after that: the bilinear
    # checks run on basis pairs
    cfg, seen = CaseConfig.from_dict(_doc(label)), {}
    stages, generic = pipeline._run_stages, pipeline._generic_sample

    def staged(*args):
        run = seen["run"] = stages(*args)
        seen["stages"] = run.rng.bit_generator.state
        return run

    def sampled(a, rng):
        sample = generic(a, rng)
        seen["generic"] = rng.bit_generator.state
        return sample

    monkeypatch.setattr(pipeline, "_run_stages", staged)
    monkeypatch.setattr(pipeline, "_generic_sample", sampled)
    assert verify_suite(cfg)[1] == 0
    fresh = np.random.default_rng()
    fresh.bit_generator.state = seen["stages"]
    fresh.uniform(size=(2, seen["run"].a.dim))
    assert fresh.bit_generator.state == seen["generic"] == seen["run"].rng.bit_generator.state


@pytest.mark.parametrize("label", ["so3", "so4-regular", "so4-singular"])
def test_the_reduce_stage_reads_the_connect_stages_gamma_mu(label):
    # the reduction's Γ(μ) is the connect stage's Γ at its first ξ sample, μ:
    # conn/torsion's torsion at μ is the T(μ) of the torsion of P∘∇ on the
    # frame fields, P·T(μ) + (P − I)C, which is why that is a test of the suite
    cfg = CaseConfig.from_dict(_doc(label))
    run = pipeline._run_stages(cfg, "reduce", {}, {})
    assert np.array_equal(run.xi_samples[0], run.mu)
    assert np.array_equal(run.ctx.gamma_mu, run.gammas[0])
    assert run.stages["connect"]["torsion_defect"] == connections.torsion_defect(run.a, run.gammas)


@pytest.mark.parametrize("label", ["so3", "so4-regular"])
def test_validate_makes_no_exponential(monkeypatch, label):
    # the level-set checks read μ's brackets alone and draw nothing, so the
    # connect stage's draws open the stream
    cfg, calls, expm = CaseConfig.from_dict(_doc(label)), [], linalg.expm
    monkeypatch.setattr(linalg, "expm", lambda *args, **kw: calls.append(args) or expm(*args, **kw))
    _, code = run_pipeline(cfg, "validate")
    assert code == 0 and calls == []
    a = cfg.algebra()
    run = SimpleNamespace(rng=np.random.default_rng(cfg.seed), a=a, mu=cfg.mu_vector(a))
    pipeline._stage_validate(cfg, run)
    fresh = np.random.default_rng(cfg.seed)
    assert run.rng.bit_generator.state == fresh.bit_generator.state
    pipeline._stage_connect(cfg, run)
    assert np.array_equal(run.xi_samples, np.vstack([run.mu, fresh.standard_normal((3, a.dim))]))


@pytest.mark.parametrize("label", ["so3", "so4-regular"])
def test_one_jacobi_contraction_per_verify(monkeypatch, label):
    # the load gate is the one reader of the Jacobi defect: its bracket-of-brackets
    # contraction, one tensordot of c with itself, runs once per run, and verify
    # lists no check of its own on it (lie/jacobi is a test of the suite)
    calls, tensordot = [], np.tensordot
    monkeypatch.setattr(np, "tensordot", lambda x, y, axes=2: calls.append(
        (x is y, axes)) or tensordot(x, y, axes))
    rep, code = verify_suite(CaseConfig.from_dict(_doc(label)))
    assert code == 0 and calls.count((True, (2, 0))) == 1
    assert not any(check["name"] == "lie/jacobi" for check in rep["checks"])


@pytest.mark.parametrize("label", ["so3", "heis3", "so4-regular"])
def test_one_stabilizer_solve_per_constraint_split(monkeypatch, label):
    # the constraint split is the one caller of the stabilizer solve, and it
    # runs once per run: the validate stage's split is the one every context
    # reads, heis3's second one (its autoparallel check's) included
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
        assert calls.count("constraint_split") == calls.count("stabilizer_algebra") == 1


@pytest.mark.parametrize("label", ["so4-regular", "so4-singular", "so5-regular",
                                   "so5-singular"])
def test_each_connection_is_evaluated_once_per_xi(monkeypatch, label):
    # Γ(ξ) of the symplectized connection is evaluated once per ξ sample in a
    # run: the connect stage's torsion and ∇ω and build_context's Γ(μ) read
    # the same arrays.  verify adds the symplectization applied again at each
    # ξ and the symplectization at each moved ξ, each (Γ, ξ) pair once.  A call
    # on a stack evaluates each of its rows
    calls, batches = [], []
    evaluate = connections.symplectized_coefficients

    def counted(a, xi, gamma):
        xis = np.atleast_2d(xi)
        rows = np.broadcast_to(gamma, xis.shape[:1] + np.shape(gamma)[-3:])
        calls.extend((g.tobytes(), row.tobytes()) for g, row in zip(rows, xis))
        batches.append(len(xis))
        return evaluate(a, xi, gamma)

    for module in (connections, pipeline):
        monkeypatch.setattr(module, "symplectized_coefficients", counted)
    cases = perfbench_cases()
    case = next(c for c in cases.so4_full_cases(1) + cases.so5_reduce_cases(1)
                if c["label"].startswith(label))
    cfg = CaseConfig.from_dict(case["config"])
    assert run_pipeline(cfg, "reduce" if label.startswith("so5") else "curvature")[1] == 0
    assert len(calls) == len(set(calls)) == 4 and batches == [4]
    calls.clear()
    batches.clear()
    assert verify_suite(cfg)[1] == 0
    assert len(calls) == len(set(calls)) <= 12 and batches == [4] * 3


LIE = ["lie/stabilizer-annihilation"]
LIE_GROUP = ["lie/coad-fixes-mu", "lie/ad-homomorphism"]
PHASE = ["phase/tperp-span", "phase/radical-span"]
CONN = ["conn/torsion", "conn/nabla-omega", "conn/symplectize-idempotent"]
RED = ["red/s-isotropic", "red/projector-idempotent", "red/projector-range",
       "red/projector-kernel"]
RED_LEVEL = ["red/l-equivariance"]
CHART = ["red/sigma-equivariance", "red/reduced-torsion",
         "red/reduced-oracle", "red/kks-match", "red/reduced-form-parallel",
         "red/reduced-form-closed", "red/fiber-independence", "red/lift-projection",
         "red/jet-fd"]
CURV = ["curv/formula-oracle", "curv/antisymmetry", "curv/symplectic-valued", "curv/bianchi",
        "curv/convergence-factor"]
# one list for every case with a chart, whatever its structure constants
CHARTED_NAMES = (LIE + ["lie/complement-equivariance"] + LIE_GROUP + PHASE + CONN
                 + ["conn/right-invariance"] + RED + ["red/w1-omega-nondegenerate"] + RED_LEVEL
                 + CHART + CURV)
PINNED_NAMES = {
    "so3": ({"group": "so3", "mu": [0.0, 0.0, 1.0]}, CHARTED_NAMES),
    "aff1-no-realization": (
        {"group": perfbench_cases().AFF1_NO_REALIZATION, "mu": [0.0, 1.0]},
        LIE + LIE_GROUP + PHASE + CONN + ["conn/right-invariance"] + RED
        + ["red/w1-omega-nondegenerate"] + RED_LEVEL),
    "abelian3": ({"group": "abelian(3)", "mu": [1.0, 0.5, -1.0]},
                 LIE + LIE_GROUP + PHASE + CONN + ["conn/right-invariance"] + RED + RED_LEVEL),
    "so4-regular": (None, CHARTED_NAMES),
}


@pytest.mark.parametrize("label", list(PINNED_NAMES))
def test_check_names_in_order(label):
    doc, names = PINNED_NAMES[label]
    rep, code = verify_suite(CaseConfig.from_dict(doc or _doc(label)))
    assert code == 0
    assert [c["name"] for c in rep["checks"]] == names


@pytest.mark.parametrize("label", ["so3", "so3-baseline", "heis3", "aff1-no-realization",
                                   "abelian3"])
def test_the_reduce_stage_reports_the_autoparallel_defect(label):
    # red/autoparallel-report, the constant True that carried the defect as its
    # note, is a test of the suite: the reduce stage reports the defect on every
    # case, and verify lists red/autoparallel-independence, with the defect as
    # its note, exactly where the stage has an independence and a chart
    docs = {"so3-baseline": {"group": "so3", "mu": [0.0, 0.0, 1.0], "connection": "baseline"},
            "heis3": {"group": "heis3", "mu": [0.0, 0.0, 1.0]}}
    doc = docs.get(label) or PINNED_NAMES[label][0] or _doc(label)
    cfg = CaseConfig.from_dict(doc)
    rep, code = run_pipeline(cfg, "reduce")
    assert code == 0
    reduced = rep["stages"]["reduce"]
    auto = reduced["autoparallel"]
    assert list(auto) == ["defect", "independence"] and 0.0 <= auto["defect"] < np.inf
    checks = {c["name"]: c for c in verify_suite(cfg)[0]["checks"]}
    listed = auto["independence"] is not None and reduced["sigma"] is not None
    assert ("red/autoparallel-independence" in checks) is listed is (label == "heis3")
    if listed:
        assert checks["red/autoparallel-independence"]["note"] == f"defect {auto['defect']:.3e}"


def test_a_custom_complement_gives_the_isotropy_checks_a_value():
    # the default s̃ is pure fiber, so W = s̃ᵀΩs̃ = 0, λ = 0, L ≡ 0 and S = s̃:
    # red/s-isotropic and red/l-equivariance read exactly 0.0.  On so(4) regular,
    # whose g_μ is abelian, s̃ + (g_μ·A, 0) is stabilizer-stable for any A, and a
    # non-symmetric A gives W ≠ 0 and λ ≠ 0.  At μ moved along its orbit by a
    # generic element, g_μ is off the coordinate axes and the stabilizer's
    # transport is not exact: both checks read roundoff, not 0.0, and pass
    cases = perfbench_cases()
    _, n, weights, *_ = cases.SO4_CASES[0]
    group = cases.so_n_group(n)
    a = rc.algebra_from_json(group)
    g = rc.group_exp(a, np.linspace(-0.6, 0.5, a.dim))
    mu = rc.coadjoint_matrix(g) @ np.array(cases.so_n_mu(n, weights))
    default = rc.build_context(a, mu)
    A = np.array([[0.3, 0.8], [-0.5, 0.2]])
    s_tilde = default.s_tilde + np.vstack([default.split.g_mu @ A, np.zeros((a.dim, 2))])
    assert np.max(np.abs(default.iso_map)) == 0.0
    assert np.max(np.abs(rc.build_context(a, mu, s_tilde=s_tilde).iso_map)) > 0.01
    names = ("red/s-isotropic", "red/l-equivariance")
    for st, nonzero in (("default", False), (s_tilde.tolist(), True)):
        rep, code = verify_suite(CaseConfig.from_dict({"group": group, "mu": mu.tolist(),
                                                       "samples": 2, "s_tilde": st}))
        assert code == 0 and rep["passed"] is True
        checks = {c["name"]: c for c in rep["checks"]}
        assert all((checks[name]["value"] > 0.0) is nonzero for name in names)


SE2_BRACKETS = [[0, 1, [2, 1.0]], [0, 2, [1, -1.0]]]
SO3_BRACKETS = SE2_BRACKETS + [[1, 2, [0, 1.0]]]


@pytest.mark.parametrize("brackets,name,mu", [
    (SE2_BRACKETS, "so3", [0.0, 1.0, 0.0]),
    (SO3_BRACKETS, "rot3", [0.0, 0.0, 1.0]),
], ids=["se2-named-so3", "so3-named-rot3"])
def test_averaging_checks_follow_the_brackets_not_the_name(brackets, name, mu):
    # the averaging pair is a test of the suite, not a verify check: neither
    # so3's structure constants nor the name "so3" adds a check
    doc = {"group": {"dim": 3, "name": name, "brackets": brackets}, "mu": mu}
    rep, code = verify_suite(CaseConfig.from_dict(doc))
    assert code == 0 and rep["passed"] is True
    assert not any(check["name"].startswith("avg/") for check in rep["checks"])


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


def test_baseline_note_marks_only_the_check_that_fails_by_construction():
    # the baseline's ∇ω does not vanish, so conn/nabla-omega fails on every case
    # under connection "baseline"; the reduced curvature is symplectic-valued on
    # most of them (so3 here), but not on all (so(5) regular)
    so5_regular = perfbench_cases().so5_reduce_cases(1)[0]["config"]
    for doc, symplectic in (({"group": "so3", "mu": [0.0, 0.0, 1.0]}, True),
                            (so5_regular, False)):
        rep, code = verify_suite(CaseConfig.from_dict(dict(doc, connection="baseline")))
        checks = {c["name"]: c for c in rep["checks"]}
        assert code == EXIT_NUMERICAL
        assert not checks["conn/nabla-omega"]["passed"]
        assert checks["conn/nabla-omega"]["note"] == pipeline.BASELINE_NOTE
        assert checks["curv/symplectic-valued"]["passed"] is symplectic
        assert checks["curv/symplectic-valued"]["note"] == ""


def test_every_threshold_is_read_by_some_check():
    # each THRESHOLDS key gets a distinct value; every one of them is some
    # check's threshold on so3, where every part of the battery runs
    tol = {key: 1.0 + i for i, key in enumerate(THRESHOLDS)}
    rep, _ = verify_suite(CaseConfig.from_dict({"group": "so3", "mu": [0.0, 0.0, 1.0],
                                                "tol": tol}))
    assert rep["error"] is None
    used = {c["threshold"] for c in rep["checks"]}
    assert [key for key, value in tol.items() if value not in used] == []


@pytest.mark.parametrize("name", ["averaging_torsion", "averaging_fixed", "baseline_closed_form",
                                  "jacobi", "coad_group_law", "baseline_torsion", "a_symmetry",
                                  "omega_closed", "tsigma_delta_pairing", "alpha_identities",
                                  "sigma_torsion", "geodesic_oracle"])
def test_a_threshold_of_a_moved_check_is_a_config_error(name, tmp_path, capsys):
    # the averaging pair, the ∇°ω closed form, the checks true by construction
    # (lie/jacobi, lie/coad-group-law, conn/baseline-torsion, conn/a-symmetry)
    # and the checks another check implies (phase/omega-closed,
    # phase/tsigma-delta-pairing, red/alpha-identities, red/sigma-torsion,
    # red/geodesic-oracle) are tests of the suite, not verify checks: tol does
    # not name them
    path = tmp_path / "case.json"
    path.write_text(json.dumps({"group": "so3", "mu": [0.0, 0.0, 1.0], "tol": {name: 1e-9}}))
    assert main(["verify", "--config", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "ConfigError"


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


def test_a_defect_over_its_threshold_fails():
    # a defect passes up to its threshold and fails past it, NaN included
    cfg = CaseConfig.from_dict({"group": "so3", "mu": [0.0, 0.0, 1.0]})
    threshold = cfg.threshold("kks_match")
    assert _record(cfg, "x", threshold, "kks_match")["passed"]
    for value in (2.0 * threshold, np.nan):
        assert not _record(cfg, "x", value, "kks_match")["passed"]


def _jet_fd_geometry(label: str, chart_type=orbits.OrbitChart) -> reduction.SigmaGeometry:
    """The geometry of a case of ``_doc`` (or aff1 with a realization at μ = (0, 1)),
    on its default chart's data in a chart of ``chart_type``."""
    cfg = CaseConfig.from_dict({"group": AFF1_DOC, "mu": [0.0, 1.0]} if label == "aff1"
                               else _doc(label))
    a = cfg.algebra()
    ctx = reduction.build_context(a, cfg.mu_vector(a))
    chart = reduction.default_chart(ctx)
    return reduction.SigmaGeometry(ctx, chart_type(a, chart.mu, chart.m_basis))


@pytest.mark.parametrize("label", ["so3", "so4-regular", "so4-singular"])
def test_jet_fd_reads_the_sweeps_kernels_at_t0_on_1_and_h0(label):
    # the check's kernels are the chart sweep's rows at t = 0 on the identity
    # and on the run's first stabilizer element: kernels built there anew give
    # its value bit for bit
    cfg = CaseConfig.from_dict(_doc(label))
    run = pipeline._run_stages(cfg, "curvature", {}, {})
    geom = run.geom
    assert run.stabilizer.shape == (5, geom.n, geom.n)
    value = next(c[1] for c in pipeline._verify_reduction(cfg, run) if c[0] == "red/jet-fd")
    t, fibers = np.zeros(geom.chart.dim), np.array([geom.identity, run.stabilizer[0]])
    fresh = pipeline._jet_fd_defect(geom, t, fibers, geom.kernels([t, t], fibers))
    assert value.hex() == fresh.hex()


def _jet_fd_fibers(geom: reduction.SigmaGeometry) -> np.ndarray:
    """The identity and exp(g_μ·(½, …, ½)), as Ad matrices; the identity alone at k = 0."""
    a, g_mu = geom.ctx.algebra, geom.ctx.split.g_mu
    k = g_mu.shape[1]
    return np.array([geom.identity] + ([liealg.group_exp(a, g_mu @ np.full(k, 0.5))] if k else []))


def _jet_fd(geom: reduction.SigmaGeometry, t) -> float:
    """``pipeline._jet_fd_defect`` at t on ``_jet_fd_fibers``, with their kernels built here."""
    fibers = _jet_fd_fibers(geom)
    return pipeline._jet_fd_defect(geom, t, fibers, geom.kernels([t] * len(fibers), fibers))


@pytest.mark.parametrize("label", ["so3", "so4-regular"])
def test_jet_fd_stencil_points_keep_no_kernel(label, monkeypatch):
    # the check builds no kernel: it reads the caller's at t on its fibers, and
    # its stencil points take lifts from the chart's lift block alone, every
    # fiber's in one exponential call
    geom = _jet_fd_geometry(label)
    t = np.linspace(-0.2, 0.2, geom.chart.dim)
    fibers = _jet_fd_fibers(geom)
    K = geom.kernels([t] * len(fibers), fibers)
    built, calls = count_builds(monkeypatch), []
    exp_data = orbits.OrbitChart.exp_data

    def spied(self, ts, derivatives=True):
        calls.append((len(np.atleast_2d(ts)), derivatives))
        return exp_data(self, ts, derivatives)

    monkeypatch.setattr(orbits.OrbitChart, "exp_data", spied)
    assert pipeline._jet_fd_defect(geom, t, fibers, K) <= THRESHOLDS["jet_fd"]
    assert built == []
    directions = geom.chart.dim + geom.ctx.stabilizer_dim
    assert calls == [(2 * 2 * directions, False)]


def _per_fiber_jet_fd_defect(geom: reduction.SigmaGeometry, t) -> float:
    """``pipeline._jet_fd_defect`` as one stencil per fiber, each placing its
    points with no fiber shift when there is no stabilizer: the reference the
    one stencil over both fibers must equal bit for bit."""
    a, g_mu, km, n = geom.ctx.algebra, geom.ctx.split.g_mu, geom.chart.dim, geom.n
    k, step = g_mu.shape[1], pipeline.JET_FD_STEP
    fibers = _jet_fd_fibers(geom)
    K = geom.kernels([t] * len(fibers), fibers)
    gens = np.broadcast_to(np.pad(g_mu.T, ((0, 0), (0, n))), (len(fibers), k, 2 * n))
    us = np.concatenate([K.lifts, gens], axis=1)
    exact = geom.lift_derivatives(K, us)
    fd = []
    for fiber, u, frame in zip(fibers, us, K.F):
        params = geom._params(frame, u)
        signed = np.multiply.outer(np.broadcast_to(step, len(params)), (1.0, -1.0))
        ts = (np.reshape(t, (-1, 1, km)) + signed[..., None] * params[:, None, :km]).reshape(-1, km)
        if k:
            ad_y = a.ad(linalg.matvec(g_mu, params[:, km:]))
            shifted = fiber @ linalg.expm(signed[..., None, None] * ad_y[:, None])
            shifted = shifted.reshape(-1, n, n)
        else:
            shifted = np.broadcast_to(fiber, (len(ts), n, n))
        v = geom.lift_frames(ts, shifted)[0].reshape((-1, 2, km, 2 * n))
        fd.append((v[:, 0] - v[:, 1]) / (2.0 * np.reshape(step, (-1, 1, 1))))
    fd = np.array(fd)
    return float(np.max(np.max(np.abs(exact - fd), axis=(-2, -1))
                        / np.maximum(1.0, np.max(np.abs(exact), axis=(-2, -1)))))


@pytest.mark.parametrize("label", ["so3", "so4-regular", "so4-singular", "aff1"])
def test_jet_fd_is_the_per_fiber_stencils_bit_for_bit(label):
    # one stencil over both fibers' directions gives the per-fiber stencils'
    # value bit for bit; aff1 has no stabilizer, so its fiber shifts are e⁰ = I
    geom = _jet_fd_geometry(label)
    assert (geom.ctx.stabilizer_dim == 0) == (label == "aff1")
    for t in (np.zeros(geom.chart.dim), np.linspace(-0.2, 0.15, geom.chart.dim)):
        value = _jet_fd(geom, t)
        assert value.hex() == _per_fiber_jet_fd_defect(geom, t).hex()
        assert value <= THRESHOLDS["jet_fd"]


@pytest.mark.parametrize("tangent,lift,error", [
    ([5], [6], NotTangent), ([], [11], SingularProjection), ([3], [2], SingularProjection)],
    ids=["first-fiber-last-row", "second-fiber-only", "first-row-first"])
def test_jet_fd_raises_at_the_first_failing_stencil_row(tangent, lift, error):
    # so3's stencil has 6 rows per fiber (2 lifts and 1 generator, ±), the
    # first fiber's first; rows with a normal column in D fail tangency, rows
    # with Coad 0 fail the lift system, which is checked first at a row; the
    # error is that of the first failing row of the first fiber that has one
    class Broken(orbits.OrbitChart):
        def lift_data(self, ts):
            coad, vecs, D = (x.copy() for x in super().lift_data(ts))
            if len(ts) == 12:  # the stencil's points, not the kernels' at t
                D[tangent] += np.outer(self.mu, np.eye(self.dim)[0])
                coad[lift] = 0.0
            return coad, vecs, D

    geom = _jet_fd_geometry("so3", Broken)
    with pytest.raises(error):
        _jet_fd(geom, np.zeros(geom.chart.dim))


def test_jet_fd_check_catches_a_sign_flipped_fiber_term(monkeypatch):
    # the check differences along the stabilizer generators too, so a wrong
    # fiber half of the jet shows even at the sweep's first point, t = 0,
    # where the lifts move along the chart only.  Both finite-difference
    # curvature routes read tables built from that jet, so they agree with
    # each other, but the convergence probe measures them against the exact
    # curvature, which reads no jet: they converge to another value there
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
    assert failed == ["red/jet-fd", "curv/convergence-factor"]


@pytest.mark.parametrize("scale", [1e5, 1e6])
@pytest.mark.parametrize("name", ["so3", "su2", "se2"])
def test_a_large_mu_keeps_the_symplectization(name, scale):
    # Ω(μ)'s σ_min/σ_max is |μ|⁻², yet det Ω = 1 at every scale and its inverse
    # is in closed form: the connect stage runs, and every connection check
    # passes (phase/radical-span decides a rank with a relative cutoff and is
    # not asserted here)
    mu = [scale * x for x in dict(CATALOG_CASES)[name]]
    cfg = CaseConfig.from_dict({"group": name, "mu": mu})
    rep, code = run_pipeline(cfg, "curvature")
    assert (code, rep["error"]) == (0, None)
    rep, _ = verify_suite(cfg)
    conn = {c["name"]: c["passed"] for c in rep["checks"] if c["name"].startswith("conn/")}
    assert len(conn) == 4 and all(conn.values()), conn
