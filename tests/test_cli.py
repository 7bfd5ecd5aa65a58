import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import redconn
from redconn.cli import main
from redconn.pipeline import CaseConfig, run_pipeline, verify_suite
from redconn.errors import ConfigError
from tests.conftest import AFF1_DOC, MALFORMED_ALGEBRAS, perfbench_cases


def _write_config(tmp_path, doc, name="case.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _strip_timings(doc):
    doc = dict(doc)
    doc.pop("timings", None)
    return doc


SO3_DOC = {"group": "so3", "mu": [0.0, 0.0, 1.0], "samples": 3}

# (key, value, passed as a CLI flag rather than in the file); fd_step and
# chart_radius are no config keys, so any value of theirs is an unknown key
BAD_VALUES = [("samples", "3", False), ("samples", 2.5, False), ("samples", True, False),
              ("fd_step", "1e-5", False), ("seed", -1, False), ("mu", "abc", False),
              ("chart_radius", "x", False), ("seed", -1, True),
              ("tol_scale", 0.0, True), ("tol_scale", -1.0, True), ("xi_list", "abc", False),
              ("s_tilde", 5, False), ("s_tilde", "other", False),
              # Python's json reads NaN and ±Infinity
              ("tol_scale", math.inf, True), ("tol", {"kks_match": math.inf}, False),
              ("mu", [math.nan, 0, 1], False), ("fd_step", math.inf, False),
              ("tol_scale", math.nan, True), ("chart_radius", -math.inf, False),
              ("xi_list", [[0.0, math.inf, 1.0]], False),
              # 0 stays allowed: the exact checks use it
              ("tol", {"kks_match": -1e-8}, False),
              ("connection", "other", False), ("tol", [1], False)]
# aff(1) ⊕ R realized by 3×3 matrices, with a false claim about its group
# elements: e_0 = E_00 has trace 1 and is symmetric
AFF1_R_DOC = {"dim": 3, "brackets": [[0, 1, [1, 1.0]]],
              "realization": [[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                              [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                              [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]]}
FALSE_CLAIMS = [dict(AFF1_R_DOC, name=f"aff1+r-{claim}", **{claim: True})
                for claim in ("det_one", "orthogonal")]
BAD_VALUES += [("group", doc, False) for doc in FALSE_CLAIMS]
# (algebra document, matching mu) with an index or dimension out of range
OUT_OF_RANGE_ALGEBRAS = [({"dim": 3, "brackets": [[0, -1, [1, 1.0]]]}, [0.0, 0.0, 1.0]),
                         ({"dim": 3, "brackets": [[0, 1, [-1, 1.0]]]}, [0.0, 0.0, 1.0]),
                         ({"dim": 0}, [])]


def _plain(value):
    """``value`` with numpy arrays and scalars as their Python values, tuples as lists."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _same_plain(a, b) -> bool:
    """Equal plain JSON values of equal types, NaN equal to NaN, each zero's sign kept."""
    if isinstance(a, dict):
        return (type(b) is dict and list(a) == list(b)
                and all(_same_plain(a[k], b[k]) for k in a))
    if isinstance(a, list):
        return type(b) is list and len(a) == len(b) and all(map(_same_plain, a, b))
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return (type(a) is type(b) and a == b
            and (not isinstance(a, float) or math.copysign(1.0, a) == math.copysign(1.0, b)))


def _bad_value_id(key, value, flag) -> str:
    if key == "group":
        return f"group={value['name']}"
    return f"{key}={value!r}{'-flag' if flag else ''}"


class TestVerbs:
    def test_validate_exit_zero(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, SO3_DOC)
        code = main(["validate", "--config", cfg])
        out = capsys.readouterr().out
        assert code == 0
        rep = json.loads(out)
        assert rep["stages"]["validate"]["stabilizer_dim"] == 1
        assert rep["error"] is None

    def test_reduce_reports_dims_and_sigma(self, tmp_path):
        cfg = _write_config(tmp_path, SO3_DOC)
        out_path = tmp_path / "report.json"
        code = main(["reduce", "--config", cfg, "--out", str(out_path)])
        assert code == 0
        rep = json.loads(out_path.read_text())
        reduce_stage = rep["stages"]["reduce"]
        assert reduce_stage["dims"] == {"delta": 1, "w1": 2, "w2": 2, "s": 1}
        assert reduce_stage["sigma"] == -1.0
        assert reduce_stage["kks_residual"] <= 1e-8

    def test_curvature_full_pipeline(self, tmp_path):
        cfg = _write_config(tmp_path, SO3_DOC)
        out_path = tmp_path / "report.json"
        code = main(["curvature", "--config", cfg, "--out", str(out_path)])
        assert code == 0
        rep = json.loads(out_path.read_text())
        assert rep["stages"]["curvature"]["max_discrepancy"] <= 1e-4
        assert 3.0 <= rep["stages"]["curvature"]["convergence"]["factor"] <= 5.0

    def test_verify_all_checks_pass(self, tmp_path):
        cfg = _write_config(tmp_path, SO3_DOC)
        out_path = tmp_path / "report.json"
        code = main(["verify", "--config", cfg, "--out", str(out_path)])
        assert code == 0
        rep = json.loads(out_path.read_text())
        assert rep["passed"] is True
        assert all(c["passed"] for c in rep["checks"])

    @pytest.mark.parametrize("realized", [True, False], ids=["realization", "no-realization"])
    def test_verify_full_dimensional_orbit(self, tmp_path, realized):
        # aff(1) at mu = (0, 1): stabilizer of dimension 0, the orbit is open
        group = AFF1_DOC if realized else {k: v for k, v in AFF1_DOC.items()
                                           if k != "realization"}
        cfg = _write_config(tmp_path, {"group": group, "mu": [0.0, 1.0]})
        out_path = tmp_path / "report.json"
        code = main(["verify", "--config", cfg, "--out", str(out_path)])
        assert code == 0
        assert json.loads(out_path.read_text())["passed"] is True

    def test_verify_negative_control_fails_only_nabla_omega(self, tmp_path):
        # skipping the symplectization surfaces in exactly one named check on
        # the flagship case: the bi-invariant baseline reduces identically
        cfg = _write_config(tmp_path, dict(SO3_DOC, connection="baseline"))
        out_path = tmp_path / "report.json"
        code = main(["verify", "--config", cfg, "--out", str(out_path)])
        assert code == 4
        rep = json.loads(out_path.read_text())
        failed = [c["name"] for c in rep["checks"] if not c["passed"]]
        assert failed == ["conn/nabla-omega"]

    def test_export_connection_default_xi_draw(self, tmp_path):
        # without xi_list: mu, then two seeded standard-normal samples
        cfg = _write_config(tmp_path, dict(SO3_DOC, seed=3))
        outs = [tmp_path / f"conn{i}.json" for i in range(2)]
        for out_path in outs:
            assert main(["export-connection", "--config", cfg, "--out", str(out_path)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        evaluations = json.loads(outs[0].read_text())["connection"]["evaluations"]
        assert len(evaluations) == 3
        assert evaluations[0]["xi"] == SO3_DOC["mu"]

    def test_export_connection(self, tmp_path):
        doc = dict(SO3_DOC)
        doc["xi_list"] = [[0.0, 0.0, 1.0], [0.5, -0.2, 0.1]]
        cfg = _write_config(tmp_path, doc)
        out_path = tmp_path / "conn.json"
        code = main(["export-connection", "--config", cfg, "--out", str(out_path)])
        assert code == 0
        rep = json.loads(out_path.read_text())
        assert rep["connection"]["label"] == "symplectized(baseline)"
        assert len(rep["connection"]["evaluations"]) == 2
        gamma = np.asarray(rep["connection"]["evaluations"][0]["gamma"])
        assert gamma.shape == (6, 6, 6)

    def test_export_connection_follows_the_config(self, tmp_path):
        # the config's connection key names what is exported; no flag restates it
        doc = dict(SO3_DOC, connection="baseline", xi_list=[[0.5, -0.2, 0.1]])
        cfg = _write_config(tmp_path, doc)
        out_path = tmp_path / "conn.json"
        assert main(["export-connection", "--config", cfg, "--out", str(out_path)]) == 0
        conn = json.loads(out_path.read_text())["connection"]
        assert conn["label"] == "baseline"
        assert not conn["is_symplectic"]
        base = redconn.baseline_coefficients(redconn.so3())
        assert np.array_equal(np.asarray(conn["evaluations"][0]["gamma"]), base)
        with pytest.raises(SystemExit) as exc:
            main(["export-connection", "--config", cfg, "--kind", "symplectic"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("connection", ["symplectic", "baseline"])
    def test_export_connection_of_no_xi(self, tmp_path, connection):
        # an empty xi_list exports no evaluation, under either connection
        cfg = _write_config(tmp_path, dict(SO3_DOC, connection=connection, xi_list=[]))
        out_path = tmp_path / "conn.json"
        assert main(["export-connection", "--config", cfg, "--out", str(out_path)]) == 0
        assert json.loads(out_path.read_text())["connection"]["evaluations"] == []


class TestExitCodes:
    def test_bad_config_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", "--config", str(path)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("contents", [json.dumps([SO3_DOC]), json.dumps({"group": "so3"}),
                                          None], ids=["list", "no-mu", "unreadable"])
    def test_unusable_config_is_config_error(self, tmp_path, capsys, contents):
        path = tmp_path / "case.json"
        if contents is not None:
            path.write_text(contents)
        assert main(["validate", "--config", str(path)]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "ConfigError"

    @pytest.mark.parametrize("verb,config", [
        *[(verb, SO3_DOC) for verb in ("validate", "reduce", "curvature", "verify",
                                       "export-connection")],
        ("validate", None)], ids=["validate", "reduce", "curvature", "verify",
                                  "export-connection", "config-error"])
    def test_unwritable_out_path_is_config_error(self, tmp_path, capsys, verb, config):
        # every verb, and the config-error report, exits 2 with one line on
        # stderr naming the path when --out cannot be written
        cfg = _write_config(tmp_path, config) if config else str(tmp_path / "absent.json")
        out = tmp_path / "missing" / "r.json"
        assert main([verb, "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.count("\n") == 1 and str(out) in captured.err

    @pytest.mark.parametrize("verb,stage", [("validate", "validate"), ("verify", "verify"),
                                            ("export-connection", "export")])
    def test_refused_allocation_is_numerical_failure(self, tmp_path, capsys, verb, stage):
        # dim 100000 asks numpy for 7.1 PiB of structure constants, which it
        # refuses at once: exit 4 with the error in the report, not a traceback
        cfg = _write_config(tmp_path, {"group": {"dim": 100000, "brackets": []}, "mu": [0.0]})
        assert main([verb, "--config", cfg]) == 4
        error = json.loads(capsys.readouterr().out)["error"]
        assert (error["type"], error["stage"]) == ("MemoryError", stage)
        assert "Unable to allocate" in error["message"]

    def test_unknown_stage_is_config_error(self):
        with pytest.raises(ConfigError):
            run_pipeline(CaseConfig.from_dict(SO3_DOC), "bogus")

    @pytest.mark.parametrize("group,mu", OUT_OF_RANGE_ALGEBRAS,
                             ids=["negative-j", "negative-k", "dim-0"])
    def test_out_of_range_algebra_is_config_error(self, tmp_path, capsys, group, mu):
        cfg = _write_config(tmp_path, {"group": group, "mu": mu})
        assert main(["curvature", "--config", cfg]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "ConfigError"

    @pytest.mark.parametrize("group", MALFORMED_ALGEBRAS.values(), ids=MALFORMED_ALGEBRAS)
    def test_malformed_algebra_is_config_error(self, tmp_path, capsys, group):
        cfg = _write_config(tmp_path, {"group": group, "mu": [0.0, 1.0]})
        assert main(["validate", "--config", cfg]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "ConfigError"

    @pytest.mark.parametrize("verb", ["validate", "reduce", "curvature", "verify",
                                      "export-connection"])
    def test_every_malformed_algebra_is_config_error_under_every_verb(self, tmp_path, capsys,
                                                                      verb):
        for name, group in MALFORMED_ALGEBRAS.items():
            cfg = _write_config(tmp_path, {"group": group, "mu": [0.0, 1.0]})
            assert main([verb, "--config", cfg]) == 2, name
            error = json.loads(capsys.readouterr().out)["error"]
            assert error["type"] == "ConfigError", name
            assert error["message"].startswith("malformed algebra document: "), name

    @pytest.mark.parametrize("verb", ["validate", "curvature", "verify"])
    def test_non_finite_algebra_is_config_error_under_every_verb(self, tmp_path, capsys, verb):
        for name in ("coeff=Infinity", "realization=NaN", "realization=Infinity"):
            cfg = _write_config(tmp_path, {"group": MALFORMED_ALGEBRAS[name], "mu": [0.0, 1.0]})
            assert main([verb, "--config", cfg]) == 2, name
            assert json.loads(capsys.readouterr().out)["error"]["type"] == "ConfigError"

    def test_integer_beyond_float_range_is_config_error(self, tmp_path, capsys):
        # Python's json reads any integer; 10**400 has no finite float value
        cfg = _write_config(tmp_path, {"group": "so3", "mu": [0, 0, 10 ** 400]})
        assert main(["validate", "--config", cfg]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "ConfigError"

    @pytest.mark.parametrize("verb", ["validate", "curvature", "verify"])
    def test_huge_structure_constant_is_rank_loss(self, tmp_path, capsys, verb):
        # a coefficient so large that the relative rank cutoff drops the unit
        # block of the constraint split at μ = (0, 1): a rank loss, not a traceback
        group = {"dim": 2, "brackets": [[0, 1, [1, 1e154]]]}
        cfg = _write_config(tmp_path, {"group": group, "mu": [0.0, 1.0]})
        assert main([verb, "--config", cfg]) == 4
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "RankLoss"

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"group": "so3", "mu": [0, 0, 1], "bogus": 1})
        assert main(["validate", "--config", cfg]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("key,value,flag", BAD_VALUES,
                             ids=[_bad_value_id(*bad) for bad in BAD_VALUES])
    def test_bad_value_is_config_error(self, tmp_path, capsys, key, value, flag):
        doc = dict(SO3_DOC, **{key: value})
        schema = json.loads((Path(__file__).parent.parent / "docs" / "config_schema.json")
                            .read_text())
        try:
            json.dumps(doc, allow_nan=False)
        except ValueError:
            pass  # NaN and ±Infinity are not JSON, so the schema cannot speak of them
        else:
            # nor can it check a claim about a realization's group elements
            valid = jsonschema.Draft202012Validator(schema).is_valid(doc)
            assert valid == (doc["group"] in FALSE_CLAIMS)
        if flag:
            args = ["--config", _write_config(tmp_path, SO3_DOC),
                    "--" + key.replace("_", "-"), str(value)]
        else:
            args = ["--config", _write_config(tmp_path, doc)]
        code = main(["curvature", *args])
        assert code == 2
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "ConfigError"

    def test_mu_length_mismatch(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"group": "so3", "mu": [0, 1]})
        code = main(["validate", "--config", cfg])
        out = capsys.readouterr().out
        assert code == 2
        assert json.loads(out)["error"]["type"] == "ConfigError"

    @pytest.mark.parametrize("verb,key,value", [
        ("export-connection", "xi_list", [[1, 2]]), ("reduce", "s_tilde", [[1, 2], [3]])],
        ids=["xi_list-short", "s_tilde-ragged"])
    def test_array_shape_mismatch(self, tmp_path, capsys, verb, key, value):
        # schema-valid arrays whose shape the schema cannot express
        cfg = _write_config(tmp_path, {"group": "so3", "mu": [0, 0, 1], key: value})
        code = main([verb, "--config", cfg])
        out = capsys.readouterr().out
        assert code == 2
        assert json.loads(out)["error"]["type"] == "ConfigError"

    def test_nonreductive_exits_three(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"group": "sl2r", "mu": [0.0, 1.0, 0.0]})
        code = main(["reduce", "--config", cfg])
        out = capsys.readouterr().out
        assert code == 3
        rep = json.loads(out)
        assert rep["error"]["type"] == "NonReductiveStabilizer"
        assert rep["stages"]["validate"]["status"] == "ok"

    def test_invalid_custom_complement_exits_three(self, tmp_path, capsys):
        doc = {"group": "so3", "mu": [0.0, 0.0, 1.0],
               "s_tilde": [[0.0], [0.0], [0.0], [1.0], [0.0], [0.0]]}
        cfg = _write_config(tmp_path, doc)
        code = main(["reduce", "--config", cfg])
        out = capsys.readouterr().out
        assert code == 3
        assert json.loads(out)["error"]["type"] == "AssumptionTwoFailure"

    def test_abelian_completes_with_flag(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"group": "abelian(2)", "mu": [1.0, 0.5]})
        code = main(["curvature", "--config", cfg])
        out = capsys.readouterr().out
        assert code == 0
        rep = json.loads(out)
        assert rep["stages"]["reduce"]["zero_dimensional_base"] is True
        assert rep["stages"]["curvature"]["status"] == "skipped"


class TestDeterminism:
    def test_reports_identical_modulo_timings(self):
        from redconn import report as report_mod
        # so(4) regular from the benchmark's case set: a 4-dimensional orbit,
        # so each shared geometry serves many chart points and fibers
        cases = perfbench_cases()
        _, n, weights, _, _ = cases.SO4_CASES[0]
        so4_doc = {"group": cases.so_n_group(n), "mu": cases.so_n_mu(n, weights), "samples": 2}
        for doc in (SO3_DOC, so4_doc):
            for run in (run_pipeline, verify_suite):
                rep1, _ = run(CaseConfig.from_dict(dict(doc, seed=11)))
                rep2, _ = run(CaseConfig.from_dict(dict(doc, seed=11)))
                text1 = report_mod.dumps(_strip_timings(rep1))
                text2 = report_mod.dumps(_strip_timings(rep2))
                assert text1 == text2

    def test_seed_changes_sample_points(self):
        rep1, _ = run_pipeline(CaseConfig.from_dict(dict(SO3_DOC, seed=1)))
        rep2, _ = run_pipeline(CaseConfig.from_dict(dict(SO3_DOC, seed=2)))
        assert rep1["stages"]["reduce"]["chart_points"] != rep2["stages"]["reduce"]["chart_points"]

    def test_float_serialization_roundtrips(self):
        from redconn import report as report_mod
        value = 0.1234567890123456789
        text = report_mod.dumps({"x": value})
        assert json.loads(text)["x"] == value
        # numpy values and tuples parse back as the plain values they hold, and
        # every float as itself: NaN, ±Infinity, the sign of zero and subnormals
        floats = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "-0.0": -0.0,
                  "1.0": 1.0, "0.1": 0.1, "5e-324": 5e-324}
        values = {"floats": np.array([[0.1, -0.0], [math.nan, 1e300]]),
                  "ints": np.array([1, -2]), "bools": np.array([True, False]),
                  "float64": np.float64(0.1), "int64": np.int64(-7), "bool_": np.bool_(True),
                  "tuple": (1, 2.5, "a"), **floats}
        plain = {"floats": [[0.1, -0.0], [math.nan, 1e300]], "ints": [1, -2],
                 "bools": [True, False], "float64": 0.1, "int64": -7, "bool_": True,
                 "tuple": [1, 2.5, "a"], **floats}
        assert _same_plain(json.loads(report_mod.dumps(values)), plain)
        cases = perfbench_cases()
        _, n, weights, _, _ = cases.SO4_CASES[0]
        rep, _ = verify_suite(CaseConfig.from_dict(
            {"group": cases.so_n_group(n), "mu": cases.so_n_mu(n, weights), "samples": 2}))
        assert _same_plain(json.loads(report_mod.dumps(rep)), _plain(rep))


class TestFlags:
    def test_help_lists_flags(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_subcommand_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reduce", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--config", "--out", "--seed", "--tol-scale"):
            assert flag in out

    def test_seed_override(self, tmp_path):
        cfg = _write_config(tmp_path, dict(SO3_DOC, seed=5))
        out_path = tmp_path / "r.json"
        main(["validate", "--config", cfg, "--out", str(out_path), "--seed", "9"])
        rep = json.loads(out_path.read_text())
        assert rep["config"]["seed"] == 9

    def test_finite_difference_steps_and_chart_radius_are_not_settable(self, tmp_path, capsys):
        # the steps and the chart's sample scale are constants of the checks:
        # a config that sets one is an unknown key, and the flag is gone
        for key, value in (("fd_step", 1e-5), ("fd_step2", 1e-4), ("chart_radius", 1.0)):
            cfg = _write_config(tmp_path, dict(SO3_DOC, **{key: value}))
            assert main(["validate", "--config", cfg]) == 2
            error = json.loads(capsys.readouterr().out)["error"]
            assert error["type"] == "ConfigError"
            assert error["message"] == f"unknown config keys: {[key]}"
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--config", _write_config(tmp_path, SO3_DOC), "--fd-step", "1e-3"])
        assert exc.value.code == 2
        assert "--fd-step" in capsys.readouterr().err

    def test_tol_scale_loosens_thresholds(self):
        cfg = CaseConfig.from_dict(dict(SO3_DOC, tol_scale=10.0))
        assert cfg.threshold("kks_match") == pytest.approx(1e-7)

    def test_named_threshold_override(self):
        cfg = CaseConfig.from_dict(dict(SO3_DOC, tol={"kks_match": 1e-5}))
        assert cfg.threshold("kks_match") == pytest.approx(1e-5)
        assert cfg.threshold("jacobi") == pytest.approx(1e-12)
        with pytest.raises(ConfigError, match="kks_mach"):
            CaseConfig.from_dict(dict(SO3_DOC, tol={"kks_mach": 1e-3}))
        for bad in ("1e-3", True, None):
            with pytest.raises(ConfigError):
                CaseConfig.from_dict(dict(SO3_DOC, tol={"kks_match": bad}))

    def test_misspelt_threshold_exits_two(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, dict(SO3_DOC, tol={"kks_mach": 1e-3}))
        code = main(["verify", "--config", cfg])
        rep = json.loads(capsys.readouterr().out)
        assert code == 2
        assert rep["error"]["type"] == "ConfigError"
        assert rep["error"]["stage"] == "config"

    @staticmethod
    def _child(*args):
        # the child imports the same redconn as this process, installed or not
        src = str(Path(redconn.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)

    def test_cli_import_loads_no_scipy(self):
        # the exponential is in-repo; scipy serves only as a test reference
        proc = self._child("-c", "import sys, redconn.cli; print(sorted(m for m in sys.modules"
                                 " if m.split('.')[0].startswith('scipy')))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_installed_entry_point(self, tmp_path):
        cfg = _write_config(tmp_path, SO3_DOC)
        proc = self._child("-m", "redconn.cli", "validate", "--config", cfg)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["error"] is None
