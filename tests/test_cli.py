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
from tests.conftest import AFF1_DOC, perfbench_cases


def _write_config(tmp_path, doc, name="case.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _strip_timings(doc):
    doc = dict(doc)
    doc.pop("timings", None)
    return doc


SO3_DOC = {"group": "so3", "mu": [0.0, 0.0, 1.0], "samples": 3}

# (key, value, passed as a CLI flag rather than in the file)
BAD_VALUES = [("samples", "3", False), ("samples", 2.5, False), ("samples", True, False),
              ("fd_step", "1e-5", False), ("seed", -1, False), ("mu", "abc", False),
              ("chart_radius", "x", False), ("seed", -1, True), ("fd_step", 0.0, True),
              ("tol_scale", 0.0, True), ("tol_scale", -1.0, True), ("xi_list", "abc", False),
              ("s_tilde", 5, False), ("s_tilde", "other", False),
              # Python's json reads NaN and ±Infinity
              ("tol_scale", math.inf, True), ("tol", {"kks_match": math.inf}, False),
              ("mu", [math.nan, 0, 1], False), ("fd_step", math.inf, False),
              ("fd_step", math.nan, True), ("chart_radius", -math.inf, False),
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
        code = main(["export-connection", "--config", cfg, "--out", str(out_path),
                     "--kind", "symplectic"])
        assert code == 0
        rep = json.loads(out_path.read_text())
        assert len(rep["connection"]["evaluations"]) == 2
        gamma = np.asarray(rep["connection"]["evaluations"][0]["gamma"])
        assert gamma.shape == (6, 6, 6)


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

    def test_unknown_stage_is_config_error(self):
        with pytest.raises(ConfigError):
            run_pipeline(CaseConfig.from_dict(SO3_DOC), "bogus")

    @pytest.mark.parametrize("group,mu", OUT_OF_RANGE_ALGEBRAS,
                             ids=["negative-j", "negative-k", "dim-0"])
    def test_out_of_range_algebra_is_config_error(self, tmp_path, capsys, group, mu):
        cfg = _write_config(tmp_path, {"group": group, "mu": mu})
        assert main(["curvature", "--config", cfg]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "ConfigError"

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
        for flag in ("--config", "--out", "--seed", "--fd-step", "--tol-scale"):
            assert flag in out

    def test_seed_override(self, tmp_path):
        cfg = _write_config(tmp_path, dict(SO3_DOC, seed=5))
        out_path = tmp_path / "r.json"
        main(["validate", "--config", cfg, "--out", str(out_path), "--seed", "9"])
        rep = json.loads(out_path.read_text())
        assert rep["config"]["seed"] == 9

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
