"""Command line interface.

Verbs: validate, reduce, curvature, verify, export-connection.  Every verb
reads a JSON case configuration, emits a JSON report (stdout or --out), and
exits 0 on success, 2 on configuration errors, 3 on failed structural
assumptions, and 4 on numerical failures.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import report as report_mod
from .connections import baseline_connection, connection_to_json, symplectize
from .errors import ConfigError
from .pipeline import CaseConfig, EXIT_CONFIG, run_pipeline, verify_suite, _exit_code, _error_record


def _load_config(args: argparse.Namespace) -> CaseConfig:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    # flag overrides go through the same validation as the file's values
    if isinstance(doc, dict):
        doc = {**doc, **{key: getattr(args, key) for key in ("seed", "fd_step", "tol_scale")
                         if getattr(args, key) is not None}}
    return CaseConfig.from_dict(doc)


def _emit(rep: dict, out: str | None) -> None:
    text = report_mod.write(rep, out)
    if not out:
        sys.stdout.write(text)


def _export_connection(cfg: CaseConfig, kind: str) -> dict:
    a = cfg.algebra()
    conn = baseline_connection(a)
    if kind == "symplectic":
        conn = symplectize(conn)
    xi_list = cfg.xi_list
    if xi_list is None:
        rng = np.random.default_rng(cfg.seed)
        xi_list = [cfg.mu_vector(a).tolist()] + \
            [rng.standard_normal(a.dim).tolist() for _ in range(2)]
    return {
        "schema_version": report_mod.SCHEMA_VERSION,
        "config": cfg.as_dict(),
        "connection": connection_to_json(conn, xi_list),
        "error": None,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="redconn",
        description="Reduce invariant symplectic connections on G x g* to "
                    "coadjoint orbits and validate the result.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to a JSON case configuration")
    common.add_argument("--out", default=None, help="write the JSON report to this path")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--fd-step", dest="fd_step", type=float, default=None,
                        help="override the first-derivative finite-difference step")
    common.add_argument("--tol-scale", dest="tol_scale", type=float, default=None,
                        help="multiply every tolerance by this factor")
    sub.add_parser("validate", parents=[common],
                   help="algebra and level-set checks only")
    sub.add_parser("reduce", parents=[common],
                   help="validate, build the connection, and reduce to the orbit")
    sub.add_parser("curvature", parents=[common],
                   help="full pipeline including both curvature routes")
    sub.add_parser("verify", parents=[common],
                   help="run every structural property as a named check")
    exp = sub.add_parser("export-connection", parents=[common],
                         help="serialize connection coefficients at sample fiber points")
    exp.add_argument("--kind", choices=["baseline", "symplectic"], default="symplectic")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
    except ConfigError as exc:
        _emit({"schema_version": report_mod.SCHEMA_VERSION,
               "error": _error_record(exc, "config")}, args.out)
        return EXIT_CONFIG
    if args.command == "verify":
        rep, code = verify_suite(cfg)
    elif args.command == "export-connection":
        try:
            rep, code = _export_connection(cfg, args.kind), 0
        except Exception as exc:  # noqa: BLE001 - mapped to exit codes
            rep, code = {"schema_version": report_mod.SCHEMA_VERSION,
                         "error": _error_record(exc, "export")}, _exit_code(exc)
    else:
        stop = {"validate": "validate", "reduce": "reduce", "curvature": "curvature"}
        rep, code = run_pipeline(cfg, stop_after=stop[args.command])
    _emit(rep, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
