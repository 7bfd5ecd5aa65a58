"""Fresh-interpreter helpers started by run.py.

    python child.py setup CASES_JSON
        Import redconn and redconn.cli (timed), build and validate every
        algebra the cases name, and print the stabilizer dimension of each
        case with a mu.

    python child.py cli SPANS_PREFIX VERB --config PATH
        Import redconn.cli, install the tracer, run the CLI verb as
        ``python -m redconn.cli`` would, then write the span summary
        (SPANS_PREFIX.json) and every span (SPANS_PREFIX.npz).
"""

from __future__ import annotations

import json
import sys
import time


def setup(cases_path: str) -> int:
    t0 = time.perf_counter()
    import redconn
    import redconn.cli  # noqa: F401 - part of what a CLI user imports
    import_s = time.perf_counter() - t0
    from redconn.liealg import algebra_from_json, named_algebra, stabilizer_algebra

    with open(cases_path, encoding="utf-8") as fh:
        cases = json.load(fh)
    built = {}
    dims = {}
    for case in cases:
        group = case["config"]["group"]
        key = json.dumps(group, sort_keys=True)
        if key not in built:
            built[key] = named_algebra(group) if isinstance(group, str) \
                else algebra_from_json(group)
        if "mu" in case["config"]:
            dims[case["label"]] = int(stabilizer_algebra(built[key],
                                                         case["config"]["mu"]).shape[1])
    print(json.dumps({"stabilizer_dims": dims, "redconn": redconn.__file__,
                      "import_s": import_s}))
    return 0


def cli(prefix: str, argv: list) -> int:
    import redconn.cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = redconn.cli.main(argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    with open(prefix + ".json", "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh)
    tracer.dump(prefix + ".npz")
    return code


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        sys.exit(setup(sys.argv[2]))
    sys.exit(cli(sys.argv[2], sys.argv[3:]))
