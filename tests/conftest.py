import importlib.util
from pathlib import Path

import numpy as np
import pytest

import redconn as rc

CATALOG_CASES = [
    ("so3", [0.0, 0.0, 1.0]),
    ("su2", [0.0, 0.0, 1.0]),
    ("sl2r", [1.0, 0.0, 0.0]),
    ("heis3", [0.0, 0.0, 1.0]),
    ("se2", [0.0, 1.0, 0.0]),
]

def perfbench_cases():
    """The benchmark's case tables (``perfbench/cases.py``), loaded by path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_cases", Path(__file__).parent.parent / "perfbench" / "cases.py")
    cases = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cases)
    return cases


def track_geometries(monkeypatch) -> list:
    """Every ``SigmaGeometry`` built from now on, in order of construction; each
    keeps the level-set tables it computed in ``_tables``."""
    built = []
    init = rc.SigmaGeometry.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(rc.SigmaGeometry, "__init__", tracked)
    return built


AFF1_DOC = {
    "dim": 2,
    "name": "aff1",
    "brackets": [[0, 1, [1, 1.0]]],
    "realization": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]],
}


@pytest.fixture(scope="session")
def so3():
    return rc.so3()


@pytest.fixture(scope="session")
def mu_so3():
    return np.array([0.0, 0.0, 1.0])


@pytest.fixture(scope="session")
def so3_ctx(so3, mu_so3):
    return rc.build_context(so3, mu_so3)


@pytest.fixture(scope="session")
def so3_chart(so3_ctx):
    return rc.default_chart(so3_ctx)


@pytest.fixture(scope="session")
def heis3_ctx():
    a = rc.heis3()
    return rc.build_context(a, np.array([0.0, 0.0, 1.0]))


@pytest.fixture(scope="session")
def aff1():
    return rc.algebra_from_json(AFF1_DOC)


@pytest.fixture()
def rng():
    return np.random.default_rng(42)
