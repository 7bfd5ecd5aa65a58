import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import redconn as rc
from redconn import linalg
from redconn.connections import nabla_omega_components
from redconn.reduction import _central
from tests import oracles

CATALOG_CASES = [
    ("so3", [0.0, 0.0, 1.0]),
    ("su2", [0.0, 0.0, 1.0]),
    ("sl2r", [1.0, 0.0, 0.0]),
    ("heis3", [0.0, 0.0, 1.0]),
    ("se2", [0.0, 1.0, 0.0]),
]

def symmetrized(delta):
    """The part of a coefficient perturbation symmetric in its first two
    indices, which adds no torsion."""
    return 0.5 * (delta + delta.transpose(1, 0, 2))


AVERAGING_BOUND = 1e-10  # of both averaging defects


def averaging_defects(a, delta, nodes) -> tuple:
    """(torsion, node-fixed) of the mean over ``nodes`` of the pullbacks of the
    baseline plus δ at three fiber points: the mean's torsion, and its largest
    change under a node's pullback.  That Γ is the same at every ξ, and so is
    its mean, whose Γ at the moved points is the mean itself."""
    base = rc.baseline_coefficients(a)
    gammas = oracles.average_coefficients(np.broadcast_to(base, (3,) + base.shape) + delta, nodes)
    fixed = max(np.max(np.abs(rc.pullback_coefficients(g, gammas) - gammas)) for g in nodes)
    return rc.torsion_defect(a, gammas), float(fixed)


def averaging_rule(a) -> tuple:
    """The 4-node cyclic rule about e₃, a subgroup under so3's (and su2's) brackets."""
    return oracles.finite_cyclic_rule(a, np.eye(a.dim)[2], 4)


def averaging_delta(a, seed: int = 0) -> np.ndarray:
    """A coefficient perturbation δ = N(0, 1)·0.1, one (2n)³ array."""
    return np.random.default_rng(seed).standard_normal((2 * a.dim,) * 3) * 0.1


CLOSED_FORM_BOUND = 1e-12  # of the ∇°ω closed-form identity


def closed_form_draws(a, rng, rows: int) -> list:
    """``rows`` draws (ξ, u, v, w) of fiber points and tangent triples, as four
    stacks taken from one rng call."""
    n = a.dim
    return np.split(rng.standard_normal((rows, 7 * n)), [n, 3 * n, 5 * n], axis=1)


def contracted_nabla_omega(a, xi, gamma, u, v, w):
    """(∇_u ω)(v, w): the runtime's component array ``nabla_omega_components``
    contracted with u, v and w, at one point or row by row over stacks."""
    return np.einsum("...abc,...a,...b,...c->...", nabla_omega_components(a, xi, gamma), u, v, w)


def closed_form_gap(a, xi, u, v, w, closed=oracles.baseline_nabla_omega) -> float:
    """The largest |(∇°ω)(u, v, w) − closed(a, ξ, u, v, w)| over stacked draws:
    the baseline Γ°'s ∇ω as the runtime contracts it (``contracted_nabla_omega``)
    against its closed form, the oracle's unless ``closed`` replaces it."""
    gap = (contracted_nabla_omega(a, xi, rc.baseline_coefficients(a), u, v, w)
           - closed(a, xi, u, v, w))
    return float(np.max(np.abs(gap)))


def perfbench_cases():
    """The benchmark's case tables (``perfbench/cases.py``), loaded by path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_cases", Path(__file__).parent.parent / "perfbench" / "cases.py")
    cases = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cases)
    return cases


def stencil(geom, t, fiber, us, step, frames, fld=None):
    """Central differences (``reduction._central``) of ``fld``, a function of the
    stacked points (ts, fibers) -> array stacked over them, along the direction u
    or each row of a stack ``us``, at the points ``SigmaGeometry._stencil_points``
    places (in the frames at t); without ``fld``, of ``lifts`` from the chart's
    lift block alone (``lift_frames``: no kernel is built)."""
    ts, fibers = geom._stencil_points(t, fiber, us, step, frames)
    d = _central(geom.lift_frames(ts, fibers)[0] if fld is None else fld(ts, fibers), step)
    return d[0] if np.ndim(us) == 1 else d


def run_battery(geom, t_points) -> dict:
    """``curvature_battery`` at the chart points ``t_points`` on their kernels
    (identity fiber), built in one batch, as a caller without a chart sweep runs it."""
    ts = np.reshape(np.asarray(t_points, dtype=float), (-1, geom.chart.dim))
    return rc.curvature_battery(geom, ts, geom.kernels(ts, geom.identity))


def richardson_stencil(geom, t, fiber, us, step, frames, fld):
    """(4·d(step/2) − d(step))/3 from two central stencils ``stencil`` of ``fld``
    at step and step/2: the Richardson-extrapolated derivative."""
    return (4.0 * stencil(geom, t, fiber, us, step / 2.0, frames, fld)
            - stencil(geom, t, fiber, us, step, frames, fld)) / 3.0


def pushdown(geom, coad, v) -> np.ndarray:
    """The quotient differential at a point with Coad matrix ``coad`` applied to a
    level-set vector v, or to each vector of a stack alike."""
    return -linalg.matvec(coad @ geom.K_T, np.asarray(v, dtype=float)[..., : geom.n])


def track_geometries(monkeypatch) -> list:
    """Every ``SigmaGeometry`` built from now on, in order of construction."""
    built = []
    init = rc.SigmaGeometry.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(rc.SigmaGeometry, "__init__", tracked)
    return built


def count_builds(monkeypatch) -> list:
    """The number of rows of each ``SigmaGeometry.kernels`` call from now on, in order."""
    built = []
    kernels = rc.SigmaGeometry.kernels

    def counted(self, ts, fibers):
        built.append(len(np.reshape(ts, (-1, self.chart.dim))))
        return kernels(self, ts, fibers)

    monkeypatch.setattr(rc.SigmaGeometry, "kernels", counted)
    return built


AFF1_DOC = {
    "dim": 2,
    "name": "aff1",
    "brackets": [[0, 1, [1, 1.0]]],
    "realization": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]],
}
_AFF1_BRACKETS = {"dim": 2, "brackets": [[0, 1, [1, 1.0]]]}
# aff(1) documents, for μ = (0, 1), each with one value of another JSON type
# than the schema's, or a number without a finite float value, which Python's
# json reads (NaN, ±Infinity, 10**400): a loader that coerces it would accept
# the document
MALFORMED_ALGEBRAS = {
    "dim=2.5": dict(_AFF1_BRACKETS, dim=2.5),
    "dim='2'": dict(_AFF1_BRACKETS, dim="2"),
    "index=1.9": dict(_AFF1_BRACKETS, brackets=[[0, 1.9, [1, 1.0]]]),
    "index=true": dict(_AFF1_BRACKETS, brackets=[[0, 1, [True, 1.0]]]),
    "coeff='1.0'": dict(_AFF1_BRACKETS, brackets=[[0, 1, [1, "1.0"]]]),
    "coeff=true": dict(_AFF1_BRACKETS, brackets=[[0, 1, [1, True]]]),
    "realization='1.0'": dict(AFF1_DOC, realization=[[["1.0", 0.0], [0.0, 0.0]],
                                                      [[0.0, 1.0], [0.0, 0.0]]]),
    "realization=true": dict(AFF1_DOC, realization=[[[True, 0.0], [0.0, 0.0]],
                                                     [[0.0, 1.0], [0.0, 0.0]]]),
    "det_one='false'": dict(_AFF1_BRACKETS, det_one="false"),
    "orthogonal=0": dict(_AFF1_BRACKETS, orthogonal=0),
    "name=2": dict(_AFF1_BRACKETS, name=2),
    "coeff=Infinity": dict(_AFF1_BRACKETS, brackets=[[0, 1, [1, math.inf]]]),
    "coeff=10**400": dict(_AFF1_BRACKETS, brackets=[[0, 1, [1, 10 ** 400]]]),
    "realization=NaN": dict(AFF1_DOC, realization=[[[math.nan, 0.0], [0.0, 0.0]],
                                                     [[0.0, 1.0], [0.0, 0.0]]]),
    "realization=Infinity": dict(AFF1_DOC, realization=[[[math.inf, 0.0], [0.0, 0.0]],
                                                          [[0.0, 1.0], [0.0, 0.0]]]),
    # a bracket stated twice, which a loader writing entries in turn would let
    # the later one decide; brackets that are no list of [i, j, [k, coeff], …]
    # lists; a realization whose commutators contradict the brackets
    "pair-twice": dict(_AFF1_BRACKETS, brackets=[[0, 1, [1, 1.0]], [1, 0, [1, 1.0]]]),
    "pair-twice-same-order": dict(_AFF1_BRACKETS, brackets=[[0, 1, [1, 1.0]], [0, 1]]),
    "k-twice": dict(_AFF1_BRACKETS, brackets=[[0, 1, [1, 1.0], [1, 3.0]]]),
    "brackets='x'": dict(_AFF1_BRACKETS, brackets="x"),
    "entry=0": dict(_AFF1_BRACKETS, brackets=[0]),
    "entry=[0]": dict(_AFF1_BRACKETS, brackets=[[0]]),
    "term=[1]": dict(_AFF1_BRACKETS, brackets=[[0, 1, [1]]]),
    "term=1": dict(_AFF1_BRACKETS, brackets=[[0, 1, 1]]),
    "realization-contradicts-brackets": dict(AFF1_DOC, brackets=[[0, 1, [1, 2.0]]]),
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
