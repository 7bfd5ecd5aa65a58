import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import redconn as rc
from redconn import linalg
from redconn.connections import frame_structure, nabla_omega_components
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


# checks true by construction, which verify no longer runs: their bounds (the
# Jacobi identity's is the load gate, ``liealg.JACOBI_TOL``, and the bracket
# pairing is antisymmetric bit for bit) and the algebras their tests run on
COAD_GROUP_LAW_BOUND = 1e-10  # of |Coad(g)·Coad(g⁻¹) − I|
BASELINE_TORSION_BOUND = 1e-14  # of the baseline Γ°'s torsion
A_SYMMETRY_BOUND = 1e-10  # of the symplectization's correction A, antisymmetrized
ORACLE_ALGEBRAS = [name for name, _ in CATALOG_CASES] + ["so4", "so5"]


def oracle_algebra(name):
    """A catalog algebra, or so(n) from ``perfbench/cases.py`` for "so4" and "so5"."""
    if name in dict(CATALOG_CASES):
        return rc.named_algebra(name)
    return rc.algebra_from_json(perfbench_cases().so_n_group(int(name[2:])))


# verify checks that another check or the construction implies, which verify no
# longer runs: their bounds, their defects and the cases their tests run on
TSIGMA_DELTA_PAIRING_BOUND = 1e-12  # of t_σᵀΩ(μ)δ
OMEGA_CLOSED_BOUND = 1e-10  # of dω on frame-constant fields
ALPHA_IDENTITIES_BOUND = 1e-10  # of α(δ) − I and α(W1)
SIGMA_TORSION_BOUND = 1e-10  # of the torsion of P∘∇ on the frame fields (e_i, 0)
GEODESIC_ORACLE_BOUND = 1e-10  # of the two routes' totally-geodesic defects apart
ORACLE_CASES = [name for name, _ in CATALOG_CASES] + ["so4-regular", "so4-singular",
                                                      "so5-regular", "so5-singular"]


def oracle_case(label) -> tuple:
    """(algebra, μ) of a catalog case, or of an so(n) case of ``perfbench/cases.py``."""
    if label in dict(CATALOG_CASES):
        return rc.named_algebra(label), np.asarray(dict(CATALOG_CASES)[label], dtype=float)
    cases = perfbench_cases()
    _, n, weights, *_ = next(c for c in cases.SO4_CASES + cases.SO5_CASES if c[0] == label)
    return oracle_algebra(f"so{n}"), np.asarray(cases.so_n_mu(n, weights))


def tsigma_delta_pairing(ctx) -> float:
    """max |t_σᵀΩ(μ)δ|: how far the radical δ is from ω-orthogonal to the level set."""
    split = ctx.split
    return float(np.max(np.abs(split.t_sigma.T @ ctx.omega_mu @ split.delta), initial=0.0))


def cyclic_domega(a, xi, u, v, w) -> np.ndarray:
    """Exterior derivative of ω on frame-constant extensions, row by row over
    stacks of draws; zero when closed."""
    n = a.dim
    total = 0.0
    for x, y, z in ((u, v, w), (v, w, u), (w, u, v)):
        # moving along x changes the fiber point at rate eta_x; only the
        # bracket term of ω(y, z) depends on the fiber point
        total -= linalg.vecdot(x[:, n:], a.bracket(y[:, :n], z[:, :n]))
        bx = np.hstack([a.bracket(x[:, :n], y[:, :n]), np.zeros_like(xi)])
        total -= rc.symplectic_form(a, xi, bx, z)
    return total


def alpha_identities_defect(ctx) -> float:
    """max of |α(Y) − Y| over the vertical generators of the stabilizer basis
    and of |α(W1)|, α the stabilizer coordinates of the radical component."""
    g_mu = ctx.split.g_mu
    back = linalg.matvec(g_mu, ctx.alpha(rc.right_generator(ctx.algebra, ctx.mu, g_mu.T)))
    return max(float(np.max(np.abs(back - g_mu.T), initial=0.0)),
               float(np.max(np.abs(ctx.alpha_mat @ ctx.w1), initial=0.0)))


def sigma_torsion_defect(ctx) -> float:
    """Torsion of P∘∇ on the frame-constant level-set fields (e_i, 0)."""
    n, P = ctx.algebra.dim, ctx.p_matrix
    gamma = ctx.gamma_mu[:n, :n]
    cov = linalg.matvec(P, gamma) - linalg.matvec(P, gamma.transpose(1, 0, 2))
    return float(np.max(np.abs(cov - frame_structure(ctx.algebra)[:n, :n])))


def coad_group_law_defect(Ad, coad=rc.coadjoint_matrix) -> float:
    """max |Coad(g)·Coad(g⁻¹) − I| over a stack of Ad matrices, with ``coad``
    for ``coadjoint_matrix``."""
    return float(np.max(np.abs(coad(Ad) @ coad(np.linalg.inv(Ad)) - np.eye(Ad.shape[-1]))))


def a_symmetry_defect(a, gammas) -> float:
    """The largest part antisymmetric in the first two slots of A = Γ(ξ) − Γ°,
    over a Γ stack of the symplectization."""
    A = gammas - rc.baseline_coefficients(a)
    return float(np.max(np.abs(A - np.swapaxes(A, -3, -2))))


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
