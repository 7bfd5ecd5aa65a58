"""Reduction of an invariant symplectic connection to the coadjoint orbit.

Everything happens at a fixed momentum level μ of the right action on
G x g*.  In the left-invariant frame the level set has frame-constant
tangent data, so the μ-level linear algebra is computed once:

- ``delta``      radical directions (stabilizer generators, fiber part zero),
- ``s_tilde``    a stabilizer-stable complement of TΣ + TΣ^⊥ (default: pure
                 fiber directions annihilating the chosen complement m),
- ``S``          its isotropic correction (graph shear into the radical),
- ``W1, W2``     the two summands of (S ⊕ Δ)^⊥ inside TΣ and TΣ^⊥,
- ``P``          the projector onto TΣ along W2 ⊕ S,
- ``alpha``      the principal connection 1-form, reading off the radical
                 component in stabilizer coordinates (extended by zero).

The induced covariant derivative along the level set is P∘∇ for the ambient
invariant symplectic connection ∇; removing the radical component with alpha
and pushing down through the quotient map (g, μ) ↦ Coad(g)μ produces the
reduced connection on the orbit.  Derivatives of fields along the level set
are central finite differences in a (chart x stabilizer-fiber)
parametrization, so no chart inversion is ever needed on the hot path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg

from . import linalg
from .connections import FrameConnection, baseline_connection, frame_structure, symplectize
from .errors import (AssumptionTwoFailure, DegeneratePairing, NotTangent,
                     PointOffConstraint, RankLoss, SingularProjection,
                     ZeroDimensionalBase)
from .liealg import GroupElement, LieAlgebra, stabilizer_algebra, reductive_complement
from .orbits import OrbitChart, kks_form, orbit_chart
from .phasespace import (ConstraintSplit, TrivTangent, constraint_split, omega_gram,
                         symplectic_form)

# Global sign relating the reduced 2-form to the canonical orbit form under
# the conventions of this library; verified across the catalog by the tests.
KKS_MATCH_SIGN = -1.0

ISOTROPY_TOL = 1e-10
STABILITY_TOL = 1e-8

SigmaField = Callable[[np.ndarray, np.ndarray], np.ndarray]  # (t, fiber Ad) -> frame
ChartField = Callable[[np.ndarray], np.ndarray]


def _check_tangent(residual: float, v: np.ndarray) -> None:
    if residual > 1e-8 * max(1.0, np.linalg.norm(v)):
        raise NotTangent(f"vector is not an orbit tangent at the point (residual {residual:.3e})")


def isotropic_correction_gram(om: np.ndarray, s_tilde: np.ndarray, delta: np.ndarray,
                              rtol: float = linalg.RANK_RTOL):
    """Shear a complement into an isotropic one inside the symplectic space
    spanned by s_tilde and delta.

    Solves for the unique map L: s_tilde -> delta with ω(Lu, v) = -½ω(u, v)
    on s_tilde pairs; the graph {u + Lu} is then isotropic and still a
    complement of delta.  Returns (S, Lambda) with Lambda the coefficient
    matrix of L in the two bases.

    Raises:
        DegeneratePairing: if ω does not pair s_tilde with delta
            nondegenerately, or delta is not isotropic.
    """
    s_tilde = np.atleast_2d(np.asarray(s_tilde, dtype=float))
    delta = np.atleast_2d(np.asarray(delta, dtype=float))
    p = s_tilde.shape[1]
    if delta.shape[1] != p:
        raise ValueError("s_tilde and delta must have equal dimension")
    if p == 0:
        return s_tilde.copy(), np.zeros((0, 0))
    delta_gram = delta.T @ om @ delta
    if float(np.max(np.abs(delta_gram))) > ISOTROPY_TOL * max(1.0, float(np.max(np.abs(om)))):
        raise DegeneratePairing("delta is not isotropic")
    B = delta.T @ om @ s_tilde
    s = np.linalg.svd(B, compute_uv=False)
    if s[-1] <= rtol * s[0]:
        raise DegeneratePairing(
            f"pairing between s_tilde and delta is degenerate (ratio {s[-1] / s[0]:.3e})")
    W = s_tilde.T @ om @ s_tilde
    lam = 0.5 * np.linalg.solve(B.T, W)
    return s_tilde + delta @ lam, lam


def isotropic_correction(a: LieAlgebra, mu, s_tilde, delta):
    """Isotropic correction at level μ using the phase-space symplectic form."""
    S, _ = isotropic_correction_gram(omega_gram(a, mu), s_tilde, delta)
    return S


@dataclass(frozen=True)
class ReductionContext:
    """Validated μ-level data for reducing a connection to the orbit."""

    algebra: LieAlgebra
    mu: np.ndarray
    g_mu: np.ndarray
    m: np.ndarray
    split: ConstraintSplit
    s_tilde: np.ndarray
    iso_map: np.ndarray
    S: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    p_matrix: np.ndarray
    alpha_mat: np.ndarray
    v_delta: np.ndarray
    connection: FrameConnection
    diagnostics: dict = field(default_factory=dict)

    @property
    def stabilizer_dim(self) -> int:
        return self.g_mu.shape[1]

    @property
    def base_dim(self) -> int:
        return self.m.shape[1]

    @property
    def zero_dimensional_base(self) -> bool:
        return self.base_dim == 0

    def alpha(self, v) -> np.ndarray:
        """Stabilizer coordinates of the radical component of a tangent vector."""
        return self.alpha_mat @ np.asarray(v, dtype=float)

    def alpha_star(self, v) -> np.ndarray:
        """alpha followed by the vertical generator map back into the frame."""
        return self.v_delta @ self.alpha(v)

    def horizontal_part(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        return v - self.alpha_star(v)


def _stability_generator(a: LieAlgebra, Y: np.ndarray) -> np.ndarray:
    """Infinitesimal frame transport of the right translation by exp(sY)."""
    n = a.dim
    adY = a.ad(Y)
    D = np.zeros((2 * n, 2 * n))
    D[:n, :n] = -adY
    D[n:, n:] = adY.T
    return D


def _check_custom_s_tilde(a: LieAlgebra, split: ConstraintSplit, st: np.ndarray) -> None:
    n = a.dim
    k = split.g_mu.shape[1]
    if st.shape != (2 * n, k):
        raise AssumptionTwoFailure(
            f"custom complement must be a (2n, dim stabilizer) = {(2 * n, k)} basis, got {st.shape}")
    if linalg.rank(np.hstack([split.sum, st])) != 2 * n:
        raise AssumptionTwoFailure("custom complement does not complement TΣ + TΣ^⊥")
    P_st = linalg.projector(st)
    for i in range(k):
        D = _stability_generator(a, split.g_mu[:, i])
        moved = D @ st
        defect = float(np.max(np.abs(moved - P_st @ moved)))
        if defect > STABILITY_TOL * max(1.0, float(np.max(np.abs(moved)))):
            raise AssumptionTwoFailure(
                f"custom complement is not stabilizer-stable (defect {defect:.3e})")


def build_context(a: LieAlgebra, mu, *, s_tilde="default",
                  connection: FrameConnection | None = None) -> ReductionContext:
    """Assemble and validate all μ-level reduction data.

    The ambient connection defaults to the symplectization of the bi-invariant
    baseline; pass an explicit connection to study non-symplectic inputs.

    Raises:
        NonReductiveStabilizer: no ad-stable complement of the stabilizer.
        AssumptionTwoFailure: a supplied complement is invalid.
    """
    mu = np.asarray(mu, dtype=float)
    n = a.dim
    if mu.shape != (n,):
        raise ValueError(f"mu must have length {n}")
    g_mu = stabilizer_algebra(a, mu)
    k = g_mu.shape[1]
    m = reductive_complement(a, g_mu)
    split = constraint_split(a, mu)

    if isinstance(s_tilde, str) and s_tilde == "default":
        ann_m = linalg.nullspace(m.T) if m.shape[1] else np.eye(n)
        st = np.vstack([np.zeros((n, ann_m.shape[1])), ann_m])
    else:
        st = np.atleast_2d(np.asarray(s_tilde, dtype=float))
        _check_custom_s_tilde(a, split, st)

    om = omega_gram(a, mu)
    S, lam = isotropic_correction_gram(om, st, split.delta)
    iso_defect = float(np.max(np.abs(S.T @ om @ S))) if k else 0.0

    # (S ⊕ Δ)^⊥ split into its TΣ and TΣ^⊥ parts, built directly inside each
    # subspace so the group/fiber structure is exact.
    K_T = a.bracket_pairing(mu).T
    SD = np.hstack([S, split.delta])
    rows = om @ SD if k else np.zeros((2 * n, 0))
    w1grp = linalg.nullspace(rows[:n, :].T) if k else np.eye(n)
    graph_rows = rows[:n, :] + K_T.T @ rows[n:, :]
    w2grp = linalg.nullspace(graph_rows.T) if k else np.eye(n)
    w1 = np.vstack([w1grp, np.zeros((n, w1grp.shape[1]))])
    w2 = linalg.orthonormal_columns(np.vstack([w2grp, K_T @ w2grp]))
    if w1.shape[1] != n - k or w2.shape[1] != n - k:
        raise RankLoss(
            f"horizontal split has dimensions ({w1.shape[1]}, {w2.shape[1]}), expected {n - k}")

    Q = np.hstack([split.delta, w1, w2, S])
    sq = np.linalg.svd(Q, compute_uv=False)
    if sq[-1] <= linalg.RANK_RTOL * sq[0]:
        raise RankLoss("radical/horizontal/complement decomposition is rank deficient")
    Q_inv = np.linalg.inv(Q)
    P = Q @ np.diag([1.0] * n + [0.0] * n) @ Q_inv
    alpha_mat = Q_inv[:k, :]

    conn = connection if connection is not None else symplectize(baseline_connection(a))
    diagnostics = {
        "dims": {"delta": k, "w1": n - k, "w2": n - k, "s": k},
        "decomposition_cond": float(sq[0] / sq[-1]),
        "isotropy_defect": iso_defect,
        "projector_defect": float(np.max(np.abs(P @ P - P))),
        "zero_dimensional_base": bool(m.shape[1] == 0),
    }
    return ReductionContext(a, mu.copy(), g_mu, m, split, st, lam, S, w1, w2,
                            P, alpha_mat, split.delta, conn, diagnostics)


def default_chart(ctx: ReductionContext, radius: float = 1.0) -> OrbitChart:
    return orbit_chart(ctx.algebra, ctx.mu, ctx.m, radius)


@dataclass(frozen=True)
class PointKernel:
    """Level-set data at one point (exp(Σ t_a E_a) · h, μ)."""

    coad: np.ndarray  # Coad(exp(Σ t_a E_a) · h)
    D: np.ndarray  # chart differential dnu(t)
    M: np.ndarray  # lift matrix: quotient differential on the horizontal basis
    lift_ok: bool  # M has full column rank
    X: np.ndarray  # lift table lstsq(M, D) of the chart directions
    R: np.ndarray  # its residual M X − D
    F: np.ndarray  # chart-fiber frame [Ad(h)⁻¹ · section vectors | g_μ]
    frame_ok: bool  # F is invertible


class SigmaGeometry:
    """Shared workspace for derivatives of fields along the momentum level set.

    Fields are callables (t, fiber) -> frame components, evaluated at the
    point (exp(Σ t_a E_a) · h, μ), where ``fiber`` is the n×n Ad matrix of the
    stabilizer element h.  Directional derivatives solve for the (chart, fiber)
    parameter velocity matching a requested tangent direction and apply central
    differences in parameter space.  Each distinct (t, fiber) gets one
    ``PointKernel``, kept for the life of the instance and read by lifts,
    lifted chart fields, pushdowns and directional derivatives.  The kernel
    table is not thread-safe: use one instance per thread.
    """

    def __init__(self, ctx: ReductionContext, chart: OrbitChart,
                 conn: FrameConnection | None = None, richardson: bool = False):
        if chart.dim == 0:
            raise ZeroDimensionalBase("the reduced manifold is a point")
        self.ctx = ctx
        self.chart = chart
        self.conn = conn if conn is not None else ctx.connection
        a = ctx.algebra
        self.algebra = a
        self.n = a.dim
        self.gamma_mu = self.conn.coefficients(ctx.mu)
        self.struct = frame_structure(a)
        self.omega_mu = omega_gram(a, ctx.mu)
        self.K_T = a.bracket_pairing(ctx.mu).T
        self.w1grp = ctx.w1[: self.n, :]
        self.identity = np.eye(self.n)
        self.richardson = richardson
        self._points: dict = {}

    def point(self, t, fiber: np.ndarray) -> PointKernel:
        """The kernel at (exp(Σ t_a E_a) · h, μ), computed on first use."""
        t = np.asarray(t, dtype=float)
        key = (t.tobytes(), fiber.tobytes())
        p = self._points.get(key)
        if p is None:
            coad_t, vecs, D = self.chart.exp_data(t)
            h_inv = np.linalg.inv(fiber)
            coad = coad_t @ h_inv.T
            M = -coad @ (self.K_T @ self.w1grp)
            X, *_ = np.linalg.lstsq(M, D, rcond=None)
            F = np.hstack([h_inv @ vecs, self.ctx.g_mu])
            p = self._points[key] = PointKernel(coad, D, M, linalg.rank(M) == M.shape[1], X,
                                                M @ X - D, F, linalg.rank(F) == self.n)
        return p

    # -- lifting ---------------------------------------------------------

    def _lift_system(self, t, fiber: np.ndarray) -> PointKernel:
        p = self.point(t, fiber)
        if not p.lift_ok:
            raise SingularProjection("quotient differential singular on the horizontal space")
        return p

    def lift(self, t, fiber: np.ndarray, v) -> np.ndarray:
        """Unique horizontal vector projecting onto the orbit tangent v."""
        M = self._lift_system(t, fiber).M
        v = np.asarray(v, dtype=float)
        coeffs, *_ = np.linalg.lstsq(M, v, rcond=None)
        _check_tangent(np.linalg.norm(M @ coeffs - v), v)
        return self.ctx.w1 @ coeffs

    def chart_lifts(self, t, D: np.ndarray) -> list:
        """Horizontal lifts at the section point t of the columns of D = dnu(t)."""
        return [self.lift(t, self.identity, D[:, i]) for i in range(D.shape[1])]

    def form_table(self, us, vs) -> np.ndarray:
        """ω at μ on every pair of level-set vectors: entry [a, b] is ω(us[a], vs[b])."""
        return np.array([[symplectic_form(self.algebra, self.ctx.mu, u, v) for v in vs]
                         for u in us])

    def lift_field(self, chart_field: ChartField) -> SigmaField:
        """Horizontal lift of a chart-component field.

        With components c at t, the lift is w1 · (X c) from the point kernel's
        lift table; linearity of least squares makes it the lift of D c.
        """
        def lifted(t, fiber: np.ndarray) -> np.ndarray:
            t = np.asarray(t, dtype=float)
            c = np.asarray(chart_field(t), dtype=float)
            p = self._lift_system(t, fiber)
            _check_tangent(np.linalg.norm(p.R @ c), p.D @ c)
            return self.ctx.w1 @ (p.X @ c)

        return lifted

    # -- derivatives along the level set ----------------------------------

    def directional_derivative(self, fld: SigmaField, t, fiber: np.ndarray,
                               u, step: float) -> np.ndarray:
        """Central difference of a field along the tangent direction u."""
        t = np.asarray(t, dtype=float)
        u = np.asarray(u, dtype=float)
        if np.linalg.norm(u[self.n:]) > 1e-8 * max(1.0, np.linalg.norm(u)):
            raise PointOffConstraint("direction is not tangent to the level set")
        p = self.point(t, fiber)
        if not p.frame_ok:
            raise RankLoss("chart-fiber frame lost rank; point outside the chart radius")
        params = np.linalg.solve(p.F, u[: self.n])
        dt, dy = params[: self.chart.dim], params[self.chart.dim:]

        def shifted(s: float) -> np.ndarray:
            fib = fiber
            if dy.size and s != 0.0:
                fib = fiber @ scipy.linalg.expm(self.algebra.ad(self.ctx.g_mu @ (s * dy)))
            return fld(t + s * dt, fib)

        d1 = (shifted(step) - shifted(-step)) / (2.0 * step)
        if not self.richardson:
            return d1
        d2 = (shifted(step / 2.0) - shifted(-step / 2.0)) / step
        return (4.0 * d2 - d1) / 3.0

    def cov_sigma(self, u, fld: SigmaField, t, fiber: np.ndarray,
                  step: float) -> np.ndarray:
        """Induced covariant derivative on the level set: the ambient one along
        the direction u, projected onto TΣ."""
        base = fld(np.asarray(t, dtype=float), fiber)
        d = self.directional_derivative(fld, t, fiber, u, step)
        u = np.asarray(u, dtype=float)
        return self.ctx.p_matrix @ (d + np.einsum("abc,a,b->c", self.gamma_mu, u, base))

    def lie_bracket(self, xf: SigmaField, yf: SigmaField, t, fiber: np.ndarray,
                    step: float) -> np.ndarray:
        """Frame bracket of two fields: derivative terms plus structure terms."""
        ux = xf(np.asarray(t, dtype=float), fiber)
        uy = yf(np.asarray(t, dtype=float), fiber)
        dxy = self.directional_derivative(yf, t, fiber, ux, step)
        dyx = self.directional_derivative(xf, t, fiber, uy, step)
        return dxy - dyx + np.einsum("abc,a,b->c", self.struct, ux, uy)

    def pushdown(self, t, fiber: np.ndarray, v) -> np.ndarray:
        """Quotient differential applied to a level-set tangent vector."""
        return -self.point(t, fiber).coad @ (self.K_T @ np.asarray(v, dtype=float)[: self.n])

    def pushdown_horizontal(self, t, fiber: np.ndarray, v) -> np.ndarray:
        """Remove the radical component of v, then push it down to the orbit."""
        return self.pushdown(t, fiber, self.ctx.horizontal_part(v))

    def lifted_cov(self, x_field: ChartField, y_field: ChartField, t,
                   fiber: np.ndarray, step: float) -> np.ndarray:
        """Induced derivative on the level set of the lift of y along the lift of x."""
        u = self.lift_field(x_field)(np.asarray(t, dtype=float), fiber)
        return self.cov_sigma(u, self.lift_field(y_field), t, fiber, step)

    def reduced_cov(self, x_field: ChartField, y_field: ChartField, t,
                    fiber: np.ndarray | None = None, step: float = 1e-5) -> np.ndarray:
        """Reduced covariant derivative, pushed down to an orbit tangent."""
        fiber = fiber if fiber is not None else self.identity
        return self.pushdown_horizontal(t, fiber,
                                        self.lifted_cov(x_field, y_field, t, fiber, step))


# --- public operations --------------------------------------------------------



def sigma_covderiv(ctx: ReductionContext, conn: FrameConnection, xbar: SigmaField,
                   ybar: SigmaField, t, *, chart: OrbitChart,
                   fiber: GroupElement | None = None,
                   fd_step: float = 1e-5) -> TrivTangent:
    """Covariant derivative along the level set: P applied to the ambient one.

    ``xbar`` and ``ybar`` are fields (t, fiber) -> frame components, tangent
    to the level set wherever evaluated.
    """
    geom = SigmaGeometry(ctx, chart, conn)
    fiber = geom.identity if fiber is None else fiber.ad
    t = np.asarray(t, dtype=float)
    u = np.asarray(xbar(t, fiber), dtype=float)
    out = geom.cov_sigma(u, ybar, t, fiber, fd_step)
    return TrivTangent.from_vector(out)


def horizontal_lift(ctx: ReductionContext, chart: OrbitChart, v, t,
                    fiber: GroupElement | None = None) -> TrivTangent:
    """Horizontal lift of an orbit tangent at the (fibered) section point."""
    geom = SigmaGeometry(ctx, chart)
    fiber = geom.identity if fiber is None else fiber.ad
    return TrivTangent.from_vector(geom.lift(t, fiber, v))


def reduced_covderiv(ctx: ReductionContext, chart: OrbitChart, x_field: ChartField,
                     y_field: ChartField, t, *, fiber: GroupElement | None = None,
                     fd_step: float = 1e-5, geom: SigmaGeometry | None = None) -> np.ndarray:
    """Reduced covariant derivative of chart-component fields, as an orbit tangent."""
    if ctx.zero_dimensional_base:
        raise ZeroDimensionalBase("the reduced manifold is a point")
    geom = geom if geom is not None else SigmaGeometry(ctx, chart)
    return geom.reduced_cov(x_field, y_field, t, None if fiber is None else fiber.ad, fd_step)


def reduced_form(ctx: ReductionContext, chart: OrbitChart, v, w, t,
                 fiber: GroupElement | None = None,
                 geom: SigmaGeometry | None = None) -> float:
    """Reduced symplectic form: ω on the horizontal lifts of two orbit tangents."""
    if ctx.zero_dimensional_base:
        raise ZeroDimensionalBase("the reduced manifold is a point")
    geom = geom if geom is not None else SigmaGeometry(ctx, chart)
    fiber = geom.identity if fiber is None else fiber.ad
    vb = geom.lift(t, fiber, v)
    wb = geom.lift(t, fiber, w)
    return symplectic_form(ctx.algebra, ctx.mu, vb, wb)


def lift_gram(geom: SigmaGeometry, lifts) -> np.ndarray:
    """Gram matrix of ω at μ on lifted chart directions."""
    return np.array([[la @ geom.omega_mu @ lb for lb in lifts] for la in lifts])


def gram_oracle_solve(geom: SigmaGeometry, D: np.ndarray, lifts, gram: np.ndarray,
                      G: np.ndarray) -> np.ndarray:
    """Orbit tangent whose lift pairs with the lifted chart directions as G does."""
    rhs = np.array([G @ geom.omega_mu @ lb for lb in lifts])
    return D @ np.linalg.solve(gram.T, rhs)


def reduced_covderiv_gram_oracle(ctx: ReductionContext, chart: OrbitChart,
                                 x_field: ChartField, y_field: ChartField, t, *,
                                 fd_step: float = 1e-5) -> np.ndarray:
    """Independent evaluation of the reduced covariant derivative.

    Instead of removing the radical component with alpha and pushing down,
    pair the induced derivative against lifted chart directions and invert
    the reduced Gram matrix; radical directions pair to zero against the
    level-set tangent space, so both routes must agree.
    """
    if ctx.zero_dimensional_base:
        raise ZeroDimensionalBase("the reduced manifold is a point")
    geom = SigmaGeometry(ctx, chart)
    t = np.asarray(t, dtype=float)
    G = geom.lifted_cov(x_field, y_field, t, geom.identity, fd_step)
    D = chart.dnu(t)
    lifts = geom.chart_lifts(t, D)
    return gram_oracle_solve(geom, D, lifts, lift_gram(geom, lifts), G)


def totally_geodesic_defect(ctx: ReductionContext, conn: FrameConnection) -> float:
    """Largest ω-pairing of P∇ of stabilizer generators against PZ over the frame.

    Zero means the stabilizer orbits inside the level set are totally geodesic
    for the induced connection.  Generators of stabilizer elements have
    frame-constant components (Y, 0) along the level set, so no finite
    differences are needed.
    """
    a = ctx.algebra
    n = a.dim
    k = ctx.stabilizer_dim
    if k == 0:
        return 0.0
    gamma = conn.coefficients(ctx.mu)
    om = omega_gram(a, ctx.mu)
    P = ctx.p_matrix
    defect = 0.0
    for i in range(k):
        ui = np.concatenate([ctx.g_mu[:, i], np.zeros(n)])
        for j in range(k):
            vj = np.concatenate([ctx.g_mu[:, j], np.zeros(n)])
            cov = np.einsum("abc,a,b->c", gamma, ui, vj)
            pairings = (P @ cov) @ om @ P
            defect = max(defect, float(np.max(np.abs(pairings))))
    return defect


@dataclass(frozen=True)
class AutoparallelReport:
    defect: float
    independence: float | None
    samples: int


def _random_stable_complement(ctx: ReductionContext, rng: np.random.Generator,
                              tries: int = 50) -> np.ndarray | None:
    a = ctx.algebra
    for _ in range(tries):
        cand = ctx.s_tilde + 0.4 * rng.standard_normal(ctx.s_tilde.shape)
        cand = linalg.orthonormal_columns(cand)
        if cand.shape[1] != ctx.stabilizer_dim:
            continue
        try:
            _check_custom_s_tilde(a, ctx.split, cand)
            isotropic_correction_gram(omega_gram(a, ctx.mu), cand, ctx.split.delta)
        except (AssumptionTwoFailure, DegeneratePairing):
            continue
        return cand
    return None


def autoparallel_check(ctx: ReductionContext, conn: FrameConnection, *,
                       chart: OrbitChart | None = None,
                       rng: np.random.Generator | None = None,
                       n_samples: int = 3, fd_step: float = 1e-5,
                       tol: float = 1e-10) -> AutoparallelReport:
    """Measure how far the level set is from being autoparallel.

    The defect is the largest component of ∇ of level-set frame pairs outside
    the tangent space.  When it vanishes, the reduced connection cannot
    depend on the choice of complement; in that case a second context with a
    randomized valid complement is built and the largest difference of the
    reduced derivative over sampled chart points is reported.
    """
    a = ctx.algebra
    n = a.dim
    gamma = conn.coefficients(ctx.mu)
    complement_proj = np.eye(2 * n) - ctx.p_matrix
    defect = 0.0
    for i in range(n):
        for j in range(n):
            defect = max(defect, float(np.max(np.abs(complement_proj @ gamma[i, j, :]))))
    if defect > tol or ctx.zero_dimensional_base or chart is None or not a.has_realization:
        return AutoparallelReport(defect, None if defect > tol else 0.0, 0)

    rng = rng if rng is not None else np.random.default_rng(0)
    cand = _random_stable_complement(ctx, rng)
    if cand is None:
        return AutoparallelReport(defect, None, 0)
    other = build_context(a, ctx.mu, s_tilde=cand, connection=conn)
    geom_a = SigmaGeometry(ctx, chart, conn)
    geom_b = SigmaGeometry(other, chart, conn)
    fields = coordinate_fields(chart)
    diff = 0.0
    count = 0
    for _ in range(n_samples):
        t = rng.uniform(-0.3, 0.3, size=chart.dim) * chart.radius
        for xf in fields:
            for yf in fields:
                va = geom_a.reduced_cov(xf, yf, t, step=fd_step)
                vb = geom_b.reduced_cov(xf, yf, t, step=fd_step)
                diff = max(diff, float(np.max(np.abs(va - vb))))
                count += 1
    return AutoparallelReport(defect, diff, count)


def _constant_chart_field(components: np.ndarray) -> ChartField:
    components = np.asarray(components, dtype=float)
    return lambda t: components


def coordinate_fields(chart: OrbitChart) -> list:
    """Chart coordinate fields as constant-component callables."""
    return [_constant_chart_field(np.eye(chart.dim)[i]) for i in range(chart.dim)]


def kks_pairs(ctx: ReductionContext, chart: OrbitChart, t, omega: np.ndarray) -> list:
    """(reduced, canonical) orbit-form values on the chart coordinate pairs
    i < j at t where the canonical value is nonzero; ``omega`` holds the
    reduced form on the coordinate tangents at t."""
    D = chart.dnu(t)
    nu = chart.nu(t)
    pairs = []
    for i in range(chart.dim):
        for j in range(i + 1, chart.dim):
            ref = kks_form(ctx.algebra, nu, D[:, i], D[:, j])
            if abs(ref) > 1e-12:
                pairs.append((omega[i, j], ref))
    return pairs


def kks_residual(ctx: ReductionContext, chart: OrbitChart, t,
                 geom: SigmaGeometry | None = None,
                 omega: np.ndarray | None = None) -> float:
    """Largest relative gap between the reduced form and the sign-matched
    canonical orbit form over chart coordinate pairs at t.

    ``omega`` is the reduced form on the coordinate tangents at t, as
    ``SigmaGeometry.form_table`` of their lifts gives it; computed when omitted.
    """
    t = np.asarray(t, dtype=float)
    if omega is None:
        geom = geom if geom is not None else SigmaGeometry(ctx, chart)
        lifts = geom.chart_lifts(t, chart.dnu(t))
        omega = geom.form_table(lifts, lifts)
    return max([0.0] + [abs(red - KKS_MATCH_SIGN * ref) / abs(ref)
                        for red, ref in kks_pairs(ctx, chart, t, omega)])
