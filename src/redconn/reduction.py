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
reduced connection on the orbit.  The lifted chart coordinate fields are one
array per point (``SigmaGeometry.lifts``), differenced centrally in a (chart x
stabilizer-fiber) parametrization, so no chart inversion is ever needed on the
hot path; the fiber shifts Ad(exp sY) of one stencil come from one stacked
``linalg.expm``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .connections import FrameConnection, baseline_connection, frame_structure, symplectize
from .errors import (AssumptionTwoFailure, DegeneratePairing, NotTangent,
                     PointOffConstraint, RankLoss, SingularProjection,
                     ZeroDimensionalBase)
from .liealg import LieAlgebra, reductive_complement
from .orbits import OrbitChart, kks_form, orbit_chart
from .phasespace import ConstraintSplit, constraint_split, omega_gram, symplectic_form

# Global sign relating the reduced 2-form to the canonical orbit form under
# the conventions of this library; verified across the catalog by the tests.
KKS_MATCH_SIGN = -1.0

ISOTROPY_TOL = 1e-10
STABILITY_TOL = 1e-8
TANGENT_RTOL = 1e-8  # largest lift residual of an orbit tangent v, relative to max(1, |v|)


def _check_tangent(residuals, vs) -> None:
    """Raise NotTangent unless the lift residual of each vector v (the rows of
    ``vs``, or one vector) is at most TANGENT_RTOL · max(1, |v|)."""
    residuals = np.atleast_1d(residuals)
    bad = residuals > TANGENT_RTOL * np.maximum(1.0, np.linalg.norm(np.atleast_2d(vs), axis=-1))
    if bad.any():
        raise NotTangent("vector is not an orbit tangent at the point "
                         f"(residual {residuals[bad].max():.3e})")


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
    gamma_mu: np.ndarray  # Γ(μ), the connection's coefficients at the level
    omega_mu: np.ndarray  # ω(μ), the Gram matrix of the symplectic form at the level
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
    split = constraint_split(a, mu)
    g_mu = split.g_mu
    k = g_mu.shape[1]
    m = reductive_complement(a, g_mu)

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
                            P, alpha_mat, split.delta, conn, conn.coefficients(mu), om,
                            diagnostics)


def default_chart(ctx: ReductionContext, radius: float = 1.0) -> OrbitChart:
    return orbit_chart(ctx.algebra, ctx.mu, ctx.m, radius)


@dataclass(frozen=True)
class PointKernel:
    """Level-set data at one point (exp(Σ t_a E_a) · h, μ)."""

    coad: np.ndarray  # Coad(exp(Σ t_a E_a) · h)
    D: np.ndarray  # chart differential dnu(t)
    M: np.ndarray  # lift matrix: quotient differential on the horizontal basis
    lift_ok: bool  # M has full column rank
    lifts: np.ndarray  # row i: w1 · X e_i with X = lstsq(M, D), the lift of D e_i
    tangent: bool  # every column of D passed the tangency test against M X
    F: np.ndarray  # chart-fiber frame [Ad(h)⁻¹ · section vectors | g_μ]


class SigmaGeometry:
    """Shared workspace for derivatives along the momentum level set.

    A point (exp(Σ t_a E_a) · h, μ) is addressed by t and ``fiber``, the n×n
    Ad matrix of the stabilizer element h.  ``_stencil`` central-differences
    an array-valued function of the point, above all ``lifts`` (row i is the
    horizontal lift of the chart coordinate field f_i), along a tangent
    direction, solving for the matching (chart, fiber) parameter velocity.
    Each distinct (t, fiber) gets one ``PointKernel`` and each (t, fiber,
    step) one level-set table, built row by row (one row per chart direction,
    each on first request), all kept for the life of the instance: the chart
    sweep reads every row of ``cov_table``, the curvature routes only the
    rows they need.  A run builds one instance per (context, chart) and
    shares it between the chart sweep, the autoparallel check and the
    curvature battery; kernels and tables depend only on their keys, so
    sharing changes what is recomputed, never a value.  Neither cache is
    thread-safe: use one instance per thread.
    """

    def __init__(self, ctx: ReductionContext, chart: OrbitChart, richardson: bool = False):
        if chart.dim == 0:
            raise ZeroDimensionalBase("the reduced manifold is a point")
        self.ctx = ctx
        self.chart = chart
        a = ctx.algebra
        self.algebra = a
        self.n = a.dim
        self.struct = frame_structure(a)
        self.K_T = a.bracket_pairing(ctx.mu).T
        self.w1grp = ctx.w1[: self.n, :]
        self.identity = np.eye(self.n)
        self.richardson = richardson
        self._points: dict = {}
        self._tables: dict = {}  # (t, fiber, step) -> (lift values, level rows, derivatives)
        self._full_frames: set = set()  # point keys whose F passed the rank test

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
            p = self._points[key] = PointKernel(
                coad, D, M, linalg.rank(M) == M.shape[1],
                np.array([self.ctx.w1 @ (X @ c) for c in np.eye(D.shape[1])]),
                not np.any(np.linalg.norm(M @ X - D, axis=0)
                           > TANGENT_RTOL * np.maximum(1.0, np.linalg.norm(D, axis=0))),
                np.hstack([h_inv @ vecs, self.ctx.g_mu]))
        return p

    # -- lifting ---------------------------------------------------------

    def _lift_system(self, t, fiber: np.ndarray) -> PointKernel:
        p = self.point(t, fiber)
        if not p.lift_ok:
            raise SingularProjection("quotient differential singular on the horizontal space")
        return p

    def lift(self, t, fiber: np.ndarray, v) -> np.ndarray:
        """Unique horizontal vector projecting onto the orbit tangent v, or the
        lifts of a stack of tangents (rows), all by one solve."""
        M = self._lift_system(t, fiber).M
        v = np.asarray(v, dtype=float)
        coeffs, *_ = np.linalg.lstsq(M, v.T, rcond=None)
        _check_tangent(np.linalg.norm(M @ coeffs - v.T, axis=0), v)
        return (self.ctx.w1 @ coeffs).T

    def lifts(self, t, fiber: np.ndarray) -> np.ndarray:
        """Horizontal lifts of the chart coordinate fields at (t, fiber), row i
        the lift of f_i; the level-set field that stencils difference.

        Raises:
            SingularProjection: the lift system is singular at the point.
            NotTangent: a chart direction is not an orbit tangent there.
        """
        p = self._lift_system(t, fiber)
        if not p.tangent:
            raise NotTangent("a chart direction is not an orbit tangent at the point")
        return p.lifts

    def form_table(self, us, vs) -> np.ndarray:
        """ω at μ on every pair of level-set vectors: entry [a, b] is ω(us[a], vs[b])."""
        return np.asarray(us) @ self.ctx.omega_mu @ np.asarray(vs).T

    # -- derivatives along the level set ----------------------------------

    def _stencil(self, t, fiber: np.ndarray, u, step: float, fld) -> np.ndarray:
        """Central difference along the tangent direction u of ``fld``, a function
        (t, fiber) -> array: one frame solve, and the fiber shifts of the stencil
        (±step, then ±step/2 with Richardson) from one stacked exponential.  The
        chart-fiber frame's rank is tested at the first stencil on each point."""
        t = np.asarray(t, dtype=float)
        u = np.asarray(u, dtype=float)
        if np.linalg.norm(u[self.n:]) > 1e-8 * max(1.0, np.linalg.norm(u)):
            raise PointOffConstraint("direction is not tangent to the level set")
        F = self.point(t, fiber).F
        key = (t.tobytes(), fiber.tobytes())
        if key not in self._full_frames:
            if linalg.rank(F) < self.n:
                raise RankLoss("chart-fiber frame lost rank; point outside the chart radius")
            self._full_frames.add(key)
        params = np.linalg.solve(F, u[: self.n])
        dt, dy = params[: self.chart.dim], params[self.chart.dim:]
        steps = (step, -step) + ((step / 2.0, -step / 2.0) if self.richardson else ())
        shifts = [fiber] * len(steps)
        if dy.size:
            ad_y = self.algebra.ad(self.ctx.g_mu @ dy)
            shifts = fiber @ linalg.expm(np.multiply.outer(steps, ad_y))
        v = [fld(t + s * dt, fib) for s, fib in zip(steps, shifts)]
        d1 = (v[0] - v[1]) / (2.0 * step)
        return d1 if len(v) == 2 else (4.0 * ((v[2] - v[3]) / step) - d1) / 3.0

    def _induced(self, u, base: np.ndarray, d: np.ndarray) -> np.ndarray:
        """P∘∇ along u of a field with value ``base`` and directional derivative d."""
        return self.ctx.p_matrix @ (d + np.einsum("abc,a,b->c", self.ctx.gamma_mu, u, base))

    def pushdown(self, t, fiber: np.ndarray, v) -> np.ndarray:
        """Quotient differential applied to a level-set tangent vector."""
        return -self.point(t, fiber).coad @ (self.K_T @ np.asarray(v, dtype=float)[: self.n])

    def pushdown_horizontal(self, t, fiber: np.ndarray, v) -> np.ndarray:
        """Remove the radical component of v, then push it down to the orbit."""
        return self.pushdown(t, fiber, self.ctx.horizontal_part(v))

    def _level_table(self, t, fiber: np.ndarray, step: float,
                     rows=None) -> tuple[list, list]:
        """level[i][j] = P∘∇ along f̄_i of f̄_j, for the lifted chart coordinate
        fields f̄ = ``lifts`` at (t, fiber), and derivs[i][j], the derivative of
        f̄_j along f̄_i that level[i][j] is built from, for every i in ``rows``
        (all chart directions by default).  Each row is computed on first
        request, on one stencil; a row never requested is None."""
        t = np.asarray(t, dtype=float)
        key = (t.tobytes(), fiber.tobytes(), step)
        if key not in self._tables:
            self._tables[key] = (self.lifts(t, fiber), [None] * self.chart.dim,
                                 [None] * self.chart.dim)
        bases, level, derivs = self._tables[key]
        for i in range(self.chart.dim) if rows is None else rows:
            if level[i] is None:
                d = derivs[i] = self._stencil(t, fiber, bases[i], step, self.lifts)
                level[i] = [self._induced(bases[i], bases[j], d[j]) for j in range(len(d))]
        return level, derivs

    def cov_table(self, t, fiber: np.ndarray, step: float) -> tuple[list, np.ndarray]:
        """level[i][j] = P∘∇ along f̄_i of f̄_j (``_level_table``) and cov[i, j]
        = its pushdown, the reduced ∇ʳ(f_i) f_j, over the chart coordinate
        fields at (t, fiber); direction i differences ``lifts`` on one stencil
        for every f_j."""
        level, _ = self._level_table(t, fiber, step)
        cov = np.array([[self.pushdown_horizontal(t, fiber, g) for g in row] for row in level])
        return level, cov


# --- public operations --------------------------------------------------------


def reduced_form(ctx: ReductionContext, chart: OrbitChart, v, w, t,
                 fiber: np.ndarray | None = None,
                 geom: SigmaGeometry | None = None) -> float:
    """Reduced symplectic form: ω on the horizontal lifts of two orbit tangents,
    at the fiber with Ad matrix ``fiber`` (the identity by default)."""
    geom = geom if geom is not None else SigmaGeometry(ctx, chart)
    fiber = geom.identity if fiber is None else fiber
    vb, wb = geom.lift(t, fiber, [v, w])
    return symplectic_form(ctx.algebra, ctx.mu, vb, wb)


def gram_oracle_solve(geom: SigmaGeometry, D: np.ndarray, lifts: np.ndarray,
                      G: np.ndarray) -> np.ndarray:
    """Orbit tangents (rows) whose lifts pair with the lifted chart directions,
    the rows of ``lifts``, as the level-set vectors G (rows) do."""
    coords = np.linalg.solve(geom.form_table(lifts, lifts).T, geom.form_table(G, lifts).T)
    return (D @ coords).T


def totally_geodesic_defect(ctx: ReductionContext) -> float:
    """Largest ω-pairing of P∇ of stabilizer generators against PZ over the frame.

    Zero means the stabilizer orbits inside the level set are totally geodesic
    for the induced connection.  Generators of stabilizer elements have
    frame-constant components (Y, 0) along the level set, so no finite
    differences are needed.
    """
    n = ctx.algebra.dim
    k = ctx.stabilizer_dim
    if k == 0:
        return 0.0
    om = ctx.omega_mu
    P = ctx.p_matrix
    defect = 0.0
    for i in range(k):
        ui = np.concatenate([ctx.g_mu[:, i], np.zeros(n)])
        for j in range(k):
            vj = np.concatenate([ctx.g_mu[:, j], np.zeros(n)])
            cov = np.einsum("abc,a,b->c", ctx.gamma_mu, ui, vj)
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
            isotropic_correction_gram(ctx.omega_mu, cand, ctx.split.delta)
        except (AssumptionTwoFailure, DegeneratePairing):
            continue
        return cand
    return None


def autoparallel_check(ctx: ReductionContext, *, geom: SigmaGeometry | None = None,
                       rng: np.random.Generator | None = None,
                       n_samples: int = 3, fd_step: float = 1e-5,
                       tol: float = 1e-10) -> AutoparallelReport:
    """Measure how far the level set is from being autoparallel.

    The defect is the largest component of ∇ of level-set frame pairs outside
    the tangent space.  When it vanishes, the reduced connection cannot
    depend on the choice of complement; in that case a second context with a
    randomized valid complement is built and the largest difference of the
    reduced derivative over chart points sampled in ``geom``'s chart (the
    geometry of ``ctx``) is reported.
    """
    a = ctx.algebra
    n = a.dim
    complement_proj = np.eye(2 * n) - ctx.p_matrix
    defect = 0.0
    for i in range(n):
        for j in range(n):
            defect = max(defect, float(np.max(np.abs(complement_proj @ ctx.gamma_mu[i, j, :]))))
    if defect > tol or ctx.zero_dimensional_base or geom is None:
        return AutoparallelReport(defect, None if defect > tol else 0.0, 0)

    rng = rng if rng is not None else np.random.default_rng(0)
    cand = _random_stable_complement(ctx, rng)
    if cand is None:
        return AutoparallelReport(defect, None, 0)
    chart = geom.chart
    other = build_context(a, ctx.mu, s_tilde=cand, connection=ctx.connection)
    geom_b = SigmaGeometry(other, chart)
    diff = 0.0
    for _ in range(n_samples):
        t = rng.uniform(-0.3, 0.3, size=chart.dim) * chart.radius
        _, va = geom.cov_table(t, geom.identity, fd_step)
        _, vb = geom_b.cov_table(t, geom_b.identity, fd_step)
        diff = max(diff, float(np.max(np.abs(va - vb))))
    return AutoparallelReport(defect, diff, n_samples * chart.dim ** 2)


def kks_pairs(ctx: ReductionContext, D: np.ndarray, nu: np.ndarray, omega: np.ndarray) -> list:
    """(reduced, canonical) orbit-form values on the chart coordinate pairs
    i < j at a chart point where the canonical value is nonzero: D = dnu there,
    nu the orbit point and ``omega`` the reduced form on the coordinate
    tangents."""
    km = D.shape[1]
    pairs = []
    for i in range(km):
        for j in range(i + 1, km):
            ref = kks_form(ctx.algebra, nu, D[:, i], D[:, j])
            if abs(ref) > 1e-12:
                pairs.append((omega[i, j], ref))
    return pairs


def kks_residual(ctx: ReductionContext, chart: OrbitChart, t) -> float:
    """Largest relative gap between the reduced form and the sign-matched
    canonical orbit form over chart coordinate pairs at t."""
    geom = SigmaGeometry(ctx, chart)
    p = geom.point(t, geom.identity)
    lifts = geom.lifts(t, geom.identity)
    return kks_gap(kks_pairs(ctx, p.D, p.coad @ ctx.mu, geom.form_table(lifts, lifts)))


def kks_gap(pairs) -> float:
    """``kks_residual`` from the (reduced, canonical) pairs of ``kks_pairs``."""
    return max([0.0] + [abs(red - KKS_MATCH_SIGN * ref) / abs(ref) for red, ref in pairs])
