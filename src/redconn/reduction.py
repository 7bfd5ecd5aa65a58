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
array per point (``SigmaGeometry.lifts``): the horizontal part of the section's
velocity, so no lift needs a solve through the quotient map.  Its exact
derivative along every (chart x stabilizer-fiber) parameter is the horizontal
part of the velocity's derivative, from the chart's block exponentials: no
first derivative needs a chart inversion or a difference.
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
from .orbits import OrbitChart, kks_gap, kks_pairs, orbit_chart
from .phasespace import ConstraintSplit, constraint_split, omega_gram, symplectic_form

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
        """Stabilizer coordinates of the radical component of a tangent vector
        (or of each vector of a stack)."""
        return linalg.matvec(self.alpha_mat, v)

    def alpha_star(self, v) -> np.ndarray:
        """alpha followed by the vertical generator map back into the frame."""
        return linalg.matvec(self.split.delta, self.alpha(v))

    def horizontal_part(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        return v - self.alpha_star(v)


def _check_custom_s_tilde(a: LieAlgebra, split: ConstraintSplit, st: np.ndarray) -> None:
    n = a.dim
    k = split.g_mu.shape[1]
    if st.shape != (2 * n, k):
        raise AssumptionTwoFailure(
            f"custom complement must be a (2n, dim stabilizer) = {(2 * n, k)} basis, got {st.shape}")
    if linalg.rank(np.hstack([split.sum, st])) != 2 * n:
        raise AssumptionTwoFailure("custom complement does not complement TΣ + TΣ^⊥")
    P_st = linalg.projector(st)
    for Y in split.g_mu.T:
        adY = a.ad(Y)  # the right translation by exp(sY) moves st by diag(−ad Y, ad Yᵀ)
        moved = np.vstack([-adY @ st[:n], adY.T @ st[n:]])
        defect = float(np.max(np.abs(moved - P_st @ moved)))
        if defect > STABILITY_TOL * max(1.0, float(np.max(np.abs(moved)))):
            raise AssumptionTwoFailure(
                f"custom complement is not stabilizer-stable (defect {defect:.3e})")


def build_context(a: LieAlgebra, mu, *, s_tilde="default",
                  connection: FrameConnection | None = None,
                  gamma_mu: np.ndarray | None = None) -> ReductionContext:
    """Assemble and validate all μ-level reduction data.

    The ambient connection defaults to the symplectization of the bi-invariant
    baseline; pass an explicit connection to study non-symplectic inputs, and
    its Γ(μ) as ``gamma_mu`` when the caller has it.

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
                            P, alpha_mat, conn,
                            conn.coefficients(mu) if gamma_mu is None else gamma_mu, om,
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
    lifts: np.ndarray  # row i: H(Ad(h)⁻¹ · section vector i, 0), the lift of D e_i
    tangent: bool  # M X = D to TANGENT_RTOL, X the W1 coordinates of the lifts
    F: np.ndarray  # chart-fiber frame [Ad(h)⁻¹ · section vectors | g_μ]
    frame_ok: bool  # F has full rank
    jet: np.ndarray  # jet[c]: derivative of lifts along parameter c (read only if lift_ok)


class SigmaGeometry:
    """Shared workspace for derivatives along the momentum level set.

    A point (exp(Σ t_a E_a) · h, μ) is addressed by t and ``fiber``, the Ad
    matrix of h, and moves with the parameters t and s in h·exp(Σ s_b g_μ e_b).
    Each (t, fiber) gets one ``PointKernel``, holding ``lifts`` (row i lifts
    f_i: the horizontal part of the section velocity) and its jet, and one
    level-set table; ``points`` and ``tables`` build a batch of either in one
    stacked pass.  ``lift_derivatives`` contracts the jet with a direction's
    parameter velocity, and ``_stencil`` central-differences any function of
    the point.  A run shares one instance per (context, chart) between the
    chart sweep, the autoparallel check and the curvature battery; kernels and
    tables depend only on their keys, never on their batch, so sharing and
    batching change what is recomputed, never a value.  Neither cache is
    thread-safe: use one instance per thread.
    """

    def __init__(self, ctx: ReductionContext, chart: OrbitChart):
        if chart.dim == 0:
            raise ZeroDimensionalBase("the reduced manifold is a point")
        self.ctx = ctx
        self.chart = chart
        a = ctx.algebra
        self.n = a.dim
        self.struct = frame_structure(a)
        self.K_T = a.bracket_pairing(ctx.mu).T
        self.w1grp = ctx.w1[: self.n, :]
        # ad(g_μ e_b)ᵀ: rows of Ad(h)⁻¹ · vecs move by −(…) · ad(g_μ e_b)ᵀ along fiber parameter b
        self.ad_fiber_T = np.einsum("ijk,ib->bjk", a.c, ctx.g_mu)
        self.horizontal_T = ctx.horizontal_part(np.eye(2 * self.n)[: self.n])  # row i: H(e_i, 0)
        self.gamma_T = ctx.gamma_mu.reshape(2 * self.n, -1).T  # [(b, c), a] = Γ(μ)[a, b, c]
        self.identity = np.eye(self.n)
        self._points: dict = {}
        self._tables: dict = {}  # (t, fiber) -> (level values, derivatives)

    def _batch(self, cache: dict, build, ts, fibers) -> list:
        """The entries of ``cache`` at the rows t of ``ts`` and ``fibers`` (one Ad
        matrix, or one per row), those missing built by ``build`` in one pass."""
        ts = np.asarray(ts, dtype=float).reshape(-1, self.chart.dim)
        fibers = np.broadcast_to(np.asarray(fibers, dtype=float), (len(ts), self.n, self.n))
        keys = [(t.tobytes(), fiber.tobytes()) for t, fiber in zip(ts, fibers)]
        new = {key: i for i, key in enumerate(keys) if key not in cache}
        if new:
            index = list(new.values())
            cache.update(zip(new, build(ts[index], fibers[index])))
        return [cache[key] for key in keys]

    def points(self, ts, fibers) -> list[PointKernel]:
        """The kernels at the rows t of ``ts`` and ``fibers``, those not yet
        cached built in one stacked pass (``_build``)."""
        return self._batch(self._points, self._build, ts, fibers)

    def tables(self, ts, fibers) -> list:
        """The level tables (``_level_table``) at the rows t of ``ts`` and
        ``fibers``, those not yet cached built in one stacked pass: one frame
        solve per direction, one jet contraction and one contraction of Γ(μ)
        with every lift row, each product acting on one vector alone (None
        where the lifts or the frame fail a check; reading it raises)."""
        return self._batch(self._tables, self._build_tables, ts, fibers)

    def _build_tables(self, ts: np.ndarray, fibers: np.ndarray) -> list:
        kernels = self.points(ts, fibers)
        ok = [p.lift_ok and p.tangent and p.frame_ok for p in kernels]
        u, jet = (np.array([getattr(p, f) for p in kernels]) for f in ("lifts", "jet"))
        # a point that failed a check solves in the identity frame, and gets None
        F = np.array([p.F if good else self.identity for p, good in zip(kernels, ok)])
        derivs = _along(jet, np.linalg.solve(F[:, None], u[..., : self.n, None])[..., 0])
        return [(level, d) if good else None
                for level, d, good in zip(self._induced(u, u[:, None], derivs), derivs, ok)]

    def point(self, t, fiber: np.ndarray) -> PointKernel:
        """The kernel at (exp(Σ t_a E_a) · h, μ): ``points`` on a batch of one."""
        p = self._points.get((np.asarray(t, dtype=float).tobytes(), fiber.tobytes()))
        return p if p is not None else self.points([t], fiber)[0]

    def _build(self, ts: np.ndarray, fibers: np.ndarray) -> list[PointKernel]:
        """The kernels at the rows of ``ts`` and ``fibers``, each step stacked."""
        ctx = self.ctx
        coad_t, vecs, D, d_vecs = self.chart.exp_data(ts)
        h_inv = np.linalg.inv(fibers)
        coad = coad_t @ h_inv.transpose(0, 2, 1)
        M = -coad @ (self.K_T @ self.w1grp)
        # lifts: the horizontal parts of the rows of the section velocity V = Ad(h)⁻¹ · vecs;
        # jet: those of V's derivatives along each chart and fiber parameter
        V = h_inv @ vecs
        rows = V.transpose(0, 2, 1)
        d_rows = np.concatenate([d_vecs.transpose(0, 1, 3, 2) @ h_inv.transpose(0, 2, 1)[:, None],
                                 -rows[:, None] @ self.ad_fiber_T], axis=1)
        lifts = rows @ self.horizontal_T
        # the tangency test: the lifts' W1 coordinates X must solve M X = D
        residual = M @ (lifts[..., : self.n] @ self.w1grp).transpose(0, 2, 1) - D
        tangent = ~np.any(np.linalg.norm(residual, axis=-2)
                          > TANGENT_RTOL * np.maximum(1.0, np.linalg.norm(D, axis=-2)), axis=-1)
        F = np.concatenate([V, np.broadcast_to(ctx.g_mu, (len(ts),) + ctx.g_mu.shape)], axis=2)
        return [PointKernel(*fields) for fields in zip(
            coad, D, M, (linalg.rank(M) == M.shape[-1]).tolist(), lifts, tangent.tolist(), F,
            (linalg.rank(F) == self.n).tolist(), d_rows @ self.horizontal_T)]

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
        the lift of f_i.

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

    def _params(self, t, fiber: np.ndarray, us) -> np.ndarray:
        """Chart-fiber parameter velocities (rows) of the level-set directions
        ``us`` (rows), one solve in the chart-fiber frame per direction, so that
        a direction's velocity never depends on the others."""
        us = np.atleast_2d(np.asarray(us, dtype=float))
        if np.any(np.linalg.norm(us[:, self.n:], axis=1)
                  > 1e-8 * np.maximum(1.0, np.linalg.norm(us, axis=1))):
            raise PointOffConstraint("direction is not tangent to the level set")
        p = self.point(t, fiber)
        if not p.frame_ok:
            raise RankLoss("chart-fiber frame lost rank; point outside the chart radius")
        return np.linalg.solve(p.F, us[:, : self.n, None])[..., 0]

    def lift_derivatives(self, t, fiber: np.ndarray, us) -> np.ndarray:
        """Exact derivatives of ``lifts`` (km × 2n each) along the level-set
        directions ``us`` (rows): the jet contracted with their velocities."""
        self.lifts(t, fiber)
        return _along(self.point(t, fiber).jet, self._params(t, fiber, us))

    def _stencil_points(self, t, fiber: np.ndarray, us, step: float,
                        richardson: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """The points (t + s·dt, fiber·exp(s·ad(g_μ·dy))) of ``_stencil``: for the
        velocity (dt, dy) of each direction in ``us`` (rows) in turn, s = ±step,
        then ±step/2 with Richardson extrapolation."""
        t = np.asarray(t, dtype=float)
        km = self.chart.dim
        params = self._params(t, fiber, us)
        steps = (step, -step) + ((step / 2.0, -step / 2.0) if richardson else ())
        ts = np.array([t + s * p[:km] for p in params for s in steps])
        if not self.ctx.stabilizer_dim:
            return ts, np.broadcast_to(fiber, (len(ts),) + fiber.shape)
        ad_y = [np.multiply.outer(steps, self.ctx.algebra.ad(self.ctx.g_mu @ p[km:]))
                for p in params]
        return ts, (fiber @ linalg.expm(np.array(ad_y), batch_ndim=1)).reshape(-1, self.n, self.n)

    def _stencil(self, t, fiber: np.ndarray, us, step: float, fld, *,
                 richardson: bool = False, tables: bool = False) -> np.ndarray:
        """Central differences of ``fld``, a function (t, fiber) -> array, along
        the direction u or each row of a stack ``us``, with their kernels (with
        ``tables``, their level tables) built in one batch; with Richardson
        extrapolation, (4·d(step/2) − d(step))/3."""
        ts, fibers = self._stencil_points(t, fiber, us, step, richardson)
        (self.tables if tables else self.points)(ts, fibers)
        v = np.array([fld(t2, fib) for t2, fib in zip(ts, fibers)])
        v = v.reshape((-1, 4 if richardson else 2) + v.shape[1:])
        d = (v[:, 0] - v[:, 1]) / (2.0 * step)
        if richardson:
            d = (4.0 * ((v[:, 2] - v[:, 3]) / step) - d) / 3.0
        return d[0] if np.ndim(us) == 1 else d

    def _induced(self, u, base: np.ndarray, d: np.ndarray) -> np.ndarray:
        """P∘∇ along u of a field with value ``base`` and directional derivative
        d: one direction u, or a stack of them whose fields' values stack along
        the axes of ``base`` after u's.  Every product acts on one vector alone."""
        u = np.asarray(u, dtype=float)
        # [..., b, c] = Γ(μ)(u, e_b)_c
        gamma_u = linalg.matvec(self.gamma_T, u).reshape(
            u.shape[:-1] + (1,) * (np.ndim(base) - u.ndim) + (2 * self.n, 2 * self.n))
        return linalg.matvec(self.ctx.p_matrix,
                             d + linalg.matvec(gamma_u.swapaxes(-1, -2), base))

    def pushdown(self, t, fiber: np.ndarray, v) -> np.ndarray:
        """Quotient differential applied to a level-set tangent vector, or to each
        vector of a stack alike."""
        return -linalg.matvec(self.point(t, fiber).coad @ self.K_T,
                              np.asarray(v, dtype=float)[..., : self.n])

    def _level_table(self, t, fiber: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """level[i, j] = P∘∇ along f̄_i of f̄_j, for the lifted chart coordinate
        fields f̄ = ``lifts`` at (t, fiber), and derivs[i, j], the exact
        derivative of f̄_j along f̄_i that level[i, j] is built from: the table
        ``tables`` built, or on a miss a batch of one."""
        table = (self._tables.get((np.asarray(t, dtype=float).tobytes(), fiber.tobytes()))
                 or self.tables(t, fiber)[0])
        if table is None:  # the point failed a check: raise it
            self._params(t, fiber, self.lifts(t, fiber))
        return table

    def cov_table(self, t, fiber: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """level[i, j] = P∘∇ along f̄_i of f̄_j (``_level_table``) and cov[i, j]
        = its pushdown, the reduced ∇ʳ(f_i) f_j, over the chart coordinate
        fields at (t, fiber), with the radical part of each level value removed."""
        level, _ = self._level_table(t, fiber)
        return level, self.pushdown(t, fiber, self.ctx.horizontal_part(level))


def _along(jet: np.ndarray, params: np.ndarray) -> np.ndarray:
    """Derivatives of ``lifts`` along the parameter velocities ``params`` (rows,
    [..., r, c]): Σ_c params[..., r, c] · jet[..., c, :, :], one product per row."""
    flat = jet.reshape(jet.shape[:-2] + (-1,)).swapaxes(-1, -2)
    return linalg.matvec(flat[..., None, :, :], params).reshape(params.shape[:-1] + jet.shape[-2:])


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
    gens, P = np.ascontiguousarray(ctx.split.delta.T), ctx.p_matrix  # rows (g_μ e_i, 0)
    return max((float(np.max(np.abs((P @ np.einsum("abc,a,b->c", ctx.gamma_mu, u, v))
                                    @ ctx.omega_mu @ P))) for u in gens for v in gens),
               default=0.0)


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
                       n_samples: int = 3, tol: float = 1e-10) -> AutoparallelReport:
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
    defect = float(np.max(np.abs(linalg.matvec(np.eye(2 * n) - ctx.p_matrix,
                                               ctx.gamma_mu[:n, :n]))))
    if defect > tol or ctx.zero_dimensional_base or geom is None:
        return AutoparallelReport(defect, None if defect > tol else 0.0, 0)

    rng = rng if rng is not None else np.random.default_rng(0)
    cand = _random_stable_complement(ctx, rng)
    if cand is None:
        return AutoparallelReport(defect, None, 0)
    chart = geom.chart
    other = build_context(a, ctx.mu, s_tilde=cand, connection=ctx.connection,
                          gamma_mu=ctx.gamma_mu)
    geom_b = SigmaGeometry(other, chart)
    ts = [rng.uniform(-0.3, 0.3, size=chart.dim) * chart.radius for _ in range(n_samples)]
    geom.tables(ts, geom.identity)
    geom_b.tables(ts, geom_b.identity)
    diff = max((float(np.max(np.abs(geom.cov_table(t, geom.identity)[1]
                                    - geom_b.cov_table(t, geom_b.identity)[1]))) for t in ts),
               default=0.0)
    return AutoparallelReport(defect, diff, n_samples * chart.dim ** 2)


def kks_residual(ctx: ReductionContext, chart: OrbitChart, t) -> float:
    """Largest relative gap between the reduced form and the sign-matched
    canonical orbit form over chart coordinate pairs at t."""
    geom = SigmaGeometry(ctx, chart)
    p = geom.point(t, geom.identity)
    lifts = geom.lifts(t, geom.identity)
    return kks_gap(kks_pairs(ctx.algebra, p.D, p.coad @ ctx.mu, geom.form_table(lifts, lifts)))
