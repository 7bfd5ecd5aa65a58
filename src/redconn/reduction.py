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
array per point (``PointKernel.lifts``): the horizontal part of the section's
velocity, so no lift needs a solve through the quotient map.  Its exact
derivative along every (chart x stabilizer-fiber) parameter is the horizontal
part of the velocity's derivative, from the chart's block exponentials: no
first derivative needs a chart inversion or a difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .connections import baseline_coefficients, frame_structure, symplectized_coefficients
from .errors import (AssumptionTwoFailure, DegeneratePairing, NotTangent,
                     PointOffConstraint, RankLoss, SingularProjection,
                     ZeroDimensionalBase)
from .liealg import LieAlgebra, reductive_complement
from .orbits import OrbitChart, off_tangent, orbit_chart, tangent_solve
from .phasespace import ConstraintSplit, constraint_split, omega_gram, symplectic_form

ISOTROPY_TOL = 1e-10
STABILITY_TOL = 1e-8


def isotropic_correction_gram(om: np.ndarray, s_tilde: np.ndarray, delta: np.ndarray):
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
    if delta.shape[1] != s_tilde.shape[1]:
        raise ValueError("s_tilde and delta must have equal dimension")
    delta_gram = np.abs(delta.T @ om @ delta)
    if float(np.max(delta_gram, initial=0.0)) > ISOTROPY_TOL * max(1.0, float(np.max(np.abs(om)))):
        raise DegeneratePairing("delta is not isotropic")
    B = delta.T @ om @ s_tilde
    s = np.linalg.svd(B, compute_uv=False)
    if np.any(s <= linalg.RANK_RTOL * s[:1]):
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
    m: np.ndarray
    split: ConstraintSplit
    s_tilde: np.ndarray
    iso_map: np.ndarray
    S: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    p_matrix: np.ndarray
    alpha_mat: np.ndarray
    gamma_mu: np.ndarray  # Γ(μ), the connection's coefficients at the level
    omega_mu: np.ndarray  # ω(μ), the Gram matrix of the symplectic form at the level
    diagnostics: dict = field(default_factory=dict)

    @property
    def stabilizer_dim(self) -> int:
        return self.split.g_mu.shape[1]

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
                  gamma_mu: np.ndarray | None = None,
                  split: ConstraintSplit | None = None) -> ReductionContext:
    """Assemble and validate all μ-level reduction data.

    The reduction reads the ambient connection only through its coefficients
    Γ(μ) at the level, ``gamma_mu``: by default those of the symplectization
    of the bi-invariant baseline; pass another connection's Γ(μ) to study
    non-symplectic inputs.  Pass ``constraint_split(a, mu)`` as ``split`` when
    the caller has it.

    Raises:
        NonReductiveStabilizer: no ad-stable complement of the stabilizer.
        AssumptionTwoFailure: a supplied complement is invalid.
    """
    mu = np.asarray(mu, dtype=float)
    n = a.dim
    if mu.shape != (n,):
        raise ValueError(f"mu must have length {n}")
    split = constraint_split(a, mu) if split is None else split
    k = split.g_mu.shape[1]
    m = reductive_complement(a, split.g_mu)

    if isinstance(s_tilde, str) and s_tilde == "default":
        ann_m = linalg.nullspace(m.T)
        st = np.vstack([np.zeros((n, ann_m.shape[1])), ann_m])
    else:
        st = np.atleast_2d(np.asarray(s_tilde, dtype=float))
        _check_custom_s_tilde(a, split, st)

    om = omega_gram(a, mu)
    S, lam = isotropic_correction_gram(om, st, split.delta)
    iso_defect = float(np.max(np.abs(S.T @ om @ S), initial=0.0))

    # (S ⊕ Δ)^⊥ split into its TΣ and TΣ^⊥ parts, built directly inside each
    # subspace so the group/fiber structure is exact.
    K_T = a.bracket_pairing(mu).T
    SD = np.hstack([S, split.delta])
    rows = om @ SD
    w1grp = linalg.nullspace(rows[:n, :].T)
    graph_rows = rows[:n, :] + K_T.T @ rows[n:, :]
    w2grp = linalg.nullspace(graph_rows.T)
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

    diagnostics = {
        "dims": {"delta": k, "w1": n - k, "w2": n - k, "s": k},
        "decomposition_cond": float(sq[0] / sq[-1]),
        "isotropy_defect": iso_defect,
        "projector_defect": float(np.max(np.abs(P @ P - P))),
        "zero_dimensional_base": bool(m.shape[1] == 0),
    }
    if gamma_mu is None:
        gamma_mu = symplectized_coefficients(a, mu, baseline_coefficients(a))
    return ReductionContext(a, mu.copy(), m, split, st, lam, S, w1, w2, P, alpha_mat,
                            gamma_mu, om, diagnostics)


def default_chart(ctx: ReductionContext) -> OrbitChart:
    return orbit_chart(ctx.algebra, ctx.mu, ctx.m)


@dataclass(frozen=True)
class PointKernel:
    """Level-set data at the points (exp(Σ t_a E_a) · h, μ) of a batch, each field
    stacked over its rows (``SigmaGeometry.kernels``), with their level tables."""

    coad: np.ndarray  # Coad(exp(Σ t_a E_a) · h)
    D: np.ndarray  # chart differential dnu(t)
    M: np.ndarray  # lift matrix: quotient differential on the horizontal basis
    lifts: np.ndarray  # row i: H(Ad(h)⁻¹ · section vector i, 0), the lift of D e_i
    F: np.ndarray  # chart-fiber frame [Ad(h)⁻¹ · section vectors | g_μ]
    jet: np.ndarray  # jet[c]: derivative of lifts along parameter c
    derivs: np.ndarray  # derivs[i, j]: derivative of lifts[j] along lifts[i]
    level: np.ndarray  # level[i, j]: P∘∇ along lifts[i] of lifts[j]
    cov: np.ndarray  # cov[i, j]: pushdown of level[i, j]'s horizontal part, ∇ʳ(f_i) f_j

    def __getitem__(self, rows) -> PointKernel:
        """The kernels at ``rows`` of the batch (a slice or an index array)."""
        return PointKernel(*(value[rows] for value in vars(self).values()))


class SigmaGeometry:
    """Shared workspace for derivatives along the momentum level set.

    A point (exp(Σ t_a E_a) · h, μ) is addressed by t and ``fiber``, the Ad
    matrix of h, and moves with the parameters t and s in h·exp(Σ s_b g_μ e_b).
    ``kernels`` builds the ``PointKernel`` of a batch of points in one stacked
    pass and returns it: row i of ``lifts`` lifts f_i (the horizontal part of
    the section velocity), with its jet and its level table.  The caller holds
    the kernels it built and passes them on: ``lift`` solves through their lift
    matrices, ``lift_derivatives`` contracts their jets with a direction's
    parameter velocity, and ``_stencil_points`` places the ± points whose values
    ``_central`` differences.  A run shares one instance per (context, chart) between
    the chart sweep, the autoparallel check and the curvature battery.  It keeps
    nothing between calls, and a kernel depends only on its point, never on its
    batch, so batching changes what is recomputed, never a value.
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
        self.ad_fiber_T = np.einsum("ijk,ib->bjk", a.c, ctx.split.g_mu)
        self.horizontal_T = ctx.horizontal_part(np.eye(2 * self.n)[: self.n])  # row i: H(e_i, 0)
        self.gamma_T = ctx.gamma_mu.reshape(2 * self.n, -1).T  # [(b, c), a] = Γ(μ)[a, b, c]
        self.identity = np.eye(self.n)

    def kernels(self, ts, fibers) -> PointKernel:
        """The kernels at the rows t of ``ts`` and ``fibers`` (one Ad matrix, or
        one per row), each field stacked over the rows, raising as ``_lift_rows`` at
        the first row that fails a check; rows with equal (t, fiber) bytes are built
        once, in one stacked pass."""
        ts = np.asarray(ts, dtype=float).reshape(-1, self.chart.dim)
        fibers = np.broadcast_to(np.asarray(fibers, dtype=float), (len(ts), self.n, self.n))
        rows, first = linalg.distinct_rows((t.tobytes(), fiber.tobytes())
                                           for t, fiber in zip(ts, fibers))
        return self._build(ts[first], fibers[first])[rows]

    def _build(self, ts: np.ndarray, fibers: np.ndarray) -> PointKernel:
        """The kernels at the rows of ``ts`` and ``fibers``, each step stacked."""
        ctx = self.ctx
        coad_t, vecs, D, d_vecs = self.chart.exp_data(ts)
        h_inv, coad, M, F, lifts = self._lift_rows(coad_t, vecs, D, fibers)
        # jet: the horizontal parts of V's row derivatives along each chart and fiber parameter
        rows = F[..., : self.chart.dim].transpose(0, 2, 1)
        d_rows = np.concatenate([d_vecs.transpose(0, 1, 3, 2) @ h_inv.transpose(0, 2, 1)[:, None],
                                 -rows[:, None] @ self.ad_fiber_T], axis=1)
        jet = d_rows @ self.horizontal_T
        # the table: one frame solve per lift, every product acting on one vector alone
        derivs = _along(jet, np.linalg.solve(F[:, None], lifts[..., : self.n, None])[..., 0])
        level = self._induced(lifts, lifts[:, None], derivs)
        cov = -linalg.matvec((coad @ self.K_T)[:, None, None],
                             ctx.horizontal_part(level)[..., : self.n])
        return PointKernel(coad, D, M, lifts, F, jet, derivs, level, cov)

    def _lift_rows(self, coad_t, vecs, D, fibers) -> tuple[np.ndarray, ...]:
        """Ad(h)⁻¹, Coad, M, the frame F = [V | g_μ] for V = Ad(h)⁻¹ · vecs and
        ``lifts`` at the points with chart data (coad_t, vecs, D) and fibers h,
        stacked, once every row passes ``_check``."""
        h_inv = np.linalg.inv(fibers)
        coad = coad_t @ h_inv.transpose(0, 2, 1)
        M = -coad @ (self.K_T @ self.w1grp)
        V = h_inv @ vecs
        lifts = V.transpose(0, 2, 1) @ self.horizontal_T
        # the tangency test: the lifts' W1 coordinates X must solve M X = D
        residual = M @ (lifts[..., : self.n] @ self.w1grp).transpose(0, 2, 1) - D
        tangent = ~np.any(off_tangent(np.linalg.norm(residual, axis=-2),
                                      np.linalg.norm(D, axis=-2)), axis=-1)
        g_mu = np.broadcast_to(self.ctx.split.g_mu, (len(V),) + self.ctx.split.g_mu.shape)
        F = np.concatenate([V, g_mu], axis=2)
        _check(linalg.rank(M) == M.shape[-1], tangent, linalg.rank(F) == self.n)
        return h_inv, coad, M, F, lifts

    def lift_frames(self, ts, fibers) -> tuple[np.ndarray, np.ndarray]:
        """``lifts`` and the chart-fiber frames F at the rows of ``ts`` and ``fibers``
        (one Ad matrix, or one per row), each its kernel's bit for bit, from the
        chart's lift block alone (no kernel is built), raising as ``kernels`` there."""
        fibers = np.broadcast_to(fibers, (len(ts), self.n, self.n))
        *_, F, lifts = self._lift_rows(*self.chart.lift_data(ts), fibers)
        return lifts, F

    # -- lifting ---------------------------------------------------------

    def lift(self, K: PointKernel, v) -> np.ndarray:
        """Unique horizontal vector projecting onto the orbit tangent v, or the
        lifts of a stack of tangents (rows), all by one solve; at each row of the
        kernels K, of a stack of them per row."""
        vs = np.reshape(v, (len(K.M), -1, self.n)).swapaxes(1, 2)  # (points, n, rows)
        return (self.ctx.w1 @ tangent_solve(K.M, vs)).swapaxes(1, 2).reshape(
            np.shape(v)[:-1] + (2 * self.n,))

    def form_table(self, us, vs) -> np.ndarray:
        """ω at μ on every pair of level-set vectors: entry [a, b] is ω(us[a], vs[b]),
        or that table for each (us, vs) of stacks alike."""
        return np.asarray(us) @ self.ctx.omega_mu @ np.swapaxes(vs, -1, -2)

    # -- derivatives along the level set ----------------------------------

    def _params(self, frames, us) -> np.ndarray:
        """Chart-fiber parameter velocities of the level-set directions ``us``
        (…, 2n) in the chart-fiber frames ``frames`` (…, n, n), stacked alike, one
        solve per direction, so that a direction's velocity never depends on the others."""
        us = np.atleast_2d(np.asarray(us, dtype=float))
        if np.any(np.linalg.norm(us[..., self.n:], axis=-1)
                  > 1e-8 * np.maximum(1.0, np.linalg.norm(us, axis=-1))):
            raise PointOffConstraint("direction is not tangent to the level set")
        return np.linalg.solve(frames, us[..., : self.n, None])[..., 0]

    def lift_derivatives(self, K: PointKernel, us) -> np.ndarray:
        """Exact derivatives of ``lifts`` (km × 2n each) along the level-set
        directions ``us`` (rows, shared or one stack per row of the kernels K) at
        each row of K: the jet contracted with their velocities."""
        return _along(K.jet, self._params(K.F[:, None], us))

    def _stencil_points(self, t, fiber: np.ndarray, us, step,
                        frames) -> tuple[np.ndarray, np.ndarray]:
        """The points (t + s·dt, fiber·exp(s·ad(g_μ·dy))) whose values ``_central``
        differences: for the velocity (dt, dy) of each direction in ``us`` (rows)
        in turn, s = ±step, with ``t``, ``fiber`` (an Ad matrix) and ``step`` shared
        or one per row (several stencils in one pass), in the chart-fiber frames
        ``frames`` at t and fiber."""
        km = self.chart.dim
        params = self._params(frames, us)
        signed = np.multiply.outer(np.broadcast_to(step, len(params)), (1.0, -1.0))
        ts = (np.reshape(t, (-1, 1, km)) + signed[..., None] * params[:, None, :km]).reshape(-1, km)
        ad_y = self.ctx.algebra.ad(linalg.matvec(self.ctx.split.g_mu, params[:, km:]))
        shifts = linalg.expm(signed[..., None, None] * ad_y[:, None], batch_ndim=1)
        return ts, (np.reshape(fiber, (-1, 1, self.n, self.n)) @ shifts).reshape(-1, self.n, self.n)

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


def _check(*flags) -> None:
    """Raise at the first row that fails a check, for its first failed check in
    this order: M's full column rank, tangency, F's full rank (each flag stacked
    over the rows)."""
    for lift, tangency, frame in zip(*flags):
        if not lift:
            raise SingularProjection("quotient differential singular on the horizontal space")
        if not tangency:
            raise NotTangent("a chart direction is not an orbit tangent at the point")
        if not frame:
            raise RankLoss("chart-fiber frame lost rank; point outside the chart radius")


def _central(values: np.ndarray, step) -> np.ndarray:
    """Central differences (v₊ − v₋)/(2·step) of ``values``, whose rows come in
    ± pairs as ``_stencil_points`` lays them out, with ``step`` shared or one per pair."""
    v = values.reshape((-1, 2) + values.shape[1:])
    return (v[:, 0] - v[:, 1]) / (2.0 * np.reshape(step, (-1,) + (1,) * (v.ndim - 2)))


def _along(jet: np.ndarray, params: np.ndarray) -> np.ndarray:
    """Derivatives of ``lifts`` along the parameter velocities ``params`` (rows,
    [..., r, c]): Σ_c params[..., r, c] · jet[..., c, :, :], one product per row."""
    flat = jet.reshape(jet.shape[:-2] + (-1,)).swapaxes(-1, -2)
    return linalg.matvec(flat[..., None, :, :], params).reshape(params.shape[:-1] + jet.shape[-2:])


# --- public operations --------------------------------------------------------


def reduced_form(geom: SigmaGeometry, v, w, t) -> float:
    """Reduced symplectic form: ω on the horizontal lifts of two orbit tangents
    at t on the geometry's chart, at the identity fiber."""
    vb, wb = geom.lift(geom.kernels(t, geom.identity), [v, w])
    return symplectic_form(geom.ctx.algebra, geom.ctx.mu, vb, wb)


def gram_oracle_solve(geom: SigmaGeometry, D: np.ndarray, lifts: np.ndarray,
                      G: np.ndarray) -> np.ndarray:
    """Orbit tangents (rows) whose lifts pair with the lifted chart directions,
    the rows of ``lifts``, as the level-set vectors G (rows) do; or those of
    each (D, lifts, G) of stacks alike, by one stacked solve."""
    coords = np.linalg.solve(geom.form_table(lifts, lifts).swapaxes(-1, -2),
                             geom.form_table(G, lifts).swapaxes(-1, -2))
    return (D @ coords).swapaxes(-1, -2)


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


def _random_stable_complement(ctx: ReductionContext, rng: np.random.Generator) -> np.ndarray | None:
    a = ctx.algebra
    for _ in range(50):
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
                       rng: np.random.Generator) -> AutoparallelReport:
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
    autoparallel = defect <= 1e-10
    if not autoparallel or geom is None:
        return AutoparallelReport(defect, 0.0 if autoparallel else None)

    cand = _random_stable_complement(ctx, rng)
    if cand is None:
        return AutoparallelReport(defect, None)
    chart = geom.chart
    other = build_context(a, ctx.mu, s_tilde=cand, gamma_mu=ctx.gamma_mu, split=ctx.split)
    geom_b = SigmaGeometry(other, chart)
    ts = [rng.uniform(-0.3, 0.3, size=chart.dim) for _ in range(3)]
    diff = np.abs(geom.kernels(ts, geom.identity).cov - geom_b.kernels(ts, geom_b.identity).cov)
    return AutoparallelReport(defect, float(np.max(diff)))
