"""Curvature of the reduced connection, two ways, plus the symmetry battery.

The explicit route expands the curvature through horizontal lifts: the
curvature of the induced connection on the level set applied to lifts,
corrected by the principal-connection terms,

    R_red(X, Y)Z‾ = R(X̄, Ȳ)Z̄ - [α(R(X̄, Ȳ)Z̄)]*
                    - ∇_X̄ [α(∇_Ȳ Z̄)]* + [α(∇_X̄ [α(∇_Ȳ Z̄)]*)]*
                    + ∇_Ȳ [α(∇_X̄ Z̄)]* - [α(∇_Ȳ [α(∇_X̄ Z̄)]*)]*
                    + ∇_[X̄,Ȳ]* Z̄ terms with the bracket's radical part,

all pushed down through the quotient map.  The tensor route differences the
chart Christoffel symbols Γ^b_jl (chart components of ∇ʳ(f_j) f_l, read from
``SigmaGeometry.cov_table``) of the commuting coordinate fields,

    R^b_ijl = ∂_iΓ^b_jl - ∂_jΓ^b_il + Γ^a_jl Γ^b_ia - Γ^a_il Γ^b_ja,

sharing nothing with the formula beyond the level-set derivatives of the
lifted coordinate fields f̄_i (the rows of ``SigmaGeometry.lifts``), which
both routes read from one ``SigmaGeometry.cov_table`` per point.  Every first
derivative along the level set is exact (the jet of ``lifts``), so each route
keeps one finite-difference level, at fd_step2: the formula differences the
tables' level-set values along f̄_x, the tensor their pushdowns along eₓ.
Both return the same [i, j, l] array of orbit tangents as ``curvature_exact``,
Nomizu's operators at μ moved to t by Coad, which needs no stencil; the FD
error, quadratic in fd_step2, is what the convergence probe measures against it
by step halving.  ``curvature_battery`` runs every curvature check on one geometry.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .orbits import tangent_solve
from .reduction import SigmaGeometry

DEFAULT_FD_STEP2 = 1e-4
# Tensor norms this close (relatively) to the largest tie for the probe: far
# above the tensor's truncation error (about fd_step2² ≈ 1e-8 relative) and its
# roundoff (about ε/fd_step2 ≈ 2e-12).
PROBE_TIE_RTOL = 1e-6


def curvature_formula(geom: SigmaGeometry, t, *, fd_step2: float = DEFAULT_FD_STEP2,
                      directions=None) -> np.ndarray:
    """Reduced curvature of the coordinate fields by the lift expansion, as orbit
    tangents in the layout of ``curvature_tensor``: entry [a, b, l] is
    R(f_i, f_j)f_l at t for i = directions[a], j = directions[b] (all chart
    directions by default), and entries with i = j are zero.

    The level-set derivatives ∇_f̄_j f̄_l and their radical parts come from
    the level-set tables of ``cov_table``, differenced along f̄_x on one
    fd_step2 stencil per direction x, all built in one batch; the bracket
    [f̄_i, f̄_j] reads the exact derivatives of ``lifts`` the table at t is
    built from, and the derivatives along it and its radical part are exact
    too.
    """
    ctx, e, km = geom.ctx, geom.identity, geom.chart.dim
    t = np.asarray(t, dtype=float)
    dirs = list(range(km)) if directions is None else list(directions)
    u = geom.lifts(t, e)

    def grads(t2, fib):  # [j, l, 0] = ∇_f̄_j f̄_l and [j, l, 1] = [α(∇_f̄_j f̄_l)]*
        level = geom.cov_table(t2, fib)[0]
        return np.stack([level, ctx.alpha_star(level)], axis=2)

    xs = list(dict.fromkeys(dirs))
    d_grads = geom._stencil(t, e, u[xs], fd_step2, grads)
    # inner[x, l]: derivative of f̄_l along f̄_x, from which the table at t is built
    inner = geom.point(t, e).derivs
    # outer[xs.index(x), j, l, s]: induced derivative of grads(t, e)[j, l, s] along f̄_x
    outer = geom._induced(u[xs], grads(t, e)[None], d_grads)
    # the entries [a, b] with i = dirs[a] ≠ j = dirs[b], each step stacked over them
    A, B = np.nonzero(np.not_equal.outer(dirs, dirs))
    rows = np.array([xs.index(x) for x in dirs])  # each direction's row of outer
    I, J, oi, oj = np.array(dirs)[A], np.array(dirs)[B], rows[A], rows[B]
    bracket = np.array([inner[i, j] - inner[j, i]
                        + np.einsum("abc,a,b->c", geom.struct, u[i], u[j])
                        for i, j in zip(I, J)]).reshape(-1, 2 * geom.n)
    along = np.concatenate([bracket, ctx.alpha_star(bracket)])  # P∘∇ along each of f̄_l at t
    term3, t5 = np.split(geom._induced(along, u[None], geom.lift_derivatives(t, e, along)), 2)
    r_amb = (outer[oi, J, :, 0] - outer[oj, I, :, 0]) - term3
    r_bar = ctx.horizontal_part(r_amb - outer[oi, J, :, 1] + outer[oj, I, :, 1] + t5)
    out = np.zeros((len(dirs), len(dirs), km, geom.n))
    out[A, B] = geom.pushdown(t, e, r_bar)
    return out


def _christoffel(geom: SigmaGeometry, t) -> np.ndarray:
    """Γ[j, l, b]: chart component b of ∇ʳ(f_j) f_l at the section point t.

    Raises:
        NotTangent: a reduced derivative is not an orbit tangent at t.
    """
    e, km = geom.identity, geom.chart.dim
    D = geom.point(t, e).D
    cov = geom.cov_table(t, e)[1].reshape(-1, D.shape[0])
    return tangent_solve(D, cov.T).T.reshape(km, km, km)


def curvature_tensor(geom: SigmaGeometry, t, *, fd_step2: float = DEFAULT_FD_STEP2,
                     directions=None) -> np.ndarray:
    """Reduced curvature of the coordinate fields as orbit tangents: entry
    [a, b, l] is R(f_i, f_j)f_l at t for i = directions[a], j = directions[b]
    (all chart directions by default), from the exact Γ at t and at
    t ± fd_step2·eₓ for x in ``directions``, their tables built in one batch."""
    t = np.asarray(t, dtype=float)
    km = geom.chart.dim
    dirs = list(range(km)) if directions is None else list(directions)
    xs = list(dict.fromkeys(dirs))
    steps = _tensor_points(t, fd_step2, xs)
    geom.points([t] + steps, geom.identity)
    gamma = _christoffel(geom, t)
    d_gamma = {x: (_christoffel(geom, plus) - _christoffel(geom, minus)) / (2.0 * fd_step2)
               for x, plus, minus in zip(xs, steps[::2], steps[1::2])}
    # d[a, b, l, c] = ∂_i Γ^c_jl and g[a, l, c] = Γ^c_il, for i = dirs[a], j = dirs[b]
    d = np.array([d_gamma[x][dirs] for x in dirs])
    g = gamma[dirs]
    quad = np.einsum("blm,amc->ablc", g, g)  # Γ^m_jl Γ^c_im
    r_chart = d + quad - (d + quad).transpose(1, 0, 2, 3)
    return r_chart @ geom.point(t, geom.identity).D.T


def curvature_exact(geom: SigmaGeometry, t) -> np.ndarray:
    """Reduced curvature of the coordinate fields at t, in the layout of
    ``curvature_tensor``, with no finite difference.

    The reduced connection is G-invariant, so (Nomizu, Amer. J. Math. 76, 1954)
    R(X♯, Y♯) = [N_X, N_Y] − N_[X,Y] at μ for N_X = ∇X♯, X♯(ν) = −ad(X)ᵀν.
    N_X f_c is the pushdown of P∘∇ along f̄_c = H(E_c, 0) of X♯'s horizontal
    lift g ↦ H(Ad(g)⁻¹X, 0), whose derivative there is H(−[f̄_c, X], 0); N is
    linear in X.  At t, R_t[i, j, l] = C·D(0)·Σ B_ai B_bj B_cl R_μ[a, b, c] with
    C = Coad(exp A) and B = D(0)⁺·C⁻¹·D(t).
    """
    ctx, c, n, m, H = geom.ctx, geom.ctx.algebra.c, geom.n, geom.chart.m_basis, geom.horizontal_T
    u = m.T @ H  # row c: f̄_c at μ
    level = geom._induced(u, H[None], -np.einsum("ci,ikx->ckx", u[:, :n], c) @ H)
    D0 = -geom.K_T @ m
    push = -ctx.horizontal_part(level)[..., :n] @ geom.K_T.T  # [c, k]: N_{e_k} f_c
    N = tangent_solve(D0, push.reshape(-1, n).T).reshape(-1, m.shape[1], n).transpose(2, 0, 1)
    NE = np.einsum("ki,krc->irc", m, N)  # N_{E_i} in chart coordinates, [i, row, column]
    NB = linalg.einsum("abx,ai,bj,xrc->ijrc", c, m, m, N)  # N_[E_i, E_j]
    r_mu = (NE[:, None] @ NE[None] - NE[None] @ NE[:, None] - NB).swapaxes(-1, -2)  # [a, b, c, r]
    p = geom.point(np.asarray(t, dtype=float), geom.identity)
    B, *_ = np.linalg.lstsq(D0, np.linalg.solve(p.coad, p.D), rcond=None)
    return linalg.einsum("ai,bj,cl,abcr->ijlr", B, B, B, r_mu) @ (p.coad @ D0).T


def _tensor_points(t: np.ndarray, fd_step2: float, xs) -> list:
    """t + fd_step2·eₓ, then t − fd_step2·eₓ, for each x in ``xs``."""
    return [t + sign * fd_step2 * np.eye(len(t))[x] for x in xs for sign in (1.0, -1.0)]


def _probe_inputs(tensor: np.ndarray) -> tuple[int, int, int]:
    """The first triple i < j (in lexicographic order) whose tensor value's norm
    is within a relative ``PROBE_TIE_RTOL`` of the largest, so that norms equal
    by symmetry pick the same triple whatever their roundoff."""
    km = tensor.shape[0]
    triples = [(i, j, l) for i in range(km) for j in range(i + 1, km) for l in range(km)]
    norms = [float(np.linalg.norm(tensor[ijl])) for ijl in triples]
    top = max(norms)
    return next(ijl for ijl, v in zip(triples, norms) if v >= top * (1.0 - PROBE_TIE_RTOL))


def curvature_battery(geom: SigmaGeometry, t_points) -> dict:
    """Both curvature routes on coordinate-field triples, the symmetry defects
    and the step-halving probe at t_points[0], all on one geometry.

    At each chart point ``curvature_formula`` and ``curvature_tensor`` each give
    the array R[i, j, l] = R(f_i, f_j)f_l; the samples pair the two for i < j.
    The maxima reported are (a) the antisymmetry defect in the first two slots
    and (c) the first Bianchi cyclic sum, which vanishes for torsion-free
    connections, both over the formula's entries with i ≠ j (the tensor
    satisfies them by construction), and
    (b) the symplectic-valuedness defect ω(R(X,Y)Z, W) - ω(R(X,Y)W, Z) of the
    tensor, which vanishes exactly when the reduced form is parallel.  The
    probe runs on the triple i < j whose tensor value at t_points[0] is largest
    (``_probe_inputs``), so that it measures a component that does not vanish.
    """
    km = geom.chart.dim
    e = geom.identity
    t_points = [np.asarray(t, dtype=float) for t in t_points]
    off = ~np.eye(km, dtype=bool)  # the entries with i ≠ j
    pairs = [(i, j) for i in range(km) for j in range(i + 1, km)]
    samples = []
    anti = sp = bianchi = 0.0
    probe_inputs = None
    for t in t_points:
        R = curvature_formula(geom, t)
        scale = max(1.0, float(np.max(np.linalg.norm(R, axis=-1)[off])))
        tensor = curvature_tensor(geom, t)
        if probe_inputs is None:
            probe_inputs = _probe_inputs(tensor)
        for i, j in pairs:
            for l in range(km):
                val, orc = R[i, j, l], tensor[i, j, l]
                samples.append({
                    "t": t.tolist(), "inputs": [i, j, l],
                    "value": val.tolist(), "oracle": orc.tolist(),
                    "discrepancy": float(np.linalg.norm(val - orc)
                                         / max(1.0, float(np.linalg.norm(orc)))),
                })
        # form[p, l, w] = ω(R(f_i, f_j)f_l, f_w) for (i, j) = pairs[p], one lift for all
        rows = geom.lift(t, e, np.concatenate([tensor[i, j] for i, j in pairs]))
        form = geom.form_table(rows, geom.lifts(t, e)).reshape(len(pairs), km, km)
        sp = max(sp, float(np.max(np.abs(form - form.transpose(0, 2, 1)))) / scale)
        swapped = R + R.transpose(1, 0, 2, 3)  # R[i, j, l] + R[j, i, l]
        cyclic = R + R.transpose(2, 0, 1, 3) + R.transpose(1, 2, 0, 3)  # + R[j, l, i] + R[l, i, j]
        anti = max(anti, float(np.max(np.linalg.norm(swapped, axis=-1)[off])) / scale)
        bianchi = max(bianchi, float(np.max(np.linalg.norm(cyclic, axis=-1)[off])) / scale)
    return {
        "samples": samples,
        "max_discrepancy": max((s["discrepancy"] for s in samples), default=0.0),
        "symmetry": {"antisymmetry_defect": anti, "symplectic_defect": sp,
                     "bianchi_defect": bianchi, "points": len(t_points)},
        "convergence": convergence_factor(geom, t_points[0], inputs=probe_inputs),
    }


def convergence_factor(geom: SigmaGeometry, t, *, coarse: float = 4e-3,
                       inputs=(0, 1, 1)) -> dict:
    """Step-halving convergence of the finite-difference curvature routes on
    the value R(f_i, f_j)f_l for (i, j, l) = ``inputs``: each route's error
    against ``curvature_exact`` at a coarse step and at half that step, whose
    ratio should sit near four (central differences are second order).  The
    steps sit well above the default, where truncation dominates roundoff.  The
    tables at the displaced points of both steps are built in one batch.
    """
    i, j, l = inputs
    t = np.asarray(t, dtype=float)
    e = geom.identity
    u = geom.lifts(t, e)[[i, j]]
    stencils = [geom._stencil_points(t, e, u, h) for h in (coarse, coarse / 2.0)]
    tensor = [p for h in (coarse, coarse / 2.0) for p in _tensor_points(t, h, (i, j))]
    geom.points(np.concatenate([ts for ts, _ in stencils] + [tensor]),
                np.concatenate([fibers for _, fibers in stencils] + [[e] * len(tensor)]))
    exact = curvature_exact(geom, t)[i, j, l]

    def errors(h: float) -> tuple[float, float]:
        val = curvature_formula(geom, t, fd_step2=h, directions=(i, j))[0, 1, l]
        orc = curvature_tensor(geom, t, fd_step2=h, directions=(i, j))[0, 1, l]
        return float(np.linalg.norm(orc - exact)), float(np.linalg.norm(val - exact))

    oracle_coarse, formula_coarse = errors(coarse)
    oracle_fine, formula_fine = errors(coarse / 2.0)
    factor = oracle_coarse / oracle_fine if oracle_fine > 0 else np.inf
    return {"inputs": [i, j, l], "step_coarse": coarse, "step_fine": coarse / 2.0,
            "oracle_error_coarse": oracle_coarse, "oracle_error_fine": oracle_fine,
            "formula_error_coarse": formula_coarse, "formula_error_fine": formula_fine,
            "factor": float(factor)}
