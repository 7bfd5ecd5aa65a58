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
by step halving.  ``curvature_battery`` runs every curvature check on one
geometry, its kernels in two batches and each route once over its jobs.
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
PROBE_STEP = 4e-3  # the probe's coarse step


def _jobs(geom: SigmaGeometry, t, fd_step2, directions) -> list:
    """A call's jobs (t, step, directions).  One chart point t is one job; a stack
    (rows) takes ``fd_step2`` and ``directions`` (each None or a sequence) one per row."""
    if np.ndim(t) < 2:
        t, fd_step2, directions = [t], [fd_step2], [directions]
    return [(np.asarray(tq, float), float(h), list(range(geom.chart.dim) if d is None else d))
            for tq, h, d in zip(t, fd_step2, directions)]


def _stencil_args(geom: SigmaGeometry, jobs) -> tuple:
    """The formula's stencils of the jobs as the arguments (t, fiber, us, step) of
    ``_stencil``: rows of each job's t, lift f̄_x and step, per distinct x of its directions."""
    ts, us, steps = map(np.array, zip(*[(t, u, h) for t, h, d in jobs for u in
                                        geom.lifts(t, geom.identity)[list(dict.fromkeys(d))]]))
    return ts, geom.identity, us, steps


def curvature_formula(geom: SigmaGeometry, t, *, fd_step2: float = DEFAULT_FD_STEP2,
                      directions=None):
    """Reduced curvature of the coordinate fields by the lift expansion, as orbit
    tangents in the layout of ``curvature_tensor``: entry [a, b, l] is
    R(f_i, f_j)f_l at t for i = directions[a], j = directions[b] (all chart
    directions by default), and entries with i = j are zero.  On a stack of
    jobs (``_jobs``), the list of the jobs' arrays.

    The level-set derivatives ∇_f̄_j f̄_l and their radical parts come from
    the level-set tables of ``cov_table``, differenced along f̄_x on one
    fd_step2 stencil per direction x, every job's built in one batch; the
    bracket [f̄_i, f̄_j] reads the exact derivatives of ``lifts`` the table at
    t is built from, and the derivatives along it and its radical part are
    exact too, each contracted with its own job's jet.
    """
    ctx, e, km = geom.ctx, geom.identity, geom.chart.dim
    jobs = _jobs(geom, t, fd_step2, directions)

    def grads(t2, fib):  # [j, l, 0] = ∇_f̄_j f̄_l and [j, l, 1] = [α(∇_f̄_j f̄_l)]*
        level = geom.cov_table(t2, fib)[0]
        return np.stack([level, ctx.alpha_star(level)], axis=2)

    d_grads = geom._stencil(*_stencil_args(geom, jobs), grads)
    out = []
    for tq, _, d in jobs:
        xs, u = list(dict.fromkeys(d)), geom.lifts(tq, e)
        # inner[x, l]: derivative of f̄_l along f̄_x, from which the table at tq is built
        inner = geom.point(tq, e).derivs
        # outer[xs.index(x), j, l, s]: induced derivative of grads(tq, e)[j, l, s] along f̄_x
        outer = geom._induced(u[xs], grads(tq, e)[None], d_grads[: len(xs)])
        d_grads = d_grads[len(xs):]
        # the entries [a, b] with i = d[a] ≠ j = d[b], each step stacked over them
        A, B = np.nonzero(np.not_equal.outer(d, d))
        rows = np.array([xs.index(x) for x in d])  # each direction's row of outer
        I, J, oi, oj = np.array(d, dtype=int)[A], np.array(d, dtype=int)[B], rows[A], rows[B]
        bracket = inner[I, J] - inner[J, I] + np.einsum("abc,pa,pb->pc", geom.struct, u[I], u[J])
        along = np.concatenate([bracket, ctx.alpha_star(bracket)])  # P∘∇ along each of f̄_l
        term3, t5 = np.split(geom._induced(along, u[None], geom.lift_derivatives(tq, e, along)), 2)
        r_amb = (outer[oi, J, :, 0] - outer[oj, I, :, 0]) - term3
        r_bar = ctx.horizontal_part(r_amb - outer[oi, J, :, 1] + outer[oj, I, :, 1] + t5)
        out.append(np.zeros((len(d), len(d), km, geom.n)))
        out[-1][A, B] = geom.pushdown(tq, e, r_bar)
    return out if np.ndim(t) == 2 else out[0]


def curvature_tensor(geom: SigmaGeometry, t, *, fd_step2: float = DEFAULT_FD_STEP2,
                     directions=None):
    """Reduced curvature of the coordinate fields as orbit tangents: entry
    [a, b, l] is R(f_i, f_j)f_l at t for i = directions[a], j = directions[b]
    (all chart directions by default), from the exact Γ at t and at
    t ± fd_step2·eₓ for x in ``directions``, their tables built in one batch.
    On a stack of jobs (``_jobs``), the list of the jobs' arrays."""
    out = _tensor(geom, _jobs(geom, t, fd_step2, directions), {})
    return out if np.ndim(t) == 2 else out[0]


def _tensor(geom: SigmaGeometry, jobs, gammas: dict) -> list:
    """``curvature_tensor`` on the jobs, each point's Γ[j, l, b], chart component b
    of ∇ʳ(f_j) f_l (NotTangent if not an orbit tangent), solved once into ``gammas``."""
    e, km = geom.identity, geom.chart.dim
    around = [_tensor_points(t, h, dict.fromkeys(d)) for t, h, d in jobs]
    geom.points([t for t, _, _ in jobs] + [p for points in around for p in points], e)

    def gamma(t):
        if t.tobytes() not in gammas:
            cov = geom.cov_table(t, e)[1].reshape(-1, geom.n).T
            gammas[t.tobytes()] = tangent_solve(geom.point(t, e).D, cov).T.reshape(km, km, km)
        return gammas[t.tobytes()]

    out = []
    for (t, h, d), points in zip(jobs, around):
        g = gamma(t)[d]  # g[a, l, c] = Γ^c_il for i = d[a]
        d_gamma = {x: (gamma(plus) - gamma(minus)) / (2.0 * h)
                   for x, plus, minus in zip(dict.fromkeys(d), points[::2], points[1::2])}
        dg = np.array([d_gamma[x][d] for x in d])  # dg[a, b, l, c] = ∂_i Γ^c_jl, j = d[b]
        quad = np.einsum("blm,amc->ablc", g, g)  # Γ^m_jl Γ^c_im
        r_chart = dg + quad - (dg + quad).transpose(1, 0, 2, 3)
        out.append(r_chart @ geom.point(t, e).D.T)
    return out


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
    I, J = np.triu_indices(km, 1)
    norms = np.linalg.norm(tensor[I, J], axis=-1).ravel()  # entry p·km + l: (I[p], J[p], l)
    p, l = divmod(int(np.argmax(norms >= norms.max() * (1.0 - PROBE_TIE_RTOL))), km)
    return int(I[p]), int(J[p]), l


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
    The kernels come in two batches: the points with the tensor's t ± h·eₓ,
    then every formula stencil with the probe's tensor points (``_probe``).
    """
    km, e = geom.chart.dim, geom.identity
    ts = np.array(t_points, dtype=float).reshape(-1, km)
    jobs = [(t, DEFAULT_FD_STEP2, list(range(km))) for t in ts]
    gammas: dict = {}
    tensor = np.array(_tensor(geom, jobs, gammas))  # the first batch: its points and t ± h·eₓ
    convergence, R = _probe(geom, ts[0], PROBE_STEP, _probe_inputs(tensor[0]), gammas, jobs)
    I, J = np.triu_indices(km, 1)
    val, orc = R[:, I, J], tensor[:, I, J]  # [point, pair, l]
    gap, size = (np.sqrt(linalg.vecdot(x, x)) for x in (val - orc, orc))  # as np.linalg.norm
    disc = gap / np.maximum(1.0, size)
    t_, ij = ts.tolist(), [*zip(I.tolist(), J.tolist())]
    v, o, d = (x.tolist() for x in (val, orc, disc))
    samples = [{"t": t_[p], "inputs": [*ij[q], l], "value": v[p][q][l], "oracle": o[p][q][l],
                "discrepancy": d[p][q][l]} for p, q, l in np.ndindex(disc.shape)]
    off = ~np.eye(km, dtype=bool)  # the entries with i ≠ j

    def largest(x):  # per point: the largest |x[i, j, l]| with i ≠ j
        return np.linalg.norm(x, axis=-1)[:, off].max(axis=(1, 2))

    scale = np.maximum(1.0, largest(R))
    swapped = R + R.transpose(0, 2, 1, 3, 4)  # R[i, j, l] + R[j, i, l]
    cyclic = R + R.transpose(0, 3, 1, 2, 4) + R.transpose(0, 2, 3, 1, 4)  # R[j, l, i], R[l, i, j]
    sp = 0.0
    for t, tensor_t, scale_t in zip(ts, tensor, scale):
        # form[p, l, w] = ω(R(f_i, f_j)f_l, f_w) for (i, j) = (I[p], J[p]), one lift for all
        rows = geom.lift(t, e, tensor_t[I, J].reshape(-1, geom.n))
        form = geom.form_table(rows, geom.lifts(t, e)).reshape(len(I), km, km)
        sp = max(sp, float(np.max(np.abs(form - form.transpose(0, 2, 1)))) / scale_t)
    return {"samples": samples, "max_discrepancy": float(disc.max(initial=0.0)),
            "symmetry": {"antisymmetry_defect": float(np.max(largest(swapped) / scale)),
                         "symplectic_defect": float(sp),
                         "bianchi_defect": float(np.max(largest(cyclic) / scale)),
                         "points": len(ts)},
            "convergence": convergence}


def convergence_factor(geom: SigmaGeometry, t, *, coarse: float = PROBE_STEP,
                       inputs=(0, 1, 1)) -> dict:
    """Step-halving convergence of the finite-difference curvature routes on
    the value R(f_i, f_j)f_l for (i, j, l) = ``inputs``: each route's error
    against ``curvature_exact`` at a coarse step and at half that step, whose
    ratio should sit near four (central differences are second order).  The
    steps sit well above the default, where truncation dominates roundoff.  The
    tables at the displaced points of both steps are built in one batch.  The
    factor is null where the fine error is 0.
    """
    return _probe(geom, np.asarray(t, dtype=float), coarse, inputs, {}, [])[0]


def _probe(geom: SigmaGeometry, t, coarse: float, inputs, gammas: dict, jobs: list) -> tuple:
    """``convergence_factor``'s report at t, and the formula's arrays R[job, i, j, l]
    of ``jobs`` (``_jobs``), all from one formula call beside the probe's two
    jobs: their stencils and the probe's tensor points are built in one batch."""
    i, j, l = inputs
    probe = [(t, coarse, [i, j]), (t, coarse / 2.0, [i, j])]
    points, fibers = geom._stencil_points(*_stencil_args(geom, jobs + probe))
    tensor_points = [p for _, h, d in probe for p in _tensor_points(t, h, d)]
    geom.points(np.concatenate([points, tensor_points]),
                np.concatenate([fibers, [geom.identity] * len(tensor_points)]))
    ts, steps, dirs = zip(*(jobs + probe))
    *R, coarse_r, fine_r = curvature_formula(geom, np.array(ts), fd_step2=steps, directions=dirs)
    exact = curvature_exact(geom, t)[i, j, l]
    (formula_coarse, formula_fine), (oracle_coarse, oracle_fine) = (
        [float(np.linalg.norm(r[0, 1, l] - exact)) for r in route]
        for route in ((coarse_r, fine_r), _tensor(geom, probe, gammas)))
    return {"inputs": [i, j, l], "step_coarse": coarse, "step_fine": coarse / 2.0,
            "oracle_error_coarse": oracle_coarse, "oracle_error_fine": oracle_fine,
            "formula_error_coarse": formula_coarse, "formula_error_fine": formula_fine,
            "factor": oracle_coarse / oracle_fine if oracle_fine > 0 else None}, np.array(R)
