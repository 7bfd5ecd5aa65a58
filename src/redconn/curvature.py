"""Curvature of the reduced connection, two ways, plus the symmetry battery.

The explicit route expands the curvature through horizontal lifts: the
curvature of the induced connection on the level set applied to lifts,
corrected by the principal-connection terms,

    R_red(X, Y)Z‾ = R(X̄, Ȳ)Z̄ - [α(R(X̄, Ȳ)Z̄)]*
                    - ∇_X̄ [α(∇_Ȳ Z̄)]* + [α(∇_X̄ [α(∇_Ȳ Z̄)]*)]*
                    + ∇_Ȳ [α(∇_X̄ Z̄)]* - [α(∇_Ȳ [α(∇_X̄ Z̄)]*)]*
                    + ∇_[X̄,Ȳ]* Z̄ terms with the bracket's radical part,

all pushed down through the quotient map.  The tensor route differences the
chart Christoffel symbols Γ^b_jl (chart components of ∇ʳ(f_j) f_l, the
``cov`` table of a ``PointKernel``) of the commuting coordinate fields,

    R^b_ijl = ∂_iΓ^b_jl - ∂_jΓ^b_il + Γ^a_jl Γ^b_ia - Γ^a_il Γ^b_ja,

sharing nothing with the formula beyond the level-set derivatives of the
lifted coordinate fields f̄_i (the rows of ``PointKernel.lifts``), which
both routes read from one kernel per point (``SigmaGeometry.kernels``).  Every first
derivative along the level set is exact (the jet of ``lifts``), so each route
keeps one finite-difference level, at fd_step2: the formula differences the
tables' level-set values along f̄_x, the tensor their pushdowns along eₓ.
Both return the same [i, j, l] array of orbit tangents as ``curvature_exact``,
Nomizu's operators at μ moved to t by Coad, which needs no stencil; the FD
error, quadratic in fd_step2, is what the convergence probe measures against it
by step halving.  ``curvature_battery`` runs every curvature check on one
geometry and the kernels at its points (the chart sweep's, in the pipeline):
the displaced kernels in one batch (laid out by ``_routes`` alone), each kind
of per-point solve stacked over every point, and each route once over its jobs.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .orbits import tangent_solve
from .reduction import SigmaGeometry, _along, _central

DEFAULT_FD_STEP2 = 1e-4
# Norms this close (relatively) to the largest tie for the probe: far above
# the FD tensor's truncation error (about fd_step2² ≈ 1e-8 relative) and its
# roundoff (about ε/fd_step2 ≈ 2e-12), so the exact value picks the tensor's triple.
PROBE_TIE_RTOL = 1e-6
PROBE_STEP = 4e-3  # the probe's coarse step


def _stencils(geom: SigmaGeometry, jobs, p) -> tuple:
    """The formula's stencil points (ts, fibers), with each stencil's step, job q
    and direction x (one per job and distinct x of its directions): job q's
    t ± step along f̄_x, from the lifts and frames of the kernels p at the jobs'
    points, so that they are known before the batch is built."""
    q, x = np.array([(q, x) for q, (_, _, d) in enumerate(jobs) for x in dict.fromkeys(d)],
                    dtype=int).reshape(-1, 2).T
    t, steps = (np.array(v)[q] for v in list(zip(*jobs))[:2])
    return (*geom._stencil_points(t, geom.identity, p.lifts[q, x], steps, p.F[q]), steps, q, x)


def curvature_routes(geom: SigmaGeometry, t, *, fd_step2: float = DEFAULT_FD_STEP2,
                     directions=None) -> tuple:
    """Reduced curvature of the coordinate fields at t by both finite-difference
    routes, (formula, tensor): entry [a, b, l] of each is R(f_i, f_j)f_l as an
    orbit tangent for i = directions[a], j = directions[b] (all chart
    directions by default), and entries with i = j are zero.  The formula is the
    lift expansion, the tensor the chart expression of the Christoffel symbols;
    they read the kernel at t and one batch of displaced kernels (``_routes``)."""
    d = range(geom.chart.dim) if directions is None else directions
    job = (np.asarray(t, float), float(fd_step2), list(d))
    (formula,), (tensor,) = _routes(geom, [job], geom.kernels(job[0], geom.identity))
    return formula, tensor


def _routes(geom: SigmaGeometry, jobs: list, p) -> tuple:
    """Both routes' arrays R[i, j, l] on the jobs (t, step, directions), one list
    each, from the kernels p at the jobs' points.  One batch holds the tensor's
    t ± h·eₓ and the formula's stencils (``_stencils``), each distinct (t, fiber)
    once: a stencil can land on a tensor point.  The tensor reads the ± points'
    kernels and p, the formula p and the stencils'."""
    ts, fibers, *stencils = _stencils(geom, jobs, p)
    points = np.array([t + sign * h * np.eye(len(t))[x] for t, h, d in jobs for x in
                       dict.fromkeys(d) for sign in (1.0, -1.0)]).reshape(-1, geom.chart.dim)
    ts, fibers = np.concatenate([points, ts]), np.concatenate(
        [np.broadcast_to(geom.identity, (len(points), geom.n, geom.n)), fibers])
    rows, first = linalg.distinct_rows((t.tobytes(), f.tobytes()) for t, f in zip(ts, fibers))
    K, rows = geom.kernels(ts[first], fibers[first]), np.array(rows)
    tensor, level = rows[: len(points)], K.level[rows[len(points):]]
    return (_formula(geom, jobs, stencils, p, np.concatenate([p.level, level])),
            _tensor(geom, jobs, np.concatenate([K.D[tensor], p.D]),
                    np.concatenate([K.cov[tensor], p.cov])))


def _formula(geom: SigmaGeometry, jobs, stencils, p, level) -> list:
    """The lift expansion's arrays on the jobs with their ``_stencils`` (steps,
    q, x), from the kernels p at the jobs' points and the level-set tables
    ``level`` at the jobs' points and then the stencils' points.

    The level-set derivatives ∇_f̄_j f̄_l and their radical parts come from
    the tables, differenced along f̄_x on one stencil per direction x; the
    bracket [f̄_i, f̄_j] reads the exact derivatives of ``lifts`` along each
    other (``lift_derivatives`` of p), and the derivatives along it and its
    radical part are exact too, each contracted with its own job's jet.  Each
    step is stacked over every entry [a, b] of every job."""
    ctx, km, n = geom.ctx, geom.chart.dim, geom.n
    steps, q, x = stencils
    # [point, j, l, 0] = ∇_f̄_j f̄_l and [point, j, l, 1] = [α(∇_f̄_j f̄_l)]*
    grads = np.stack([level, ctx.alpha_star(level)], axis=-2)
    d_grads = _central(grads[len(jobs):], steps)
    u, inner = p.lifts, geom.lift_derivatives(p, p.lifts)  # inner[job, x, l]: f̄_l along f̄_x
    # outer[r, j, l, s]: induced derivative of grads[q, j, l, s] along f̄_x for the row r = (q, x)
    outer = geom._induced(u[q, x], grads[q], d_grads)
    row = {qx: r for r, qx in enumerate(zip(q.tolist(), x.tolist()))}
    # each entry [a, b] of job k with i = d[a] ≠ j = d[b], and the rows of outer along f̄_i, f̄_j
    k, A, B, I, J, oi, oj = np.array(
        [(job, a, b, i, j, row[job, i], row[job, j]) for job, (_, _, d) in enumerate(jobs)
         for a, i in enumerate(d) for b, j in enumerate(d) if i != j], dtype=int).reshape(-1, 7).T
    # [f̄_i, f̄_j]: the struct term contracts struct with each lift once, then one matvec per pair
    su = linalg.matvec(geom.struct.reshape(2 * n, -1).T, u).reshape(u.shape + (2 * n,))
    bracket = inner[k, I, J] - inner[k, J, I] + linalg.matvec(su[k, I].swapaxes(-1, -2), u[k, J])
    along = np.stack([bracket, ctx.alpha_star(bracket)], axis=1)  # P∘∇ along each of f̄_l
    params = geom._params(p.F[k, None], along)
    d_along = np.concatenate([_along(p.jet[job], params[k == job]) for job in range(len(jobs))])
    term3, t5 = geom._induced(along, u[k, None], d_along).swapaxes(0, 1)
    r_amb = (outer[oi, J, :, 0] - outer[oj, I, :, 0]) - term3
    r_bar = ctx.horizontal_part(r_amb - outer[oi, J, :, 1] + outer[oj, I, :, 1] + t5)
    pushed = -linalg.matvec((p.coad @ geom.K_T)[k, None], r_bar[..., :n])  # ``pushdown``
    out = [np.zeros((len(d), len(d), km, n)) for _, _, d in jobs]
    for job, r in enumerate(out):
        r[A[k == job], B[k == job]] = pushed[k == job]
    return out


def _tensor(geom: SigmaGeometry, jobs, D, cov) -> list:
    """The chart expression's arrays on the jobs, from Γ[j, l, b], chart
    component b of ∇ʳ(f_j) f_l (NotTangent if not an orbit tangent), at each
    job's t ± h·eₓ (x in its distinct directions) and then the jobs' points,
    whose kernels' D and ``cov`` are D and cov, all by one stacked solve."""
    J = len(jobs)
    gamma = tangent_solve(D, cov.reshape(len(D), -1, geom.n).swapaxes(1, 2))
    gamma = gamma.swapaxes(1, 2).reshape((-1,) + (geom.chart.dim,) * 3)
    out = []
    for (t, h, d), g, plus_minus, D_t in zip(jobs, gamma[-J:], np.split(
            gamma[:-J], np.cumsum([2 * len(set(d)) for _, _, d in jobs])[:-1]), D[-J:]):
        d_gamma = dict(zip(dict.fromkeys(d), _central(plus_minus, h)))
        g = g[d]  # g[a, l, c] = Γ^c_il for i = d[a]
        dg = np.array([d_gamma[x][d] for x in d])  # dg[a, b, l, c] = ∂_i Γ^c_jl, j = d[b]
        quad = np.einsum("blm,amc->ablc", g, g)  # Γ^m_jl Γ^c_im
        r_chart = dg + quad - (dg + quad).transpose(1, 0, 2, 3)
        out.append(r_chart @ D_t.T)
    return out


def curvature_exact(geom: SigmaGeometry, t) -> np.ndarray:
    """Reduced curvature of the coordinate fields at t, in the layout of
    ``curvature_routes``, with no finite difference.

    The reduced connection is G-invariant, so (Nomizu, Amer. J. Math. 76, 1954)
    R(X♯, Y♯) = [N_X, N_Y] − N_[X,Y] at μ for N_X = ∇X♯, X♯(ν) = −ad(X)ᵀν.
    N_X f_c is the pushdown of P∘∇ along f̄_c = H(E_c, 0) of X♯'s horizontal
    lift g ↦ H(Ad(g)⁻¹X, 0), whose derivative there is H(−[f̄_c, X], 0); N is
    linear in X.  At t, R_t[i, j, l] = C·D(0)·Σ B_ai B_bj B_cl R_μ[a, b, c] with
    C = Coad(exp A) and B = D(0)⁺·C⁻¹·D(t).
    """
    # Coad and D at t from the chart's lift block, checked as t's kernel is (``_lift_rows``)
    coad_t, vecs, D = geom.chart.lift_data(t)
    return _exact(geom, geom._lift_rows(coad_t, vecs, D, geom.identity[None])[1][0], D[0])


def _exact(geom: SigmaGeometry, coad: np.ndarray, D: np.ndarray) -> np.ndarray:
    """``curvature_exact`` at the chart point whose Coad and chart differential are coad and D."""
    ctx, c, n, m, H = geom.ctx, geom.ctx.algebra.c, geom.n, geom.chart.m_basis, geom.horizontal_T
    u = m.T @ H  # row c: f̄_c at μ
    level = geom._induced(u, H[None], -np.einsum("ci,ikx->ckx", u[:, :n], c) @ H)
    D0 = -geom.K_T @ m
    push = -ctx.horizontal_part(level)[..., :n] @ geom.K_T.T  # [c, k]: N_{e_k} f_c
    N = tangent_solve(D0, push.reshape(-1, n).T).reshape(-1, m.shape[1], n).transpose(2, 0, 1)
    NE = np.einsum("ki,krc->irc", m, N)  # N_{E_i} in chart coordinates, [i, row, column]
    # N_[E_i, E_j] = Σ c[a, b, x] m[a, i] m[b, j] N[x], one pairwise contraction per factor
    NB = np.tensordot(np.tensordot(np.tensordot(m, c, (0, 0)), m, (1, 0)), N, (1, 0))
    r_mu = (NE[:, None] @ NE[None] - NE[None] @ NE[:, None] - NB).swapaxes(-1, -2)  # [a, b, c, r]
    B = tangent_solve(D0, np.linalg.solve(coad, D))
    r_t = np.tensordot(np.tensordot(np.tensordot(r_mu, B, (0, 0)), B, (0, 0)), B, (0, 0))
    return np.moveaxis(r_t, 0, -1) @ (coad @ D0).T  # r_t[r, i, j, l]: B on slots a, b, c


def _probe_inputs(tensor: np.ndarray) -> tuple[int, int, int]:
    """The first triple i < j (in lexicographic order) whose tensor value's norm
    is within a relative ``PROBE_TIE_RTOL`` of the largest, so that norms equal
    by symmetry pick the same triple whatever their roundoff."""
    km = tensor.shape[0]
    I, J = np.triu_indices(km, 1)
    norms = np.linalg.norm(tensor[I, J], axis=-1).ravel()  # entry p·km + l: (I[p], J[p], l)
    p, l = divmod(int(np.argmax(norms >= norms.max() * (1.0 - PROBE_TIE_RTOL))), km)
    return int(I[p]), int(J[p]), l


def curvature_battery(geom: SigmaGeometry, t_points, K) -> dict:
    """Both curvature routes on coordinate-field triples, the symmetry defects
    and the step-halving probe at t_points[0], all on one geometry and the kernels K there.

    At each chart point both routes of ``curvature_routes`` give the array
    R[i, j, l] = R(f_i, f_j)f_l; the samples pair the two for i < j.
    The maxima reported are (a) the antisymmetry defect in the first two slots
    and (c) the first Bianchi cyclic sum, which vanishes for torsion-free
    connections, both over the formula's entries with i ≠ j (the tensor
    satisfies them by construction), and
    (b) the symplectic-valuedness defect ω(R(X,Y)Z, W) - ω(R(X,Y)W, Z) of the
    tensor, which vanishes exactly when the reduced form is parallel.  The
    probe runs on the triple i < j whose exact value at t_points[0] is largest
    (``_probe_inputs``), so that it measures a component that does not vanish.
    Every displaced point is known from K before any kernel is built: they
    come in one batch (``_routes``), and each route runs once over the points
    and the probe's two steps (``_probe``).
    """
    km = geom.chart.dim
    ts = np.array(t_points, dtype=float).reshape(-1, km)
    exact = _exact(geom, K.coad[0], K.D[0])
    jobs = [(t, DEFAULT_FD_STEP2, list(range(km))) for t in ts]
    convergence, R, tensor = _probe(geom, ts[0], PROBE_STEP, _probe_inputs(exact), exact, jobs, K)
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
    # form[p, q, l, w] = ω(R(f_i, f_j)f_l, f_w) at point p for (i, j) = (I[q], J[q]), one lift
    rows = geom.lift(K, tensor[:, I, J].reshape(len(ts), -1, geom.n))
    form = geom.form_table(rows, K.lifts).reshape(len(ts), len(I), km, km)
    sp = np.max(np.abs(form - form.swapaxes(-1, -2)), axis=(1, 2, 3)) / scale
    return {"samples": samples, "max_discrepancy": float(disc.max(initial=0.0)),
            "symmetry": {"antisymmetry_defect": float(np.max(largest(swapped) / scale)),
                         "symplectic_defect": float(np.max(sp)),
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
    kernel at t is built first, and the displaced points of both steps in one
    batch (``_routes``).  The factor is null where the fine error is 0.
    """
    t, K = np.asarray(t, dtype=float), geom.kernels(t, geom.identity)
    return _probe(geom, t, coarse, inputs, _exact(geom, K.coad[0], K.D[0]), [], K)[0]


def _probe(geom: SigmaGeometry, t, coarse: float, inputs, exact, jobs: list, K) -> tuple:
    """``convergence_factor``'s report at t, from ``exact`` = ``curvature_exact``
    there, and both routes' arrays R[job, i, j, l] of ``jobs`` (t, step, directions):
    ``_routes`` on the jobs and the probe's two, from the kernels K at the jobs'
    points, or at t without a job (K[0] is t's either way)."""
    i, j, l = inputs
    given = len(jobs)
    (*R, coarse_r, fine_r), (*tensor, coarse_t, fine_t) = _routes(
        geom, jobs + [(t, coarse, [i, j]), (t, coarse / 2.0, [i, j])], K[[*range(given), 0, 0]])
    (formula_coarse, formula_fine), (oracle_coarse, oracle_fine) = (
        [float(np.linalg.norm(r[0, 1, l] - exact[i, j, l])) for r in route]
        for route in ((coarse_r, fine_r), (coarse_t, fine_t)))
    return {"inputs": [i, j, l], "step_coarse": coarse, "step_fine": coarse / 2.0,
            "oracle_error_coarse": oracle_coarse, "oracle_error_fine": oracle_fine,
            "formula_error_coarse": formula_coarse, "formula_error_fine": formula_fine,
            "factor": oracle_coarse / oracle_fine if oracle_fine > 0 else None}, \
        np.array(R), np.array(tensor)
