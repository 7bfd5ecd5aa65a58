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
both routes read from one ``SigmaGeometry.cov_table`` per point (the formula
differences the table's level-set values, the tensor its pushdowns), each
building only the table rows it reads.  Both return the same [i, j, l] array
of orbit tangents and are finite-difference computations; agreement degrades
quadratically with the step, which the convergence probe measures by step
halving.  ``curvature_battery`` runs every curvature check on one
``SigmaGeometry``.
"""

from __future__ import annotations

import numpy as np

from .reduction import SigmaGeometry, _check_tangent

DEFAULT_FD_STEP = 1e-5
DEFAULT_FD_STEP2 = 1e-4
# Tensor norms this close (relatively) to the largest tie for the probe: at the
# default steps the tensor carries roundoff of about ε/(fd_step·fd_step2) ≈ 2e-7.
PROBE_TIE_RTOL = 1e-6


def curvature_formula(geom: SigmaGeometry, t, *, fd_step: float = DEFAULT_FD_STEP,
                      fd_step2: float = DEFAULT_FD_STEP2, directions=None) -> np.ndarray:
    """Reduced curvature of the coordinate fields by the lift expansion, as orbit
    tangents in the layout of ``curvature_tensor``: entry [a, b, l] is
    R(f_i, f_j)f_l at t for i = directions[a], j = directions[b] (all chart
    directions by default), and entries with i = j are zero.

    The level-set derivatives ∇_f̄_j f̄_l and their radical parts come from
    the level-set table rows of ``cov_table`` at each point of one fd_step2
    stencil per direction x, rows j ≠ x in ``directions`` only, since the
    derivative along f̄_x is read only for j ≠ x; the bracket [f̄_i, f̄_j]
    reads the derivatives of ``lifts`` along the f̄_i that the table's rows at
    t are built from, and the derivatives along it and its radical part use
    inner stencils of step fd_step at t that difference all of ``lifts`` at
    once.  Along a bracket or radical part that is exactly zero the
    derivatives are exactly zero and are not differenced.
    """
    ctx, e, km = geom.ctx, geom.identity, geom.chart.dim
    t = np.asarray(t, dtype=float)
    dirs = list(range(km)) if directions is None else list(directions)
    hproj = ctx.horizontal_part
    u = geom.lifts(t, e)

    def grads(t2, fib, rows):  # [j][l, 0] = ∇_f̄_j f̄_l and [j][l, 1] = [α(∇_f̄_j f̄_l)]*
        level = geom._level_table(t2, fib, fd_step, rows)[0]
        return np.array([[[g, ctx.alpha_star(g)] for g in level[j]] for j in rows])

    rows = list(dict.fromkeys(dirs))
    # inner[x][l]: derivative of f̄_l along f̄_x, from which the table's row x is built
    inner = geom._level_table(t, e, fd_step, rows)[1]
    base = dict(zip(rows, grads(t, e, rows)))
    # outer[x][j][l, s]: induced derivative of grads[j][l, s] along f̄_x, read
    # only for j ≠ x
    outer = {}
    for x in rows:
        others = [j for j in rows if j != x]
        d = geom._stencil(t, e, u[x], fd_step2, lambda t2, fib: grads(t2, fib, others))
        outer[x] = {j: np.array([[geom._induced(u[x], base[j][l, s], dj[l, s]) for s in range(2)]
                                 for l in range(km)]) for j, dj in zip(others, d)}

    def along(v):  # [l] = P∘∇ along v of f̄_l at t
        if not v.any():
            return np.zeros((km, 2 * geom.n))
        d = geom._stencil(t, e, v, fd_step, geom.lifts)
        return [geom._induced(v, u[l], d[l]) for l in range(km)]

    out = np.zeros((len(dirs), len(dirs), km, geom.n))
    for a, i in enumerate(dirs):
        for b, j in enumerate(dirs):
            if i == j:
                continue
            bracket = (inner[i][j] - inner[j][i]
                       + np.einsum("abc,a,b->c", geom.struct, u[i], u[j]))
            term3, t5 = along(bracket), along(ctx.alpha_star(bracket))
            for l in range(km):
                r_amb = (outer[i][j][l, 0] - outer[j][i][l, 0]) - term3[l]
                r_bar = (hproj(r_amb) - hproj(outer[i][j][l, 1]) + hproj(outer[j][i][l, 1])
                         + hproj(t5[l]))
                out[a, b, l] = geom.pushdown(t, e, r_bar)
    return out


def _christoffel(geom: SigmaGeometry, t, step: float, rows) -> np.ndarray:
    """Γ[j, l, b]: chart component b of ∇ʳ(f_j) f_l at the section point t for
    j in ``rows``; the other rows are zero.

    Raises:
        NotTangent: a reduced derivative is not an orbit tangent at t.
    """
    e, km = geom.identity, geom.chart.dim
    D = geom.point(t, e).D
    level, _ = geom._level_table(t, e, step, rows)
    cov = np.array([geom.pushdown_horizontal(t, e, g)
                    for j in rows for g in level[j]]).reshape(-1, D.shape[0])
    coords, *_ = np.linalg.lstsq(D, cov.T, rcond=None)
    _check_tangent(np.linalg.norm(D @ coords - cov.T, axis=0), cov)
    gamma = np.zeros((km, km, km))
    gamma[rows] = coords.T.reshape(len(rows), km, km)
    return gamma


def curvature_tensor(geom: SigmaGeometry, t, *, fd_step: float = DEFAULT_FD_STEP,
                     fd_step2: float = DEFAULT_FD_STEP2, directions=None) -> np.ndarray:
    """Reduced curvature of the coordinate fields as orbit tangents: entry
    [a, b, l] is R(f_i, f_j)f_l at t for i = directions[a], j = directions[b]
    (all chart directions by default), from Γ at t and at t ± fd_step2·eₓ for
    x in ``directions``, each with inner step fd_step.  Γ is built only on the
    rows read: those of ``directions`` at t, and all but row x at t ± fd_step2·eₓ,
    since ∂ₓΓ_x enters R(f_x, f_x) = 0 only, where it cancels exactly."""
    t = np.asarray(t, dtype=float)
    km = geom.chart.dim
    dirs = list(range(km)) if directions is None else list(directions)
    rows = list(dict.fromkeys(dirs))
    gamma = _christoffel(geom, t, fd_step, rows)
    d_gamma = {}
    for x in rows:
        s = np.eye(km)[x] * fd_step2
        others = [j for j in rows if j != x]
        d_gamma[x] = (_christoffel(geom, t + s, fd_step, others)
                      - _christoffel(geom, t - s, fd_step, others)) / (2.0 * fd_step2)
    # d[a, b, l, c] = ∂_i Γ^c_jl and g[a, l, c] = Γ^c_il, for i = dirs[a], j = dirs[b]
    d = np.array([d_gamma[x][dirs] for x in dirs])
    g = gamma[dirs]
    quad = np.einsum("blm,amc->ablc", g, g)  # Γ^m_jl Γ^c_im
    r_chart = d + quad - (d + quad).transpose(1, 0, 2, 3)
    return r_chart @ geom.point(t, geom.identity).D.T


def _probe_inputs(tensor: np.ndarray) -> tuple[int, int, int]:
    """The first triple i < j (in lexicographic order) whose tensor value's norm
    is within a relative ``PROBE_TIE_RTOL`` of the largest, so that norms equal
    by symmetry pick the same triple whatever their roundoff."""
    km = tensor.shape[0]
    triples = [(i, j, l) for i in range(km) for j in range(i + 1, km) for l in range(km)]
    norms = [float(np.linalg.norm(tensor[ijl])) for ijl in triples]
    top = max(norms)
    return next(ijl for ijl, v in zip(triples, norms) if v >= top * (1.0 - PROBE_TIE_RTOL))


def curvature_battery(geom: SigmaGeometry, t_points, *,
                      fd_step: float = DEFAULT_FD_STEP,
                      fd_step2: float = DEFAULT_FD_STEP2) -> dict:
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
    off = [(i, j, l) for i in range(km) for j in range(km) if i != j for l in range(km)]
    samples = []
    anti = sp = bianchi = 0.0
    probe_inputs = None
    for t in t_points:
        R = curvature_formula(geom, t, fd_step=fd_step, fd_step2=fd_step2)
        scale = max(1.0, max(float(np.linalg.norm(R[ijl])) for ijl in off))
        tensor = curvature_tensor(geom, t, fd_step=fd_step, fd_step2=fd_step2)
        if probe_inputs is None:
            probe_inputs = _probe_inputs(tensor)
        d_lifts = geom.lifts(t, e)
        for i in range(km):
            for j in range(i + 1, km):
                for l in range(km):
                    val, orc = R[i, j, l], tensor[i, j, l]
                    samples.append({
                        "t": t.tolist(), "inputs": [i, j, l],
                        "value": val.tolist(), "oracle": orc.tolist(),
                        "discrepancy": float(np.linalg.norm(val - orc)
                                             / max(1.0, float(np.linalg.norm(orc)))),
                    })
                # form[l, w] = ω(R(f_i, f_j)f_l, f_w)
                form = geom.form_table(geom.lift(t, e, tensor[i, j]), d_lifts)
                sp = max(sp, float(np.max(np.abs(form - form.T))) / scale)
        swapped = R + R.transpose(1, 0, 2, 3)  # R[i, j, l] + R[j, i, l]
        cyclic = R + R.transpose(2, 0, 1, 3) + R.transpose(1, 2, 0, 3)  # + R[j, l, i] + R[l, i, j]
        for ijl in off:
            anti = max(anti, float(np.linalg.norm(swapped[ijl]) / scale))
            bianchi = max(bianchi, float(np.linalg.norm(cyclic[ijl]) / scale))
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
    the value R(f_i, f_j)f_l for (i, j, l) = ``inputs``.

    A Richardson-extrapolated evaluation serves as the reference; each route's
    error against it is measured at a coarse step and at half that step.
    Central differencing is second order, so the ratio should sit near four.
    The probe uses steps well above the default because there the truncation
    term dominates roundoff; inner first-derivative steps scale with the
    outer step so the whole computation contracts consistently.  Both steps
    run on ``geom``, each route building only the table rows i and j at t and
    one row at each displaced point; the reference needs its own
    Richardson-stencil geometry.
    """
    i, j, l = inputs
    geom_ref = SigmaGeometry(geom.ctx, geom.chart, richardson=True)
    reference = curvature_formula(geom_ref, t, fd_step=1e-4, fd_step2=1e-3,
                                  directions=(i, j))[0, 1, l]

    def errors(h2: float) -> tuple[float, float]:
        h1 = h2 / 10.0
        val = curvature_formula(geom, t, fd_step=h1, fd_step2=h2, directions=(i, j))[0, 1, l]
        orc = curvature_tensor(geom, t, fd_step=h1, fd_step2=h2, directions=(i, j))[0, 1, l]
        return (float(np.linalg.norm(orc - reference)),
                float(np.linalg.norm(val - reference)))

    oracle_coarse, formula_coarse = errors(coarse)
    oracle_fine, formula_fine = errors(coarse / 2.0)
    factor = oracle_coarse / oracle_fine if oracle_fine > 0 else np.inf
    return {"inputs": [i, j, l], "step_coarse": coarse, "step_fine": coarse / 2.0,
            "oracle_error_coarse": oracle_coarse, "oracle_error_fine": oracle_fine,
            "formula_error_coarse": formula_coarse, "formula_error_fine": formula_fine,
            "factor": float(factor)}
