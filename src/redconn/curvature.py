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

sharing nothing with the formula beyond the reduced derivative itself.  Both
are finite-difference computations; agreement degrades quadratically with the
step, which the convergence probe measures by step halving.

``curvature_battery`` runs every curvature check on one ``SigmaGeometry``.
"""

from __future__ import annotations

import numpy as np

from .orbits import OrbitChart
from .reduction import (ChartField, ReductionContext, SigmaGeometry, _check_tangent,
                        coordinate_fields)

DEFAULT_FD_STEP = 1e-5
DEFAULT_FD_STEP2 = 1e-4


def reduced_curvature_formula(ctx: ReductionContext, chart: OrbitChart,
                              x_field: ChartField, y_field: ChartField,
                              z_field: ChartField, t, *,
                              fd_step: float = DEFAULT_FD_STEP,
                              fd_step2: float = DEFAULT_FD_STEP2,
                              geom: SigmaGeometry | None = None) -> np.ndarray:
    """Reduced curvature via the explicit lift expansion, as an orbit tangent."""
    geom = geom if geom is not None else SigmaGeometry(ctx, chart)
    e = geom.identity
    t = np.asarray(t, dtype=float)
    hproj = ctx.horizontal_part

    xb = geom.lift_field(x_field)
    yb = geom.lift_field(y_field)
    zb = geom.lift_field(z_field)
    u_x = xb(t, e)
    u_y = yb(t, e)

    def grad_y(t2, fib):  # ∇_Ȳ Z̄ as a field on the level set
        return geom.cov_sigma(yb(t2, fib), zb, t2, fib, fd_step)

    def grad_x(t2, fib):
        return geom.cov_sigma(xb(t2, fib), zb, t2, fib, fd_step)

    def alpha_grad_y(t2, fib):  # [α(∇_Ȳ Z̄)]* as a field
        return ctx.alpha_star(grad_y(t2, fib))

    def alpha_grad_x(t2, fib):
        return ctx.alpha_star(grad_x(t2, fib))

    bracket = geom.lie_bracket(xb, yb, t, e, fd_step)

    r_amb = (geom.cov_sigma(u_x, grad_y, t, e, fd_step2)
             - geom.cov_sigma(u_y, grad_x, t, e, fd_step2)
             - geom.cov_sigma(bracket, zb, t, e, fd_step))
    t3 = geom.cov_sigma(u_x, alpha_grad_y, t, e, fd_step2)
    t4 = geom.cov_sigma(u_y, alpha_grad_x, t, e, fd_step2)
    t5 = geom.cov_sigma(ctx.alpha_star(bracket), zb, t, e, fd_step)

    r_bar = hproj(r_amb) - hproj(t3) + hproj(t4) + hproj(t5)
    return geom.pushdown(t, e, r_bar)


def _christoffel(geom: SigmaGeometry, t, step: float) -> np.ndarray:
    """Γ[j, l, b]: chart component b of ∇ʳ(f_j) f_l at the section point t.

    Raises:
        NotTangent: a reduced derivative is not an orbit tangent at t.
    """
    D = geom.point(t, geom.identity).D
    _, cov = geom.cov_table(t, geom.identity, step)
    coords, *_ = np.linalg.lstsq(D, cov.reshape(-1, D.shape[0]).T, rcond=None)
    for c, v in zip(coords.T, cov.reshape(-1, D.shape[0])):
        _check_tangent(np.linalg.norm(D @ c - v), v)
    return coords.T.reshape(cov.shape[0], cov.shape[1], -1)


def curvature_tensor(geom: SigmaGeometry, t, *, fd_step: float = DEFAULT_FD_STEP,
                     fd_step2: float = DEFAULT_FD_STEP2, directions=None) -> np.ndarray:
    """Reduced curvature of the coordinate fields as orbit tangents: entry
    [a, b, l] is R(f_i, f_j)f_l at t for i = directions[a], j = directions[b]
    (all chart directions by default), from Γ at t and at t ± fd_step2·eₓ for
    x in ``directions``, each with inner step fd_step."""
    t = np.asarray(t, dtype=float)
    km = geom.chart.dim
    dirs = list(range(km)) if directions is None else list(directions)
    gamma = _christoffel(geom, t, fd_step)
    d_gamma = {}
    for x in dirs:
        if x not in d_gamma:
            s = np.eye(km)[x] * fd_step2
            d_gamma[x] = (_christoffel(geom, t + s, fd_step)
                          - _christoffel(geom, t - s, fd_step)) / (2.0 * fd_step2)
    # d[a, b, l, c] = ∂_i Γ^c_jl and g[a, l, c] = Γ^c_il, for i = dirs[a], j = dirs[b]
    d = np.array([d_gamma[x][dirs] for x in dirs])
    g = gamma[dirs]
    quad = np.einsum("blm,amc->ablc", g, g)  # Γ^m_jl Γ^c_im
    r_chart = d + quad - (d + quad).transpose(1, 0, 2, 3)
    return r_chart @ geom.point(t, geom.identity).D.T


def curvature_battery(geom: SigmaGeometry, t_points, *,
                      fd_step: float = DEFAULT_FD_STEP,
                      fd_step2: float = DEFAULT_FD_STEP2) -> dict:
    """Both curvature routes on coordinate-field triples, the symmetry defects
    and the step-halving probe at t_points[0], all on one geometry.

    At each chart point the formula fills the table R[i, j, l] = R(f_i, f_j)f_l
    for i ≠ j and the tensor route gives every triple at once; the samples
    pair the two for i < j.  The maxima reported are (a) the antisymmetry
    defect in the first two slots and (c) the first Bianchi cyclic sum, which
    vanishes for torsion-free connections, both from the formula table (the
    tensor satisfies them by construction), and
    (b) the symplectic-valuedness defect ω(R(X,Y)Z, W) - ω(R(X,Y)W, Z) of the
    tensor, which vanishes exactly when the reduced form is parallel.
    """
    ctx, chart = geom.ctx, geom.chart
    km = chart.dim
    fields = coordinate_fields(chart)
    e = geom.identity
    t_points = [np.asarray(t, dtype=float) for t in t_points]
    samples = []
    anti = sp = bianchi = 0.0
    for t in t_points:
        values = {(i, j, l): reduced_curvature_formula(ctx, chart, fields[i], fields[j],
                                                       fields[l], t, fd_step=fd_step,
                                                       fd_step2=fd_step2, geom=geom)
                  for i in range(km) for j in range(km) if i != j for l in range(km)}
        scale = max(1.0, max(float(np.linalg.norm(v)) for v in values.values()))
        tensor = curvature_tensor(geom, t, fd_step=fd_step, fd_step2=fd_step2)
        d_lifts = geom.chart_lifts(t)
        for i in range(km):
            for j in range(i + 1, km):
                for l in range(km):
                    val, orc = values[(i, j, l)], tensor[i, j, l]
                    samples.append({
                        "t": t.tolist(), "inputs": [i, j, l],
                        "value": val.tolist(), "oracle": orc.tolist(),
                        "discrepancy": float(np.linalg.norm(val - orc)
                                             / max(1.0, float(np.linalg.norm(orc)))),
                    })
                # form[l, w] = ω(R(f_i, f_j)f_l, f_w)
                form = geom.form_table([geom.lift(t, e, tensor[i, j, l]) for l in range(km)],
                                       d_lifts)
                sp = max(sp, float(np.max(np.abs(form - form.T))) / scale)
        for (i, j, l), v in values.items():
            anti = max(anti, float(np.linalg.norm(v + values[(j, i, l)]) / scale))
            cyc = v + (values[(j, l, i)] if j != l else 0.0)
            cyc = cyc + (values[(l, i, j)] if l != i else 0.0)
            bianchi = max(bianchi, float(np.linalg.norm(cyc) / scale))
    return {
        "samples": samples,
        "max_discrepancy": max((s["discrepancy"] for s in samples), default=0.0),
        "symmetry": {"antisymmetry_defect": anti, "symplectic_defect": sp,
                     "bianchi_defect": bianchi, "points": len(t_points)},
        "convergence": convergence_factor(geom, t_points[0]),
    }


def convergence_factor(geom: SigmaGeometry, t, *, coarse: float = 4e-3,
                       inputs=(0, 1, 1)) -> dict:
    """Step-halving convergence of the finite-difference curvature routes.

    A Richardson-extrapolated evaluation serves as the reference; each route's
    error against it is measured at a coarse step and at half that step.
    Central differencing is second order, so the ratio should sit near four.
    The probe uses steps well above the default because there the truncation
    term dominates roundoff; inner first-derivative steps scale with the
    outer step so the whole computation contracts consistently.  Both steps
    run on ``geom``, the tensor route building Γ only at t and at t ± h along
    the triple's first two directions; the reference needs its own
    Richardson-stencil geometry.
    """
    ctx, chart = geom.ctx, geom.chart
    i, j, l = inputs
    fields = coordinate_fields(chart)
    geom_ref = SigmaGeometry(ctx, chart, richardson=True)
    reference = reduced_curvature_formula(ctx, chart, fields[i], fields[j], fields[l],
                                          t, fd_step=1e-4, fd_step2=1e-3, geom=geom_ref)

    def errors(h2: float) -> tuple[float, float]:
        h1 = h2 / 10.0
        val = reduced_curvature_formula(ctx, chart, fields[i], fields[j], fields[l],
                                        t, fd_step=h1, fd_step2=h2, geom=geom)
        orc = curvature_tensor(geom, t, fd_step=h1, fd_step2=h2, directions=(i, j))[0, 1, l]
        return (float(np.linalg.norm(orc - reference)),
                float(np.linalg.norm(val - reference)))

    oracle_coarse, formula_coarse = errors(coarse)
    oracle_fine, formula_fine = errors(coarse / 2.0)
    factor = oracle_coarse / oracle_fine if oracle_fine > 0 else np.inf
    return {"step_coarse": coarse, "step_fine": coarse / 2.0,
            "oracle_error_coarse": oracle_coarse, "oracle_error_fine": oracle_fine,
            "formula_error_coarse": formula_coarse, "formula_error_fine": formula_fine,
            "factor": float(factor)}
