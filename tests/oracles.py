"""Independent routes that the tests compare the package's runtime against.

The runtime reads the orbit chart through ``OrbitChart.exp_data``, one block
exponential per chart point, and pairs orbit tangents by one stacked solve
(``orbits.kks_pairs``).  These oracles take the other routes, one point or one
pair at a time: the chart map from ``group_exp`` and ``coadjoint_matrix``, its
inverse by Gauss-Newton, the canonical orbit form from one representative per
tangent, algebra coordinates from the matrix realization, which nothing at
run time reads, and the left momentum map's differential, whose rank nothing
at run time checks.  The finite-subgroup averaging of a connection, which the
package does not ship, lives here too: the tests check that it keeps a
torsion-free Γ torsion-free and that its mean is fixed by every node.  So
does the analytic expansion of ∇°ω, the baseline's ∇ω, which the tests hold
the runtime's component array to, and the standard library's JSON encoder,
which the tests hold ``report.dumps`` to byte for byte, and a least-squares
route to the reduction's totally-geodesic defect.  They use only public
names of ``redconn``.
"""

import json

import numpy as np

import redconn as rc
from redconn.linalg import vecdot
from redconn.orbits import tangent_solve


class NoRealization(Exception):
    """The algebra carries no matrix realization to read."""


def section_element(chart, t) -> np.ndarray:
    """Ad matrix of the group element exp(Σ t_a E_a)."""
    return rc.group_exp(chart.algebra, chart.m_basis @ np.asarray(t, dtype=float))


def nu(chart, t) -> np.ndarray:
    """Orbit point Coad(exp(Σ t_a E_a))μ."""
    return rc.coadjoint_matrix(section_element(chart, t)) @ chart.mu


def dnu(chart, t) -> np.ndarray:
    """The chart differential at one chart point t, as the runtime builds it."""
    return chart.lift_data(t)[2][0]


def coords(chart, nu_target, t0=None) -> np.ndarray:
    """Invert the chart map ``nu`` near t0 by Gauss-Newton iteration."""
    nu_target = np.asarray(nu_target, dtype=float)
    t = np.zeros(chart.dim) if t0 is None else np.asarray(t0, dtype=float).copy()
    for _ in range(50):
        r = nu_target - nu(chart, t)
        if np.linalg.norm(r) <= 1e-13 * max(1.0, np.linalg.norm(nu_target)):
            return t
        step, *_ = np.linalg.lstsq(dnu(chart, t), r, rcond=None)
        t = t + step
    raise rc.RankLoss("chart inversion did not converge; point may be outside the chart")


def tangent_representative(a, nu, v) -> np.ndarray:
    """An algebra element X with ν∘ad(X) = v, by least squares, or one per
    column of a matrix v.  Well defined only modulo the stabilizer of ν.
    Raises NotTangent when no X fits a column."""
    return tangent_solve(a.bracket_pairing(np.asarray(nu, dtype=float)).T,
                         np.asarray(v, dtype=float))


def momentum_differential(a, Ad, xi) -> np.ndarray:
    """The left momentum map's differential Coad(g)·[−K(ξ)ᵀ | I] at one point
    (g, ξ), on left-trivialized tangents (X, η), with K(ξ) the bracket pairing."""
    K = a.bracket_pairing(np.asarray(xi, dtype=float))
    return rc.coadjoint_matrix(Ad) @ np.hstack([-K.T, np.eye(a.dim)])


def kks_form(a, nu, v, w) -> float:
    """Canonical orbit 2-form: ⟨ν, [X, Y]⟩ for ν∘ad(X) = v, ν∘ad(Y) = w."""
    nu = np.asarray(nu, dtype=float)
    return float(nu @ a.bracket(tangent_representative(a, nu, v),
                                tangent_representative(a, nu, w)))


def matrix_coords(a, M) -> np.ndarray:
    """Coordinates of a realization matrix in the algebra basis."""
    if a.realization is None:
        raise NoRealization(f"algebra {a.name or '<anonymous>'} has no matrix realization")
    R = a.realization.reshape(a.dim, -1).T
    M = np.asarray(M, dtype=float).ravel()
    x, *_ = np.linalg.lstsq(R, M, rcond=None)
    residual = np.linalg.norm(R @ x - M)
    if residual > 1e-8 * max(1.0, float(np.linalg.norm(M))):
        raise ValueError(f"matrix is not in the realized algebra (residual {residual:.3e})")
    return x


def finite_cyclic_rule(a: rc.LieAlgebra, X, order: int) -> tuple:
    """The Ad matrices of the cyclic subgroup generated by exp(2π X / order), from
    one stacked exponential."""
    if order < 1:
        raise ValueError("order must be positive")
    return tuple(rc.group_exp(a, np.outer(2.0 * np.pi * np.arange(order) / order, X)))


def average_coefficients(gamma, nodes) -> np.ndarray:
    """Mean of the pullbacks of a Γ stack that is the same at every fiber point,
    so its value at the moved points is ``gamma`` itself, by the group elements
    with the Ad matrices ``nodes``.

    Each pullback of a torsion-free connection is torsion-free, so their mean
    is torsion-free as well.  When the nodes form a finite subgroup the mean
    is fixed by every node.
    """
    if not nodes:
        raise ValueError("averaging needs at least one node")
    w = 1.0 / len(nodes)
    return sum(w * rc.pullback_coefficients(g, gamma) for g in nodes)


def baseline_nabla_omega(a, xi, u, v, w):
    """Analytic expansion of (∇°ω)(u, v, w) at ξ, for one point or row by row
    over stacks: with u = (X, η), v = (Y, ζ), w = (Y', ζ'),

        -⟨η, [Y, Y']⟩ + ½⟨ζ', [X, Y]⟩ - ½⟨ζ, [X, Y']⟩ + ½⟨ξ, [X, [Y, Y']]⟩.
    """
    (X, eta), (Y, zeta), (Yp, zetap) = (np.split(np.asarray(x, dtype=float), 2, axis=-1)
                                        for x in (u, v, w))
    byyp = a.bracket(Y, Yp)
    return (-vecdot(eta, byyp) + 0.5 * vecdot(zetap, a.bracket(X, Y))
            - 0.5 * vecdot(zeta, a.bracket(X, Yp))
            + 0.5 * vecdot(np.asarray(xi, dtype=float), a.bracket(X, byyp)))


def totally_geodesic_defect(ctx) -> float:
    """The reduction's totally-geodesic defect by a least-squares projection
    route: the TΣ components along W2 ⊕ S of the frame vectors and of Γ(μ) on
    every pair of stabilizer generators (g_μ e_i, 0), in one solve, then the
    largest ω-pairing of the projected products against the projected frame."""
    n, k = ctx.algebra.dim, ctx.stabilizer_dim
    gens = ctx.split.delta.T  # rows (g_μ e_i, 0)
    products = np.einsum("abc,ia,jb->ijc", ctx.gamma_mu, gens, gens).reshape(k * k, 2 * n)
    basis = np.hstack([ctx.split.t_sigma, ctx.w2, ctx.S])
    coords, *_ = np.linalg.lstsq(basis, np.hstack([np.eye(2 * n), products.T]), rcond=None)
    proj = ctx.split.t_sigma @ coords[:n]
    pairs = proj[:, 2 * n:].T @ ctx.omega_mu @ proj[:, : 2 * n]
    return float(np.max(np.abs(pairs), initial=0.0))


def json_dumps(report) -> str:
    """A report as ``json.dumps`` writes it with a two-space indent, numpy
    arrays and scalars as their ``tolist()``."""
    return json.dumps(report, indent=2, default=lambda value: value.tolist()) + "\n"
