"""Independent routes that the tests compare the package's runtime against.

The runtime reads the orbit chart through ``OrbitChart.exp_data``, one block
exponential per chart point, and pairs orbit tangents by one stacked solve
(``orbits.kks_pairs``).  These oracles take the other routes, one point or one
pair at a time: the chart map from ``group_exp`` and ``coadjoint_matrix``, its
inverse by Gauss-Newton, the canonical orbit form from one representative per
tangent, algebra coordinates from the matrix realization, which nothing at
run time reads, and the left momentum map's differential, whose rank nothing
at run time checks.  They use only public names of ``redconn``.
"""

import numpy as np

import redconn as rc
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
