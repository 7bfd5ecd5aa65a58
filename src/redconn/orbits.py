"""Coadjoint orbit charts and the Kirillov-Kostant-Souriau form.

The reduced manifold is represented concretely as the coadjoint orbit through
μ, with the quotient map realized by (g, μ) ↦ Coad(g)μ.  A chart is built
from a complement m of the stabilizer: chart coordinates t parametrize
ν(t) = Coad(exp(Σ t_a E_a))μ together with the section (exp(Σ t_a E_a), μ)
into the momentum level set.  Coad, the section vectors and the chart
differential at t, with the exact derivatives of the section vectors along
every chart direction, come from one 2n×2n exponential per chart point with
its Fréchet derivatives (``linalg.expm``), for one chart point or a stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NotTangent, RankLoss
from .liealg import LieAlgebra, coadjoint_matrix, group_exp

TANGENT_RTOL = 1e-8  # largest residual of an orbit tangent v, relative to max(1, |v|)
# Global sign relating the reduced 2-form to the canonical orbit form under
# the conventions of this library; verified across the catalog by the tests.
KKS_MATCH_SIGN = -1.0


@dataclass(frozen=True)
class OrbitChart:
    """Exponential chart on the coadjoint orbit through mu.

    ``m_basis`` holds the complement directions as columns; the chart map is
    t ↦ Coad(exp(Σ t_a E_a))μ and the section map t ↦ (exp(Σ t_a E_a), μ).
    """

    algebra: LieAlgebra
    mu: np.ndarray
    m_basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.m_basis.shape[1]

    def section_element(self, t) -> np.ndarray:
        """Ad matrix of the group element exp(Σ t_a E_a)."""
        return group_exp(self.algebra, self.m_basis @ np.asarray(t, dtype=float))

    def nu(self, t) -> np.ndarray:
        """Orbit point Coad(exp(Σ t_a E_a))μ."""
        return coadjoint_matrix(self.section_element(t)) @ self.mu

    def exp_data(self, ts, derivatives: bool = True) -> tuple[np.ndarray, ...]:
        """Coad(exp A), the section vectors, the chart differential and (unless
        ``derivatives`` is false) the derivatives of the section vectors along
        each chart direction c, stacked over the chart points t of ``ts`` (rows,
        or one t; A = Σ t_a E_a).  Each distinct t takes one exponential of
        B = [[−ad A, I], [0, 0]], all in one call: its blocks (1, 1) and (1, 2)
        are e^{−ad A} = Coad(exp A)ᵀ and φ₁(−ad A), and block (1, 2) of its
        Fréchet derivative along [[−ad E_c, 0], [0, 0]] is the derivative of
        φ₁(−ad A) along E_c (Al-Mohy–Higham 2009)."""
        a, n, m = self.algebra, self.algebra.dim, self.m_basis
        ts = np.atleast_2d(np.asarray(ts, dtype=float))
        inverse, first = linalg.distinct_rows(t.tobytes() for t in ts)
        block = np.zeros((len(first), 2 * n, 2 * n))
        block[:, :n, :n] = -a.ad(linalg.matvec(m, ts[first]))
        block[:, :n, n:] = np.eye(n)
        N = -np.einsum("ijk,ic->ckj", a.c, m)  # −ad E_c; [N, 0]: the directions' first rows
        directions = np.concatenate([N, 0 * N], axis=-1) if derivatives else None
        out = linalg.expm(block, batch_ndim=1, directions=directions)
        E, *L = out if derivatives else (out,)
        coad = E[inverse, :n, :n].transpose(0, 2, 1)
        vecs = E[inverse, :n, n:] @ m
        data = (coad, vecs, -coad @ (a.bracket_pairing(self.mu).T @ vecs))
        return data + tuple(d[inverse][..., :n, n:] @ m for d in L)

    def lift_data(self, ts) -> tuple[np.ndarray, ...]:
        """``exp_data`` without the derivatives, its exponentials bit for bit."""
        return self.exp_data(ts, derivatives=False)

    def section_vectors(self, t) -> np.ndarray:
        """Left-trivialized velocities of the chart directions at t: column a is
        exp(A)⁻¹ d/ds exp(A + s E_a)|_0 = φ₁(−ad A) E_a."""
        return self.lift_data(t)[1][0]

    def dnu(self, t) -> np.ndarray:
        """Chart differential: column a is -Coad(g) (μ∘ad(X_a(t)))."""
        return self.lift_data(t)[2][0]

    def check_rank(self, t) -> None:
        if linalg.rank(self.dnu(t)) < self.dim:
            raise RankLoss(f"chart differential lost rank at t = {np.asarray(t).tolist()}")

    def coords(self, nu_target, t0=None) -> np.ndarray:
        """Invert the chart map near t0 by Gauss-Newton iteration."""
        nu_target = np.asarray(nu_target, dtype=float)
        t = np.zeros(self.dim) if t0 is None else np.asarray(t0, dtype=float).copy()
        for _ in range(50):
            r = nu_target - self.nu(t)
            if np.linalg.norm(r) <= 1e-13 * max(1.0, np.linalg.norm(nu_target)):
                return t
            step, *_ = np.linalg.lstsq(self.dnu(t), r, rcond=None)
            t = t + step
        raise RankLoss("chart inversion did not converge; point may be outside the chart")


def orbit_chart(a: LieAlgebra, mu, m_basis) -> OrbitChart:
    """Build the exponential chart; checks full rank at 0, where ν(0) = μ exactly
    (e⁰ is I bit for bit)."""
    mu = np.asarray(mu, dtype=float)
    m_basis = np.atleast_2d(np.asarray(m_basis, dtype=float))
    chart = OrbitChart(a, mu.copy(), m_basis.copy())
    chart.check_rank(np.zeros(chart.dim))
    return chart


def orbit_tangent_frame(a: LieAlgebra, nu, m_basis) -> np.ndarray:
    """Tangent frame of the orbit at ν, column a being f_a = d/ds Coad(exp(s E_a))ν|_0
    = -ν∘ad(E_a), i.e. −K(ν)ᵀ·m; full rank wherever the chart is valid."""
    m_basis = np.atleast_2d(np.asarray(m_basis, dtype=float))
    return -(a.bracket_pairing(nu).T @ m_basis)


def off_tangent(residuals, norms) -> np.ndarray:
    """The tangency rule: where a residual exceeds TANGENT_RTOL · max(1, |v|),
    |v| the matching entry of ``norms``."""
    return residuals > TANGENT_RTOL * np.maximum(1.0, norms)


def tangent_solve(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """X with A X = v by least squares, for one vector v or each column of a
    matrix v, all by one solve, or for each (A, v) of stacks (…, m, k) and
    (…, m, r) alike, each alone: the pseudo-inverse from A's SVD, with
    ``np.linalg.lstsq``'s cutoff.  Raises NotTangent when a column's residual
    breaks the tangency rule (``off_tangent``)."""
    V = v[..., None] if v.ndim < A.ndim else v
    u, s, vh = np.linalg.svd(A, full_matrices=False)
    inv_s = np.divide(1.0, s, out=np.zeros_like(s),
                      where=s > np.finfo(float).eps * max(A.shape[-2:]) * s[..., :1])
    X = vh.swapaxes(-1, -2) @ (inv_s[..., None] * (u.swapaxes(-1, -2) @ V))
    residual = np.linalg.norm(A @ X - V, axis=-2)
    bad = off_tangent(residual, np.linalg.norm(V, axis=-2))
    if bad.any():
        raise NotTangent(f"vector is not an orbit tangent (residual {residual[bad].max():.3e})")
    return X[..., 0] if v.ndim < A.ndim else X


def tangent_representative(a: LieAlgebra, nu, v) -> np.ndarray:
    """An algebra element X with ν∘ad(X) = v, by least squares, or one per
    column of a matrix v, all by one solve.

    Well defined only modulo the stabilizer of ν; the pairing below does not
    depend on the representative.  Raises NotTangent when no X fits a column.
    """
    return tangent_solve(a.bracket_pairing(np.asarray(nu, dtype=float)).T,
                         np.asarray(v, dtype=float))


def kks_form(a: LieAlgebra, nu, v, w) -> float:
    """Canonical orbit 2-form: ⟨ν, [X, Y]⟩ for ν∘ad(X) = v, ν∘ad(Y) = w."""
    nu = np.asarray(nu, dtype=float)
    X = tangent_representative(a, nu, v)
    Y = tangent_representative(a, nu, w)
    return float(nu @ a.bracket(X, Y))


def kks_pairs(a: LieAlgebra, D: np.ndarray, nu: np.ndarray, omega: np.ndarray) -> list:
    """(reduced, canonical) orbit-form values on the chart coordinate pairs
    i < j at a chart point where the canonical value is nonzero: D = dnu there,
    nu the orbit point and ``omega`` the reduced form on the coordinate
    tangents, or at each of a stack of them in turn.  One solve gives the
    representatives X of D's columns, and ⟨ν, [X_i, X_j]⟩ = X_iᵀ K(ν) X_j every
    canonical value."""
    K = a.bracket_pairing(nu)
    X = tangent_solve(K.swapaxes(-1, -2), D)
    canonical = X.swapaxes(-1, -2) @ K @ X
    i, j = np.triu_indices(D.shape[-1], 1)
    return [(red, ref) for red, ref in zip(omega[..., i, j].ravel(), canonical[..., i, j].ravel())
            if abs(ref) > 1e-12]


def kks_gap(pairs) -> float:
    """Largest relative gap of the (reduced, sign-matched canonical) pairs of ``kks_pairs``."""
    return max([0.0] + [abs(red - KKS_MATCH_SIGN * ref) / abs(ref) for red, ref in pairs])
