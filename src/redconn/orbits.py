"""Coadjoint orbit charts and the Kirillov-Kostant-Souriau form.

The reduced manifold is represented concretely as the coadjoint orbit through
μ, with the quotient map realized by (g, μ) ↦ Coad(g)μ.  A chart is built
from a complement m of the stabilizer: chart coordinates t parametrize
ν(t) = Coad(exp(Σ t_a E_a))μ together with the section (exp(Σ t_a E_a), μ)
into the momentum level set.  Coad, the section vectors and the chart
differential at t come from one ``linalg.expm`` of a 2n×2n block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NotTangent, RankLoss
from .liealg import LieAlgebra, coadjoint_matrix, group_exp

TANGENT_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class OrbitChart:
    """Exponential chart on the coadjoint orbit through mu.

    ``m_basis`` holds the complement directions as columns; the chart map is
    t ↦ Coad(exp(Σ t_a E_a))μ and the section map t ↦ (exp(Σ t_a E_a), μ).
    """

    algebra: LieAlgebra
    mu: np.ndarray
    m_basis: np.ndarray
    radius: float = 1.0

    @property
    def dim(self) -> int:
        return self.m_basis.shape[1]

    def section_element(self, t) -> np.ndarray:
        """Ad matrix of the group element exp(Σ t_a E_a)."""
        return group_exp(self.algebra, self.m_basis @ np.asarray(t, dtype=float))

    def nu(self, t) -> np.ndarray:
        """Orbit point Coad(exp(Σ t_a E_a))μ."""
        return coadjoint_matrix(self.section_element(t)) @ self.mu

    def exp_data(self, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Coad(exp A), the section vectors and the chart differential at t,
        from one block exponential E = linalg.expm([[−ad A, I], [0, 0]]) with
        A = Σ t_a E_a (Van Loan, 1978): E's upper-left block is e^{−ad A} =
        Coad(exp A)ᵀ and its upper-right block is φ₁(−ad A), φ₁(z) = (e^z − 1)/z.
        """
        n = self.algebra.dim
        block = np.zeros((2 * n, 2 * n))
        block[:n, :n] = -self.algebra.ad(self.m_basis @ np.asarray(t, dtype=float))
        block[:n, n:] = np.eye(n)
        E = linalg.expm(block)
        coad = E[:n, :n].T
        vecs = E[:n, n:] @ self.m_basis
        return coad, vecs, -coad @ (self.algebra.bracket_pairing(self.mu).T @ vecs)

    def section_vectors(self, t) -> np.ndarray:
        """Left-trivialized velocities of the chart directions at t: column a is
        exp(A)⁻¹ d/ds exp(A + s E_a)|_0 = φ₁(−ad A) E_a."""
        return self.exp_data(t)[1]

    def dnu(self, t) -> np.ndarray:
        """Chart differential: column a is -Coad(g) (μ∘ad(X_a(t)))."""
        return self.exp_data(t)[2]

    def check_rank(self, t) -> None:
        if linalg.rank(self.dnu(t)) < self.dim:
            raise RankLoss(f"chart differential lost rank at t = {np.asarray(t).tolist()}")

    def coords(self, nu_target, t0=None, max_iter: int = 50,
               tol: float = 1e-13) -> np.ndarray:
        """Invert the chart map near t0 by Gauss-Newton iteration."""
        nu_target = np.asarray(nu_target, dtype=float)
        t = np.zeros(self.dim) if t0 is None else np.asarray(t0, dtype=float).copy()
        for _ in range(max_iter):
            r = nu_target - self.nu(t)
            if np.linalg.norm(r) <= tol * max(1.0, np.linalg.norm(nu_target)):
                return t
            step, *_ = np.linalg.lstsq(self.dnu(t), r, rcond=None)
            t = t + step
        raise RankLoss("chart inversion did not converge; point may be outside the chart")


def orbit_chart(a: LieAlgebra, mu, m_basis, radius: float = 1.0) -> OrbitChart:
    """Build the exponential chart; checks ν(0) = μ and full rank at 0."""
    mu = np.asarray(mu, dtype=float)
    m_basis = np.atleast_2d(np.asarray(m_basis, dtype=float))
    chart = OrbitChart(a, mu.copy(), m_basis.copy(), radius)
    if chart.dim:
        if np.linalg.norm(chart.nu(np.zeros(chart.dim)) - mu) > 1e-12 * (1 + np.linalg.norm(mu)):
            raise RankLoss("chart center does not map to mu")
        chart.check_rank(np.zeros(chart.dim))
    return chart


@dataclass(frozen=True)
class OrbitTangentFrame:
    """Tangent frame of the orbit at a point: f_a = d/ds Coad(exp(s E_a))ν|_0."""

    nu: np.ndarray
    vectors: np.ndarray


def orbit_tangent_frame(a: LieAlgebra, nu, m_basis) -> OrbitTangentFrame:
    """Frame f_a = -ν∘ad(E_a); full rank wherever the chart is valid."""
    nu = np.asarray(nu, dtype=float)
    m_basis = np.atleast_2d(np.asarray(m_basis, dtype=float))
    K_T = a.bracket_pairing(nu).T
    return OrbitTangentFrame(nu.copy(), -(K_T @ m_basis))


def tangent_representative(a: LieAlgebra, nu, v,
                           tol: float = TANGENT_RESIDUAL_TOL) -> np.ndarray:
    """An algebra element X with ν∘ad(X) = v, by least squares.

    Well defined only modulo the stabilizer of ν; the pairing below does not
    depend on the representative.  Raises NotTangent when no X fits.
    """
    nu = np.asarray(nu, dtype=float)
    v = np.asarray(v, dtype=float)
    K_T = a.bracket_pairing(nu).T
    X, *_ = np.linalg.lstsq(K_T, v, rcond=None)
    residual = np.linalg.norm(K_T @ X - v)
    if residual > tol * max(1.0, np.linalg.norm(v)):
        raise NotTangent(f"no algebra element maps to the given vector (residual {residual:.3e})")
    return X


def kks_form(a: LieAlgebra, nu, v, w) -> float:
    """Canonical orbit 2-form: ⟨ν, [X, Y]⟩ for ν∘ad(X) = v, ν∘ad(Y) = w."""
    nu = np.asarray(nu, dtype=float)
    X = tangent_representative(a, nu, v)
    Y = tangent_representative(a, nu, w)
    return float(nu @ a.bracket(X, Y))
