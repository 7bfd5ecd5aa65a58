"""Coadjoint orbit charts and the Kirillov-Kostant-Souriau form.

The reduced manifold is represented concretely as the coadjoint orbit through
μ, with the quotient map realized by (g, μ) ↦ Coad(g)μ.  A chart is built
from a complement m of the stabilizer: chart coordinates t parametrize
ν(t) = Coad(exp(Σ t_a E_a))μ together with the section (exp(Σ t_a E_a), μ)
into the momentum level set.  Coad, the section vectors and the chart
differential at t, with the exact derivatives of the section vectors along
every chart direction, come from one ``linalg.expm`` of a stack of 3n×3n
blocks, for one chart point or for a whole stack of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NotTangent, RankLoss
from .liealg import LieAlgebra, coadjoint_matrix, group_exp

TANGENT_RESIDUAL_TOL = 1e-8
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

    def exp_data(self, ts) -> tuple[np.ndarray, ...]:
        """Coad(exp A), the section vectors, the chart differential and the
        derivatives of the section vectors along each chart direction c,
        stacked over the chart points t of ``ts`` (rows, or one t; A = Σ t_a E_a).
        Each distinct t takes one stack of the block exponentials
        expm([[−ad A, −ad E_c, 0], [0, −ad A, I], [0, 0, 0]]), all in one call
        (Van Loan 1978; Al-Mohy–Higham 2009): blocks (1, 1) and (2, 3) are
        e^{−ad A} = Coad(exp A)ᵀ and φ₁(−ad A), and block (1, 3) is the
        derivative of φ₁(−ad A) along E_c."""
        a, n, m = self.algebra, self.algebra.dim, self.m_basis
        ts = np.atleast_2d(np.asarray(ts, dtype=float))
        slot: dict = {}
        inverse = [slot.setdefault(t.tobytes(), len(slot)) for t in ts]
        block = np.zeros((len(slot), max(self.dim, 1), 3 * n, 3 * n))
        block[:, :, :n, :n] = block[:, :, n:2 * n, n:2 * n] = np.array(
            [-a.ad(m @ ts[inverse.index(i)]) for i in range(len(slot))])[:, None]
        block[:, : self.dim, :n, n:2 * n] = -np.einsum("ijk,ic->ckj", a.c, m)
        block[:, :, n:2 * n, 2 * n:] = np.eye(n)
        E = linalg.expm(block, batch_ndim=1)[inverse]
        coad = E[:, 0, :n, :n].transpose(0, 2, 1)
        vecs = E[:, 0, n:2 * n, 2 * n:] @ m
        K_T = a.bracket_pairing(self.mu).T
        return coad, vecs, -coad @ (K_T @ vecs), E[:, : self.dim, :n, 2 * n:] @ m

    def section_vectors(self, t) -> np.ndarray:
        """Left-trivialized velocities of the chart directions at t: column a is
        exp(A)⁻¹ d/ds exp(A + s E_a)|_0 = φ₁(−ad A) E_a."""
        return self.exp_data(t)[1][0]

    def dnu(self, t) -> np.ndarray:
        """Chart differential: column a is -Coad(g) (μ∘ad(X_a(t)))."""
        return self.exp_data(t)[2][0]

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


def orbit_tangent_frame(a: LieAlgebra, nu, m_basis) -> np.ndarray:
    """Tangent frame of the orbit at ν, column a being f_a = d/ds Coad(exp(s E_a))ν|_0
    = -ν∘ad(E_a), i.e. −K(ν)ᵀ·m; full rank wherever the chart is valid."""
    m_basis = np.atleast_2d(np.asarray(m_basis, dtype=float))
    return -(a.bracket_pairing(nu).T @ m_basis)


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


def kks_pairs(a: LieAlgebra, D: np.ndarray, nu: np.ndarray, omega: np.ndarray) -> list:
    """(reduced, canonical) orbit-form values on the chart coordinate pairs
    i < j at a chart point where the canonical value is nonzero: D = dnu there,
    nu the orbit point and ``omega`` the reduced form on the coordinate
    tangents."""
    km = D.shape[1]
    pairs = [(omega[i, j], kks_form(a, nu, D[:, i], D[:, j]))
             for i in range(km) for j in range(i + 1, km)]
    return [(red, ref) for red, ref in pairs if abs(ref) > 1e-12]


def kks_gap(pairs) -> float:
    """Largest relative gap of the (reduced, sign-matched canonical) pairs of ``kks_pairs``."""
    return max([0.0] + [abs(red - KKS_MATCH_SIGN * ref) / abs(ref) for red, ref in pairs])
