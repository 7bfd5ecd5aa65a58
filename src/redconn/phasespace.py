"""The left-trivialized cotangent bundle of a Lie group.

Phase space is the product G x g*, a point being a pair (g, ξ), with g given
by its Ad matrix.  Tangent vectors are written in the left-invariant frame as
pairs (X, η) in g ⊕ g*, stacked into one array of length 2n, where X is the
left-trivialized group direction and η the fiber direction.
In this frame the canonical symplectic form reads

    ω_(g,ξ)((X, η), (X', η')) = ⟨η, X'⟩ - ⟨η', X⟩ - ⟨ξ, [X, X']⟩,

so it depends on ξ only.  On a level set {ξ = μ} of the right momentum map
the constraint subspaces are frame-constant and the right-action generators
depend on μ alone; the left momentum map J(g, ξ) = Coad(g)ξ is the quotient
map, a submersion everywhere.  Every function takes stacks: (…, n) fiber
points and algebra elements and (…, 2n) tangents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import RankLoss
from .liealg import LieAlgebra, stabilizer_algebra


def _tangent_pair(a: LieAlgebra, u) -> np.ndarray:
    v = np.asarray(u, dtype=float)
    if v.shape[-1:] != (2 * a.dim,):
        raise ValueError(f"tangent vector must have length {2 * a.dim}")
    return v


def omega_gram(a: LieAlgebra, xi) -> np.ndarray:
    """Gram matrix Ω(ξ) of ω in the frame, so ω(u, v) = uᵀ Ω v on stacked pairs;
    a stack (…, 2n, 2n) for a stack of fiber points (…, n)."""
    K, n = a.bracket_pairing(xi), a.dim
    om = np.zeros(K.shape[:-2] + (2 * n, 2 * n))
    om[..., :n, :n] = -K
    om[..., :n, n:], om[..., n:, :n] = -np.eye(n), np.eye(n)
    return om


def symplectic_form(a: LieAlgebra, xi, u, v):
    """ω_ξ(u, v) for left-trivialized tangent vectors, row by row over stacks alike.

    Evaluated term by term rather than through the Gram matrix so that
    antisymmetry, and in particular ω(u, u) = 0, holds exactly in floating
    point.
    """
    n = a.dim
    uv = _tangent_pair(a, u)
    vv = _tangent_pair(a, v)
    xi = np.asarray(xi, dtype=float)
    X, eta = uv[..., :n], uv[..., n:]
    Xp, etap = vv[..., :n], vv[..., n:]
    return linalg.vecdot(eta, Xp) - linalg.vecdot(etap, X) - linalg.vecdot(xi, a.bracket(X, Xp))


def right_generator(a: LieAlgebra, xi, X) -> np.ndarray:
    """Generator (X, ξ∘ad X) of the lifted right translation action at fiber
    point ξ, whatever the group element, stacked like X."""
    X = np.asarray(X, dtype=float)
    return np.concatenate([X, a.coad_star(X, xi)], axis=-1)


@dataclass(frozen=True)
class ConstraintSplit:
    """Frame-constant subspaces of g ⊕ g* attached to a momentum level μ.

    ``t_sigma`` spans the tangent space of the level set, ``t_perp`` its
    ω-orthogonal (the group-orbit directions), ``delta`` their intersection
    (the radical of ω restricted to the level set), and ``sum`` their span.
    """

    t_sigma: np.ndarray
    t_perp: np.ndarray
    delta: np.ndarray
    sum: np.ndarray
    g_mu: np.ndarray


def constraint_split(a: LieAlgebra, mu) -> ConstraintSplit:
    """Compute the four constraint subspaces at level ξ = μ.

    In the left frame: TΣ = {(X, 0)}, TΣ^⊥ = {(X, μ∘ad(X))}, and the radical
    is {(Y, 0) : Y in the stabilizer of μ}.
    """
    mu = np.asarray(mu, dtype=float)
    n = a.dim
    t_sigma = np.vstack([np.eye(n), np.zeros((n, n))])
    graph = np.vstack([np.eye(n), a.bracket_pairing(mu).T])
    t_perp = linalg.orthonormal_columns(graph)
    g_mu = stabilizer_algebra(a, mu)
    delta = np.vstack([g_mu, np.zeros((n, g_mu.shape[1]))])
    total = linalg.orthonormal_columns(np.hstack([t_sigma, graph]))
    k = g_mu.shape[1]
    if total.shape[1] != 2 * n - k or delta.shape[1] != k:
        raise RankLoss("constraint split dimensions are inconsistent")
    return ConstraintSplit(t_sigma, t_perp, delta, total, g_mu)
