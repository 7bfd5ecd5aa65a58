"""The left-trivialized cotangent bundle of a Lie group.

Phase space is the product G x g*, a point being a pair (g, ξ).  Tangent
vectors are written in the left-invariant frame as pairs (X, η) in g ⊕ g*,
stacked into one array of length 2n, where X is the left-trivialized group
direction and η the fiber direction.
In this frame the canonical symplectic form reads

    ω_(g,ξ)((X, η), (X', η')) = ⟨η, X'⟩ - ⟨η', X⟩ - ⟨ξ, [X, X']⟩,

so it depends on ξ only, and every level set {ξ = μ} of the right momentum
map carries frame-constant constraint subspaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import PointOffConstraint
from .liealg import LieAlgebra, coadjoint_matrix


@dataclass(frozen=True)
class PhasePoint:
    """A point (g, ξ) of the trivialized cotangent bundle, g given by its Ad
    matrix.  ``g`` may be None where only right-side operations are asked for;
    left-side operations then raise ValueError.
    """

    g: np.ndarray | None
    xi: np.ndarray


def _tangent_pair(a: LieAlgebra, u) -> np.ndarray:
    v = np.asarray(u, dtype=float)
    if v.shape != (2 * a.dim,):
        raise ValueError(f"tangent vector must have length {2 * a.dim}")
    return v


def omega_gram(a: LieAlgebra, xi) -> np.ndarray:
    """Gram matrix Ω(ξ) of ω in the frame, so ω(u, v) = uᵀ Ω v on stacked pairs."""
    n = a.dim
    K = a.bracket_pairing(xi)
    top = np.hstack([-K, -np.eye(n)])
    bottom = np.hstack([np.eye(n), np.zeros((n, n))])
    return np.vstack([top, bottom])


def symplectic_form(a: LieAlgebra, xi, u, v) -> float:
    """ω_ξ(u, v) for left-trivialized tangent vectors.

    Evaluated term by term rather than through the Gram matrix so that
    antisymmetry, and in particular ω(u, u) = 0, holds exactly in floating
    point.
    """
    n = a.dim
    uv = _tangent_pair(a, u)
    vv = _tangent_pair(a, v)
    xi = np.asarray(xi, dtype=float)
    X, eta = uv[:n], uv[n:]
    Xp, etap = vv[:n], vv[n:]
    return float(eta @ Xp) - float(etap @ X) - float(xi @ a.bracket(X, Xp))


def liouville_form(a: LieAlgebra, xi, u) -> float:
    """The tautological 1-form: θ(X, η) = ⟨ξ, X⟩, independent of the fiber part."""
    uv = _tangent_pair(a, u)
    return float(np.asarray(xi, dtype=float) @ uv[: a.dim])


def fundamental_field(a: LieAlgebra, side: str, X, p: PhasePoint) -> np.ndarray:
    """Generator of the lifted left or right translation action at p, as the
    stacked pair (X, η).

    In the left-invariant frame the right generator is (X, ξ∘ad(X)) and the
    left generator is (-Ad(g⁻¹)X, 0).
    """
    X = np.asarray(X, dtype=float)
    if side == "right":
        return np.concatenate([X, a.coad_star(X, p.xi)])
    if side == "left":
        if p.g is None:
            raise ValueError("left generator needs a group element")
        return np.concatenate([-(np.linalg.inv(p.g) @ X), np.zeros(a.dim)])
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def momentum_map(a: LieAlgebra, side: str, p: PhasePoint) -> np.ndarray:
    """J_right(g, ξ) = ξ and J_left(g, ξ) = Coad(g)ξ."""
    if side == "right":
        return np.asarray(p.xi, dtype=float).copy()
    if side == "left":
        if p.g is None:
            raise ValueError("left momentum map needs a group element")
        return coadjoint_matrix(p.g) @ np.asarray(p.xi, dtype=float)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


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
    from .liealg import stabilizer_algebra

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
        raise RuntimeError("constraint split dimensions are inconsistent")
    return ConstraintSplit(t_sigma, t_perp, delta, total, g_mu)


def momentum_differential(a: LieAlgebra, side: str, p: PhasePoint) -> np.ndarray:
    """Matrix of the momentum map differential on left-trivialized tangents.

    For the right action the differential is the fiber projection [0 | I];
    for the left action it is Coad(g) @ [-ξ∘ad(·) | I].
    """
    n = a.dim
    if side == "right":
        return np.hstack([np.zeros((n, n)), np.eye(n)])
    if side == "left":
        if p.g is None:
            raise ValueError("left momentum differential needs a group element")
        block = np.hstack([-a.bracket_pairing(p.xi).T, np.eye(n)])
        return coadjoint_matrix(p.g) @ block
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def regularity_report(a: LieAlgebra, mu, samples, side: str = "right",
                      rtol: float = linalg.RANK_RTOL) -> dict:
    """Check that the momentum differential has full rank n on the level set.

    Each sample must satisfy ξ = μ; the report records the smallest and
    largest singular values per point and an overall regularity flag.
    """
    mu = np.asarray(mu, dtype=float)
    points = []
    regular = True
    for p in samples:
        if np.linalg.norm(np.asarray(p.xi, dtype=float) - mu) > 1e-10 * (1 + np.linalg.norm(mu)):
            raise PointOffConstraint("sample has xi != mu")
        s = np.linalg.svd(momentum_differential(a, side, p), compute_uv=False)
        ok = bool(s[-1] > rtol * s[0])
        regular = regular and ok
        points.append({"sigma_min": float(s[-1]), "sigma_max": float(s[0]), "regular": ok})
    return {"side": side, "points": points, "regular": regular}
