"""Linear connections on phase space, expressed over the left-invariant frame.

The frame consists of the n left-invariant group directions followed by the
n constant fiber directions.  A connection is its coefficient array: Γ(ξ)[a, b, c]
is the c-component of the covariant derivative of frame field b along frame
field a at the fiber point ξ, and a stack Γ (…, 2n, 2n, 2n) holds it at a
stack of fiber points (…, n).  The frame bracket is ([X, X'], 0) on group pairs
and zero when a fiber direction is involved, so torsion and ∇ω reduce to
structure-constant algebra.

The constructions are functions on these arrays: the bi-invariant torsion-free
baseline Γ° of ∇°(X̃, X̃') = ½[X, X']~, the projection of a torsion-free Γ onto
the symplectic connections, and the pullback by a right translation.

Every evaluation is stacked: ξ may be one fiber point (n,) or a stack (…, n),
and a Γ stack's leading axes broadcast against ξ's (a ξ-independent Γ may be
passed as one (2n)³ array).  Ω(ξ), ∇ω and the symplectization then carry ξ's
leading axes, each row bit for bit as the call on its fiber point alone (a
pullback's to roundoff).
"""

from __future__ import annotations

import numpy as np

from .liealg import LieAlgebra, coadjoint_matrix
from .phasespace import omega_gram


def frame_structure(a: LieAlgebra) -> np.ndarray:
    """Bracket coefficients of the frame fields: the algebra bracket on group
    pairs, zero elsewhere (fiber directions are constant and commute)."""
    n = a.dim
    C = np.zeros((2 * n, 2 * n, 2 * n))
    C[:n, :n, :n] = a.c
    return C


def baseline_coefficients(a: LieAlgebra) -> np.ndarray:
    """Γ° of the bi-invariant connection, the same at every fiber point: half
    the bracket on group directions, read-only."""
    n = a.dim
    gamma = np.zeros((2 * n, 2 * n, 2 * n))
    gamma[:n, :n, :n] = 0.5 * a.c
    gamma.setflags(write=False)
    return gamma


def nabla_omega_components(a: LieAlgebra, xi, gamma, om=None) -> np.ndarray:
    """(∇ω)[a, b, c] = DΩ[a, b, c] − Σ_d Γ[a, b, d] Ω[d, c] − Σ_d Γ[a, c, d] Ω[b, d]
    over all frame triples at fiber point ξ, or at each row of a stack, from Γ(ξ)
    and from ``om`` when the caller has Ω(ξ).  Ω is antisymmetric, so the last
    term is the transpose of −Γ·Ω and X = Γ·Ω gives DΩ − X + Xᵀ over (b, c): one
    matmul per Γ slice, so a row of a stack equals the call on its ξ alone."""
    x = gamma @ (omega_gram(a, xi) if om is None else om)[..., None, :, :]
    return a._omega_derivative - x + np.swapaxes(x, -1, -2)


def symplectized_coefficients(a: LieAlgebra, xi, gamma) -> np.ndarray:
    """Γ(ξ) of the projection of a torsion-free connection onto the symplectic
    ones, from its Γ(ξ).

    Adds the symmetric correction A determined by

        ω(A(U)V, W) = ⅓ [(∇_U ω)(V, W) + (∇_V ω)(U, W)],

    which kills ∇ω for any torsion-free input because ω is closed, and keeps
    the torsion zero because A(U)V = A(V)U.  Each A(U)V solves Ωᵀ z = r, whose
    Gram Ω(ξ) = [[−K(ξ), −I], [I, 0]] has determinant 1 and the inverse
    [[0, I], [−I, −K(ξ)]]: for the right-hand sides r = (r_g, r_f) the rows
    zᵀ = rᵀ Ω⁻¹ are (−r_f, r_g − r_f K(ξ)), one (2n × n)·(n × n) product per
    Γ slice.
    """
    n, om = a.dim, omega_gram(a, xi)
    N = nabla_omega_components(a, xi, gamma, om)
    rhs = (N + np.swapaxes(N, -3, -2)) / 3.0
    r_g, r_f = rhs[..., :n], rhs[..., n:]
    # om's upper-left block is −K(ξ)
    return gamma + np.concatenate([-r_f, r_g + r_f @ om[..., None, :n, :n]], axis=-1)


def torsion_components(a: LieAlgebra, gamma) -> np.ndarray:
    """T[a, b, c] = Γ[a, b, c] - Γ[b, a, c] - C[a, b, c] over frame triples."""
    return gamma - np.swapaxes(gamma, -3, -2) - frame_structure(a)


def torsion_defect(a: LieAlgebra, gamma) -> float:
    return float(np.max(np.abs(torsion_components(a, gamma))))


def nabla_omega_defect(a: LieAlgebra, xi, gamma) -> float:
    return float(np.max(np.abs(nabla_omega_components(a, xi, gamma))))


# --- pullback -----------------------------------------------------------------


def frame_transport(Ad: np.ndarray) -> np.ndarray:
    """The block matrix diag(Ad g, Coad g) acting on frame components, from Ad g,
    or a stack of them from a stack (…, n, n)."""
    n = Ad.shape[-1]
    T = np.zeros(Ad.shape[:-2] + (2 * n, 2 * n))
    T[..., :n, :n] = Ad
    T[..., n:, n:] = coadjoint_matrix(Ad)
    return T


def pullback_coefficients(g: np.ndarray, gamma) -> np.ndarray:
    """Γ(ξ) of the pullback of a connection by the lifted right translation by
    the group element with Ad matrix g, from the connection's Γ stack at the
    moved fiber points Coad(g⁻¹)ξ, ``linalg.matvec(coadjoint_matrix(inv(g)), ξ)``.

    The frame transport of the right translation is the constant block matrix
    diag(Ad(g⁻¹), Coad(g⁻¹)), so the pullback conjugates Γ by it.
    """
    T = frame_transport(np.linalg.inv(g))
    # Γ[…, A, B, C]·T[A, a]·T[B, b]·T(g)[c, C]: one pairwise contraction per factor,
    # (2n)⁴ each, instead of one (2n)⁶ loop; the order sets the roundoff of the result
    return np.tensordot(np.tensordot(np.tensordot(gamma, T, (-3, 0)), T, (-3, 0)),
                        frame_transport(g), (-3, 1))


def connection_to_json(a: LieAlgebra, xis, gammas, claims: dict) -> dict:
    """Frame labels, the ``claims`` about the connection (its label and
    flags) and its Γ stack ``gammas`` at the fiber points ``xis`` (m, n)."""
    n = a.dim
    labels = [f"group_{i}" for i in range(n)] + [f"fiber_{i}" for i in range(n)]
    entries = [{"xi": xi.tolist(), "gamma": gamma.tolist()} for xi, gamma in zip(xis, gammas)]
    return {"algebra": a.name, "dim": n, "frame": labels, **claims, "evaluations": entries}
