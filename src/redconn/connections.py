"""Linear connections on phase space, expressed over the left-invariant frame.

The frame consists of the n left-invariant group directions followed by the
n constant fiber directions; a connection is a map ξ ↦ Γ(ξ) with Γ[a, b, c]
the c-component of the covariant derivative of frame field b along frame
field a.  The frame bracket is ([X, X'], 0) on group pairs and zero when a
fiber direction is involved, so torsion and ∇ω reduce to structure-constant
algebra.

Three constructions are provided: the bi-invariant torsion-free baseline
∇°(X̃, X̃') = ½[X, X']~, its projection onto the space of symplectic
connections, and the equal-weight average of its pullbacks over a finite set
of group elements, for building invariant connections on compact groups.

Every evaluation is stacked: ξ may be one fiber point (n,) or a stack (…, n),
and Γ(ξ), Ω(ξ), ∇ω and the symplectization then carry the same leading axes,
each row bit for bit as the call on its fiber point alone (a pullback's to roundoff).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg
from .errors import SingularOmega
from .liealg import LieAlgebra, coadjoint_matrix, group_exp
from .phasespace import _tangent_pair, omega_gram


@dataclass(frozen=True)
class FrameConnection:
    """Connection coefficients over the left-invariant frame.

    ``coeff`` maps a fiber point ξ to the (2n, 2n, 2n) array Γ(ξ), and a stack
    of fiber points (…, n) to the stack (…, 2n, 2n, 2n); the flags
    are the constructing routine's claims, which nothing here checks (the
    connect stage and ``verify`` measure torsion and ∇ω).
    """

    algebra: LieAlgebra
    coeff: Callable[[np.ndarray], np.ndarray]
    is_torsion_free: bool = False
    is_symplectic: bool = False
    label: str = ""

    def coefficients(self, xi) -> np.ndarray:
        return self.coeff(np.asarray(xi, dtype=float))


def frame_structure(a: LieAlgebra) -> np.ndarray:
    """Bracket coefficients of the frame fields: the algebra bracket on group
    pairs, zero elsewhere (fiber directions are constant and commute)."""
    n = a.dim
    C = np.zeros((2 * n, 2 * n, 2 * n))
    C[:n, :n, :n] = a.c
    return C


def baseline_connection(a: LieAlgebra) -> FrameConnection:
    """The bi-invariant connection: half the bracket on group directions."""
    n = a.dim
    gamma = np.zeros((2 * n, 2 * n, 2 * n))
    gamma[:n, :n, :n] = 0.5 * a.c
    gamma.setflags(write=False)
    return FrameConnection(a, lambda xi: np.broadcast_to(gamma, np.shape(xi)[:-1] + gamma.shape),
                           is_torsion_free=True, is_symplectic=False, label="baseline")


def nabla_omega_components(conn: FrameConnection, xi, gamma=None, om=None) -> np.ndarray:
    """(∇ω)[a, b, c] = DΩ[a, b, c] − Σ_d Γ[a, b, d] Ω[d, c] − Σ_d Γ[a, c, d] Ω[b, d]
    over all frame triples at fiber point ξ, or at each row of a stack, from
    ``gamma`` and ``om`` when the caller has Γ(ξ) and Ω(ξ).  Each product is one
    matmul per Γ slice, so a row of a stack equals the call on its ξ alone."""
    a = conn.algebra
    gamma = conn.coefficients(xi) if gamma is None else gamma
    om = (omega_gram(a, xi) if om is None else om)[..., None, :, :]
    return a._omega_derivative - gamma @ om - np.swapaxes(gamma @ np.swapaxes(om, -1, -2), -1, -2)


def nabla_omega(conn: FrameConnection, xi, u, v, w):
    """(∇_u ω)(v, w) for left-trivialized tangent vectors at ξ, or row by row
    over stacks ξ (…, n) and u, v, w (…, 2n), each row contracted as the call
    on it alone contracts it."""
    a = conn.algebra
    uv, vv, wv = (_tangent_pair(a, x) for x in (u, v, w))
    out = np.einsum("...abc,...a,...b,...c->...", nabla_omega_components(conn, xi), uv, vv, wv)
    return float(out) if np.ndim(out) == 0 else out


def baseline_nabla_omega(a: LieAlgebra, xi, u, v, w):
    """Analytic expansion of (∇°ω), for one point or row by row over stacks as
    ``nabla_omega``: with u = (X, η), v = (Y, ζ), w = (Y', ζ'),

        -⟨η, [Y, Y']⟩ + ½⟨ζ', [X, Y]⟩ - ½⟨ζ, [X, Y']⟩ + ½⟨ξ, [X, [Y, Y']]⟩.
    """
    (X, eta), (Y, zeta), (Yp, zetap) = (np.split(_tangent_pair(a, x), 2, axis=-1)
                                        for x in (u, v, w))
    xi = np.asarray(xi, dtype=float)
    byyp = a.bracket(Y, Yp)
    dot = linalg.vecdot
    return (-dot(eta, byyp) + 0.5 * dot(zetap, a.bracket(X, Y))
            - 0.5 * dot(zeta, a.bracket(X, Yp)) + 0.5 * dot(xi, a.bracket(X, byyp)))


def solve_omega_gram(om: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ω(z, ·) = rhs for z, i.e. Ωᵀ z = rhs, for stacked right-hand sides
    (…, m); for a stack of Grams (…, m, m), rhs's leading axes begin with the
    stack's.  One batched SVD check and one batched solve, each Gram on its own.

    Raises SingularOmega instead of silently pseudo-inverting: nondegeneracy
    of ω is a structural assumption worth surfacing.
    """
    s = np.linalg.svd(om, compute_uv=False)
    if np.any(s[..., -1] <= 1e-10 * s[..., 0]):
        ratio = np.min(s[..., -1] / s[..., 0])
        raise SingularOmega(f"symplectic Gram matrix singular (sigma_min/sigma_max = {ratio:.3e})")
    flat = np.swapaxes(rhs.reshape(om.shape[:-2] + (-1, om.shape[-1])), -1, -2)
    return np.swapaxes(np.linalg.solve(np.swapaxes(om, -1, -2), flat), -1, -2).reshape(rhs.shape)


def symplectize(conn: FrameConnection) -> FrameConnection:
    """Project a torsion-free connection onto the symplectic ones.

    Adds the symmetric correction A determined by

        ω(A(U)V, W) = ⅓ [(∇_U ω)(V, W) + (∇_V ω)(U, W)],

    which kills ∇ω for any torsion-free input because ω is closed, and keeps
    the torsion zero because A(U)V = A(V)U.
    """
    return FrameConnection(conn.algebra, lambda xi: symplectized_coefficients(conn, xi),
                           is_torsion_free=True, is_symplectic=True,
                           label=f"symplectized({conn.label})")


def symplectized_coefficients(conn: FrameConnection, xi, gamma=None) -> np.ndarray:
    """Γ(ξ) of ``symplectize(conn)``, from ``gamma`` when the caller has conn's Γ(ξ)."""
    gamma = conn.coefficients(xi) if gamma is None else gamma
    om = omega_gram(conn.algebra, xi)
    N = nabla_omega_components(conn, xi, gamma, om)
    rhs = (N + np.swapaxes(N, -3, -2)) / 3.0
    return gamma + solve_omega_gram(om, rhs)


def torsion_components(conn: FrameConnection, xi, gamma=None) -> np.ndarray:
    """T[a, b, c] = Γ[a, b, c] - Γ[b, a, c] - C[a, b, c] over frame triples, from
    ``gamma`` when the caller has Γ(ξ)."""
    gamma = conn.coefficients(xi) if gamma is None else gamma
    return gamma - np.swapaxes(gamma, -3, -2) - frame_structure(conn.algebra)


def torsion(conn: FrameConnection, xi, u, v) -> np.ndarray:
    """Torsion tensor of the connection evaluated on two tangent vectors."""
    a = conn.algebra
    return np.einsum("abc,a,b->c", torsion_components(conn, xi),
                     _tangent_pair(a, u), _tangent_pair(a, v))


def torsion_defect(conn: FrameConnection, xi, gamma=None) -> float:
    return float(np.max(np.abs(torsion_components(conn, xi, gamma))))


def nabla_omega_defect(conn: FrameConnection, xi, gamma=None) -> float:
    return float(np.max(np.abs(nabla_omega_components(conn, xi, gamma))))


# --- averaging --------------------------------------------------------------


def finite_cyclic_rule(a: LieAlgebra, X, order: int) -> tuple:
    """The Ad matrices of the cyclic subgroup generated by exp(2π X / order), from
    one stacked exponential."""
    if order < 1:
        raise ValueError("order must be positive")
    return tuple(group_exp(a, np.outer(2.0 * np.pi * np.arange(order) / order, X)))


def frame_transport(Ad: np.ndarray) -> np.ndarray:
    """The block matrix diag(Ad g, Coad g) acting on frame components, from Ad g,
    or a stack of them from a stack (…, n, n)."""
    n = Ad.shape[-1]
    T = np.zeros(Ad.shape[:-2] + (2 * n, 2 * n))
    T[..., :n, :n] = Ad
    T[..., n:, n:] = coadjoint_matrix(Ad)
    return T


def pullback_connection(conn: FrameConnection, g: np.ndarray) -> FrameConnection:
    """Pullback of a frame connection by the lifted right translation by the
    group element with Ad matrix g.

    The frame transport of the right translation is the constant block matrix
    diag(Ad(g⁻¹), Coad(g⁻¹)) and the translation moves the fiber point to
    Coad(g⁻¹)ξ, so the pullback conjugates Γ and shifts its argument.
    """
    a = conn.algebra
    n = a.dim
    T = frame_transport(np.linalg.inv(g))
    Tinv = frame_transport(g)
    # Fortran order, as coadjoint_matrix returns it: the layout sets the
    # summation order of coad_inv @ ξ, hence its roundoff
    coad_inv = np.asfortranarray(T[n:, n:])

    def coeff(xi: np.ndarray) -> np.ndarray:
        moved = linalg.matvec(coad_inv, xi)
        # pairwise contractions in the optimizer's order, (2n)⁴ each, instead
        # of one (2n)⁶ loop; the order sets the roundoff of the result
        return linalg.einsum("Aa,Bb,cC,...ABC->...abc", T, T, Tinv, conn.coefficients(moved))

    return FrameConnection(a, coeff, is_torsion_free=conn.is_torsion_free,
                           is_symplectic=conn.is_symplectic, label=f"pullback({conn.label})")


def average_connection(conn: FrameConnection, nodes) -> FrameConnection:
    """Mean of the pullbacks by the group elements with the Ad matrices ``nodes``.

    Each pullback of a torsion-free connection is torsion-free, so their mean
    is torsion-free as well.  When the nodes form a finite subgroup the mean
    is fixed by every node.
    """
    if not nodes:
        raise ValueError("averaging needs at least one node")
    a = conn.algebra
    pulled = [pullback_connection(conn, g) for g in nodes]
    w = 1.0 / len(nodes)

    def coeff(xi: np.ndarray) -> np.ndarray:
        return sum(w * p.coefficients(xi) for p in pulled)

    return FrameConnection(a, coeff, is_torsion_free=conn.is_torsion_free,
                           is_symplectic=False, label=f"averaged({conn.label})")


def perturbed_connection(conn: FrameConnection, delta: np.ndarray,
                         symmetric: bool = True) -> FrameConnection:
    """Add a constant coefficient perturbation; symmetrized to keep torsion zero."""
    d = np.asarray(delta, dtype=float)
    if symmetric:
        d = 0.5 * (d + d.transpose(1, 0, 2))

    def coeff(xi: np.ndarray) -> np.ndarray:
        return conn.coefficients(xi) + d

    return FrameConnection(conn.algebra, coeff,
                           is_torsion_free=conn.is_torsion_free and symmetric,
                           is_symplectic=False, label=f"perturbed({conn.label})")


def connection_to_json(conn: FrameConnection, xi_list) -> dict:
    """Serialize frame labels plus Γ evaluated at a list of fiber points."""
    n = conn.algebra.dim
    labels = [f"group_{i}" for i in range(n)] + [f"fiber_{i}" for i in range(n)]
    xis = np.asarray(xi_list, dtype=float).reshape(-1, n)
    entries = [{"xi": xi.tolist(), "gamma": gamma.tolist()}
               for xi, gamma in zip(xis, conn.coefficients(xis))]
    return {
        "algebra": conn.algebra.name,
        "dim": n,
        "frame": labels,
        "label": conn.label,
        "is_torsion_free": conn.is_torsion_free,
        "is_symplectic": conn.is_symplectic,
        "evaluations": entries,
    }
