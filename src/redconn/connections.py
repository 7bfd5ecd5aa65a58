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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SingularOmega
from .liealg import LieAlgebra, coadjoint_matrix, group_exp
from .phasespace import _tangent_pair, omega_gram


@dataclass(frozen=True)
class FrameConnection:
    """Connection coefficients over the left-invariant frame.

    ``coeff`` maps a fiber point ξ to the (2n, 2n, 2n) array Γ(ξ); the flags
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
    return FrameConnection(a, lambda xi: gamma, is_torsion_free=True,
                           is_symplectic=False, label="baseline")


def _omega_derivative(a: LieAlgebra) -> np.ndarray:
    """DΩ[a, b, c]: derivative of the Gram matrix along frame direction a.

    Only fiber directions move ξ, and only the group-group block of Ω depends
    on ξ (linearly), so DΩ[n + m, i, j] = -c[i, j, m].
    """
    n = a.dim
    D = np.zeros((2 * n, 2 * n, 2 * n))
    D[n:, :n, :n] = -np.moveaxis(a.c, 2, 0)
    return D


def nabla_omega_components(conn: FrameConnection, xi, gamma=None, om=None) -> np.ndarray:
    """(∇ω)[a, b, c] = DΩ[a, b, c] − Σ_d Γ[a, b, d] Ω[d, c] − Σ_d Γ[a, c, d] Ω[b, d]
    over all frame triples at fiber point ξ, from ``gamma`` and ``om`` when the
    caller has Γ(ξ) and Ω(ξ)."""
    a = conn.algebra
    gamma = conn.coefficients(xi) if gamma is None else gamma
    om = omega_gram(a, xi) if om is None else om
    return _omega_derivative(a) - gamma @ om - (gamma @ om.T).transpose(0, 2, 1)


def nabla_omega(conn: FrameConnection, xi, u, v, w) -> float:
    """(∇_u ω)(v, w) for left-trivialized tangent vectors at ξ."""
    a = conn.algebra
    uv = _tangent_pair(a, u)
    vv = _tangent_pair(a, v)
    wv = _tangent_pair(a, w)
    return float(np.einsum("abc,a,b,c->", nabla_omega_components(conn, xi), uv, vv, wv))


def baseline_nabla_omega(a: LieAlgebra, xi, u, v, w) -> float:
    """Analytic expansion of (∇°ω): with u = (X, η), v = (Y, ζ), w = (Y', ζ'),

        -⟨η, [Y, Y']⟩ + ½⟨ζ', [X, Y]⟩ - ½⟨ζ, [X, Y']⟩ + ½⟨ξ, [X, [Y, Y']]⟩.
    """
    n = a.dim
    uv = _tangent_pair(a, u)
    vv = _tangent_pair(a, v)
    wv = _tangent_pair(a, w)
    X, eta = uv[:n], uv[n:]
    Y, zeta = vv[:n], vv[n:]
    Yp, zetap = wv[:n], wv[n:]
    xi = np.asarray(xi, dtype=float)
    byyp = a.bracket(Y, Yp)
    return float(-eta @ byyp + 0.5 * zetap @ a.bracket(X, Y)
                 - 0.5 * zeta @ a.bracket(X, Yp) + 0.5 * xi @ a.bracket(X, byyp))


def solve_omega_gram(om: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ω(z, ·) = rhs for z, i.e. Ωᵀ z = rhs, for stacked right-hand sides.

    Raises SingularOmega instead of silently pseudo-inverting: nondegeneracy
    of ω is a structural assumption worth surfacing.
    """
    s = np.linalg.svd(om, compute_uv=False)
    if s[-1] <= 1e-10 * s[0]:
        raise SingularOmega(f"symplectic Gram matrix singular (sigma_min/sigma_max = {s[-1] / s[0]:.3e})")
    flat = rhs.reshape(-1, om.shape[0])
    return np.linalg.solve(om.T, flat.T).T.reshape(rhs.shape)


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
    rhs = (N + N.transpose(1, 0, 2)) / 3.0
    return gamma + solve_omega_gram(om, rhs)


def torsion_components(conn: FrameConnection, xi, gamma=None) -> np.ndarray:
    """T[a, b, c] = Γ[a, b, c] - Γ[b, a, c] - C[a, b, c] over frame triples, from
    ``gamma`` when the caller has Γ(ξ)."""
    gamma = conn.coefficients(xi) if gamma is None else gamma
    return gamma - gamma.transpose(1, 0, 2) - frame_structure(conn.algebra)


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
    """The Ad matrices of the cyclic subgroup generated by exp(2π X / order)."""
    if order < 1:
        raise ValueError("order must be positive")
    X = np.asarray(X, dtype=float)
    return tuple(group_exp(a, (2.0 * np.pi * k / order) * X) for k in range(order))


def frame_transport(Ad: np.ndarray) -> np.ndarray:
    """The block matrix diag(Ad g, Coad g) acting on frame components, from Ad g."""
    n = Ad.shape[0]
    T = np.zeros((2 * n, 2 * n))
    T[:n, :n] = Ad
    T[n:, n:] = coadjoint_matrix(Ad)
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
        moved = coad_inv @ xi
        # pairwise contractions in the optimizer's order, (2n)⁴ each, instead
        # of one (2n)⁶ loop; the order sets the roundoff of the result
        return np.einsum("Aa,Bb,cC,ABC->abc", T, T, Tinv, conn.coefficients(moved),
                         optimize=True)

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
    entries = []
    for xi in xi_list:
        xi = np.asarray(xi, dtype=float)
        entries.append({"xi": xi.tolist(), "gamma": conn.coefficients(xi).tolist()})
    return {
        "algebra": conn.algebra.name,
        "dim": n,
        "frame": labels,
        "label": conn.label,
        "is_torsion_free": conn.is_torsion_free,
        "is_symplectic": conn.is_symplectic,
        "evaluations": entries,
    }
