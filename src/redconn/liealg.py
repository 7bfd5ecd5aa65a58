"""Lie algebras over structure constants, with optional matrix realizations.

An algebra is stored as its dimension n together with the rank-3 array of
structure constants ``c[i, j, k]``, the e_k-coefficient of [e_i, e_j].  These
fix the group kernels: a group element is its n×n Ad matrix, Ad(exp X) = e^{ad X}
and Coad(g) = Ad(g)⁻ᵀ.  The named catalog algebras also carry a faithful matrix
realization, which ``LieAlgebra.validate`` checks once, at load; nothing at
run time reads it, so tests can use it as an independent route.

Conventions used throughout the library:

- ``LieAlgebra.coad_star(X, xi)`` is the covector ξ∘ad(X), i.e. Y ↦ ⟨ξ, [X, Y]⟩.
- ``Coad(g) = Ad(g⁻¹)ᵀ`` on components, so that the momentum map of the
  lifted left action, (g, ξ) ↦ Coad(g)ξ, is equivariant.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import ConfigError, NonReductiveStabilizer

JACOBI_TOL = 1e-12
REALIZATION_TOL = 1e-12
COMPLEMENT_TOL = 1e-10


@dataclass(frozen=True)
class LieAlgebra:
    """A finite-dimensional real Lie algebra given by structure constants.

    Attributes:
        dim: dimension n of the algebra.
        c: (n, n, n) array with ``c[i, j, k]`` the e_k-coefficient of [e_i, e_j].
        name: optional label.
        realization: optional (n, n_rep, n_rep) stack of matrices realizing the
            basis, with matrix commutators reproducing ``c``.
        det_one: claims the realization's group elements have determinant 1.
        orthogonal: claims the realization's group elements are orthogonal.
    """

    dim: int
    c: np.ndarray
    name: str | None = None
    realization: np.ndarray | None = None
    det_one: bool = False
    orthogonal: bool = False

    @cached_property
    def _upper(self) -> np.ndarray:  # mask of the strict upper triangle, built once
        return np.triu(np.ones((self.dim, self.dim), dtype=bool), k=1)

    @cached_property
    def _omega_derivative(self) -> np.ndarray:
        """DΩ[a, b, c], read-only: the derivative of Ω(ξ) along frame direction a."""
        D = np.zeros((2 * self.dim,) * 3)
        D[self.dim:, :self.dim, :self.dim] = -np.moveaxis(self.c, 2, 0)
        D.setflags(write=False)
        return D

    def validate(self) -> None:
        """Check antisymmetry (exact), the Jacobi identity, and the realization:
        its commutators, and the ``det_one`` and ``orthogonal`` claims exactly on
        the generators (det exp ρ(X) = 1 for all X iff every tr ρ(e_i) = 0, and
        exp ρ(X) is orthogonal for all X iff every ρ(e_i) is antisymmetric)."""
        c = self.c
        n = self.dim
        if c.shape != (n, n, n):
            raise ValueError(f"structure constants have shape {c.shape}, expected {(n,) * 3}")
        if not np.all(c == -c.transpose(1, 0, 2)):
            raise ValueError("structure constants are not antisymmetric in the first two slots")
        if self.jacobi_defect > JACOBI_TOL:
            raise ValueError(f"Jacobi defect {self.jacobi_defect:.3e} exceeds {JACOBI_TOL:.0e}")
        if self.realization is not None:
            rho = self.realization
            if rho.ndim != 3 or rho.shape[0] != n or rho.shape[1] != rho.shape[2]:
                raise ValueError(f"realization has shape {rho.shape}, expected (n, m, m)")
            comm = np.einsum("iab,jbc->ijac", rho, rho) - np.einsum("jab,ibc->ijac", rho, rho)
            rebuilt = np.einsum("ijk,kab->ijab", c, rho)
            defect = float(np.max(np.abs(comm - rebuilt)))
            if defect > REALIZATION_TOL:
                raise ValueError(
                    f"matrix commutators deviate from structure constants by {defect:.3e}"
                )
            trace = float(np.max(np.abs(np.trace(rho, axis1=1, axis2=2))))
            if self.det_one and trace > REALIZATION_TOL:
                raise ValueError(f"det_one claimed, but a generator has trace {trace:.3e}")
            sym = float(np.max(np.abs(rho + rho.transpose(0, 2, 1))))
            if self.orthogonal and sym > REALIZATION_TOL:
                raise ValueError(f"orthogonal claimed, but a generator is not skew ({sym:.3e})")

    @cached_property
    def jacobi_defect(self) -> float:
        """The largest entry of the cyclic sum of [[e_i, e_j], e_k] over the basis,
        computed once: ``validate`` reads it at load and ``lie/jacobi`` again."""
        t = np.einsum("ijl,lkm->ijkm", self.c, self.c)
        jac = t + t.transpose(1, 2, 0, 3) + t.transpose(2, 0, 1, 3)
        return float(np.max(np.abs(jac), initial=0.0))

    def bracket(self, X, Y) -> np.ndarray:
        """Evaluate [X, Y] from the structure constants, for one pair or row by
        row over stacks (…, n) that broadcast together.

        Accumulates over the strict upper triangle so that antisymmetry holds
        exactly in floating point: bracket(X, Y) == -bracket(Y, X) bitwise.
        """
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        if X.shape[-1:] != (self.dim,) or Y.shape[-1:] != (self.dim,):
            raise ValueError(f"bracket arguments must have length {self.dim}")
        W = X[..., :, None] * Y[..., None, :]
        anti = np.where(self._upper, W - np.swapaxes(W, -1, -2), 0.0)
        return np.einsum("...ij,ijk->...k", anti, self.c)

    def ad(self, X) -> np.ndarray:
        """Matrix of ad(X): Y ↦ [X, Y] in the chosen basis, stacked like X."""
        X = np.asarray(X, dtype=float)
        return np.einsum("ijk,...i->...kj", self.c, X)

    def coad_star(self, X, xi) -> np.ndarray:
        """The covector ξ∘ad(X), defined by ⟨ξ∘ad(X), Y⟩ = ⟨ξ, [X, Y]⟩, row by row
        over stacks (…, n) of X and ξ alike."""
        return linalg.matvec(np.swapaxes(self.ad(X), -1, -2), xi)

    def bracket_pairing(self, xi) -> np.ndarray:
        """Antisymmetric matrix K(ξ) with K[i, j] = ⟨ξ, [e_i, e_j]⟩, stacked like ξ."""
        xi = np.asarray(xi, dtype=float)
        return np.einsum("ijk,...k->...ij", self.c, xi)


def stabilizer_algebra(a: LieAlgebra, mu) -> np.ndarray:
    """Orthonormal basis of the stabilizer {Y | μ∘ad(Y) = 0} (shape (n, k))."""
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (a.dim,):
        raise ValueError(f"mu must have length {a.dim}")
    # row j of the map Y ↦ μ∘ad(Y) is ⟨μ, [e_i, e_j]⟩ contracted over i
    return linalg.nullspace(a.bracket_pairing(mu).T)


def _is_subalgebra(a: LieAlgebra, basis: np.ndarray, tol: float) -> bool:
    b = a.bracket(basis.T[:, None], basis.T)  # the bracket of every pair of columns
    gap = np.linalg.norm(b - linalg.matvec(linalg.projector(basis), b), axis=-1)
    return bool(np.all(gap <= tol * np.maximum(1.0, np.linalg.norm(b, axis=-1))))


def _stability_defect(a: LieAlgebra, g_mu: np.ndarray, m: np.ndarray) -> float:
    """max distance of [g_mu, m] from the span of m."""
    b = a.bracket(g_mu.T[:, None], m.T)
    return float(np.max(np.abs(b - linalg.matvec(linalg.projector(m), b)), initial=0.0))


def reductive_complement(a: LieAlgebra, g_mu) -> np.ndarray:
    """An ad(g_mu)-stable complement m with g = g_mu ⊕ m.

    Prefers the Euclidean orthogonal complement when that happens to be
    stable, so the output is deterministic; otherwise solves the linear
    system for an equivariant projection onto g_mu and returns its kernel.
    At k = 0 the orthogonal complement is g itself, and at k = n it is the
    empty basis (n, 0).

    Raises:
        NonReductiveStabilizer: if no stable complement exists.
    """
    g_mu = np.atleast_2d(np.asarray(g_mu, dtype=float))
    n, k = g_mu.shape
    if n != a.dim:
        raise ValueError("stabilizer basis has wrong ambient dimension")
    if not _is_subalgebra(a, g_mu, 1e-10):
        raise ValueError("supplied basis does not span a subalgebra")

    ortho = linalg.nullspace(g_mu.T)
    if _stability_defect(a, g_mu, ortho) <= COMPLEMENT_TOL:
        return ortho

    # Equivariant projection pi: range(pi) = g_mu, pi fixes g_mu, and
    # pi ad(Y) = ad(Y) pi for Y in g_mu.  Its kernel is the stable complement.
    # Unknown pi is vectorized row-major, so vec(A pi B) = (A ⊗ Bᵀ) vec(pi).
    H = linalg.orthonormal_columns(g_mu)
    P_h = H @ H.T
    eye = np.eye(n)
    A_blocks = [np.kron(eye, H[:, i][None, :]) for i in range(k)]  # pi @ H_i = H_i
    A_blocks.append(np.kron(eye - P_h, eye))                       # (I - P_h) pi = 0
    rhs = [H[:, i] for i in range(k)] + [np.zeros(n * n)] * (k + 1)
    # pi ad(Y) - ad(Y) pi = 0
    A_blocks += [np.kron(eye, adY.T) - np.kron(adY, eye) for adY in a.ad(H.T)]
    A = np.vstack(A_blocks)
    b = np.concatenate(rhs)
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    residual = float(np.linalg.norm(A @ sol - b))
    if residual > 1e-8:
        raise NonReductiveStabilizer(
            f"no ad-stable complement: equivariant projection residual {residual:.3e}"
        )
    pi = sol.reshape(n, n)
    m = linalg.nullspace(pi)
    if m.shape[1] != n - k or linalg.rank(np.hstack([g_mu, m])) != n:
        raise NonReductiveStabilizer("equivariant projection produced a degenerate kernel")
    if _stability_defect(a, g_mu, m) > COMPLEMENT_TOL:
        raise NonReductiveStabilizer("projection kernel is not ad-stable within tolerance")
    return m


# --- group kernels -----------------------------------------------------------
# A group element is its n×n Ad matrix: Ad(g⁻¹) = Ad(g)⁻¹, Ad(gh) = Ad(g) Ad(h).


def group_exp(a: LieAlgebra, X) -> np.ndarray:
    """Ad(exp X) = e^{ad X} for the algebra element with coordinates X, or for a
    stack (…, n) in one ``linalg.expm`` call that gives each row its own result."""
    return linalg.expm(a.ad(X))


def coadjoint_matrix(Ad: np.ndarray) -> np.ndarray:
    """Matrix of Coad(g) = Ad(g⁻¹)ᵀ on covector components, from Ad(g), stacked alike."""
    return np.swapaxes(np.linalg.inv(Ad), -1, -2)


# --- named catalog -----------------------------------------------------------


def _finalize(a: LieAlgebra) -> LieAlgebra:
    a.c.setflags(write=False)
    if a.realization is not None:
        a.realization.setflags(write=False)
    a.validate()
    return a


# so(3)'s bracket table, the Levi-Civita symbol: [e1, e2] = e3 cyclically
SO3_BRACKETS = np.zeros((3, 3, 3))
SO3_BRACKETS[[0, 1, 2], [1, 2, 0], [2, 0, 1]] = 1.0
SO3_BRACKETS[[1, 2, 0], [0, 1, 2], [2, 0, 1]] = -1.0
SO3_BRACKETS.setflags(write=False)


def so3() -> LieAlgebra:
    """Rotations of R^3; [e1, e2] = e3 cyclically."""
    # the realization L_k = -ε_k··, which is -c
    return _finalize(LieAlgebra(3, SO3_BRACKETS, "so3", -SO3_BRACKETS, det_one=True,
                                orthogonal=True))


def _realify(M: np.ndarray) -> np.ndarray:
    """Complex m x m matrix A + iB to the real 2m x 2m block matrix [[A, -B], [B, A]]."""
    A, B = M.real, M.imag
    return np.block([[A, -B], [B, A]])


def su2() -> LieAlgebra:
    """su(2) with basis -i σ_j / 2, realified to 4x4 real matrices; so(3)'s brackets."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    rho = np.stack([_realify(-0.5j * s) for s in (sx, sy, sz)])
    return _finalize(LieAlgebra(3, SO3_BRACKETS, "su2", rho, det_one=True, orthogonal=True))


def sl2r() -> LieAlgebra:
    """sl(2, R) with basis (H, E, F): [H,E] = 2E, [H,F] = -2F, [E,F] = H."""
    c = np.zeros((3, 3, 3))
    c[0, 1, 1], c[1, 0, 1] = 2.0, -2.0
    c[0, 2, 2], c[2, 0, 2] = -2.0, 2.0
    c[1, 2, 0], c[2, 1, 0] = 1.0, -1.0
    rho = np.stack([
        np.array([[1.0, 0.0], [0.0, -1.0]]),
        np.array([[0.0, 1.0], [0.0, 0.0]]),
        np.array([[0.0, 0.0], [1.0, 0.0]]),
    ])
    return _finalize(LieAlgebra(3, c, "sl2r", rho, det_one=True))


def heis3() -> LieAlgebra:
    """Heisenberg algebra (X, Y, Z): [X, Y] = Z, Z central."""
    c = np.zeros((3, 3, 3))
    c[0, 1, 2], c[1, 0, 2] = 1.0, -1.0
    rho = np.zeros((3, 3, 3))
    rho[0, 0, 1] = 1.0
    rho[1, 1, 2] = 1.0
    rho[2, 0, 2] = 1.0
    return _finalize(LieAlgebra(3, c, "heis3", rho, det_one=True))


def se2() -> LieAlgebra:
    """Euclidean motions of the plane (J, P1, P2): [J,P1] = P2, [J,P2] = -P1."""
    c = np.zeros((3, 3, 3))
    c[0, 1, 2], c[1, 0, 2] = 1.0, -1.0
    c[0, 2, 1], c[2, 0, 1] = -1.0, 1.0
    rho = np.zeros((3, 3, 3))
    rho[0] = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    rho[1, 0, 2] = 1.0
    rho[2, 1, 2] = 1.0
    return _finalize(LieAlgebra(3, c, "se2", rho, det_one=True))


def abelian(n: int) -> LieAlgebra:
    """Abelian algebra of dimension n, realized by commuting nilpotent matrices."""
    if n < 1:
        raise ValueError("abelian dimension must be positive")
    rho = np.zeros((n, n + 1, n + 1))
    for i in range(n):
        rho[i, i, n] = 1.0
    return _finalize(LieAlgebra(n, np.zeros((n, n, n)), f"abelian({n})", rho, det_one=True))


_CATALOG = {"so3": so3, "su2": su2, "sl2r": sl2r, "heis3": heis3, "se2": se2}


def named_algebra(name: str) -> LieAlgebra:
    """Look up a catalog algebra by name; accepts ``abelian(n)``."""
    key = name.strip().lower()
    if key in _CATALOG:
        return _CATALOG[key]()
    if key.startswith("abelian(") and key.endswith(")"):
        try:
            return abelian(int(key[len("abelian("):-1]))
        except ValueError as exc:
            raise ConfigError(f"bad abelian dimension in {name!r}") from exc
    raise ConfigError(f"unknown algebra {name!r}; known: {sorted(_CATALOG)} and abelian(n)")


def _is_number(v, integer: bool = False) -> bool:
    """A finite JSON number, an integer with ``integer``; never a bool.  Python's
    json also reads NaN, ±Infinity and integers beyond the float range."""
    return (isinstance(v, int if integer else (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def algebra_from_json(doc) -> LieAlgebra:
    """Build an algebra from a JSON document or dict.

    Expected shape: ``{"dim": n, "brackets": [[i, j, [k, coeff], ...], ...],
    "realization": [matrix, ...]?}`` with n ≥ 1 and 0-based indices i, j, k in
    [0, n), each pair {i, j} in one entry and each k once in it.  Antisymmetric
    counterparts are filled in automatically.
    """
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "dim" not in doc:
        raise ConfigError("algebra document must be an object with a 'dim' key")
    try:
        n = doc["dim"]
        if not _is_number(n, integer=True) or n < 1:
            raise ValueError(f"dim must be an integer >= 1, got {n!r}")
        c, brackets, pairs = np.zeros((n, n, n)), doc.get("brackets", []), set()
        if not isinstance(brackets, list):
            raise TypeError(f"brackets must be a list of [i, j, [k, coeff], ...] lists, "
                            f"got {brackets!r}")
        for entry in brackets:
            if not (isinstance(entry, list) and len(entry) >= 2
                    and all(isinstance(term, list) and len(term) == 2 for term in entry[2:])):
                raise TypeError(f"bracket entry {entry!r} is not an [i, j, [k, coeff], ...] list")
            i, j = entry[:2]
            ks = [term[0] for term in entry[2:]]
            for index in (i, j, *ks):
                if not (_is_number(index, integer=True) and 0 <= index < n):
                    raise IndexError(f"bracket index {index!r} is not an integer in [0, {n})")
            if frozenset((i, j)) in pairs or len(set(ks)) < len(ks):
                raise ValueError(f"bracket entry {entry!r} gives {{{i}, {j}}} again or a k twice")
            pairs.add(frozenset((i, j)))
            for k, coeff in entry[2:]:
                if not _is_number(coeff):
                    raise TypeError(f"coefficient {coeff!r} is not a finite number")
                c[i, j, k] = coeff
                c[j, i, k] = -coeff
        rho = doc.get("realization")
        rho = None if rho is None else np.asarray(rho, dtype=object)
        claims = {key: doc.get(key, False) for key in ("det_one", "orthogonal")}
        if (not isinstance(doc.get("name", ""), str) or {type(v) for v in claims.values()} != {bool}
                or rho is not None and not all(map(_is_number, rho.flat))):
            raise TypeError("name must be a string, claims booleans, realization entries "
                            "finite numbers")
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"malformed algebra document: {exc}") from exc
    a = LieAlgebra(n, c, doc.get("name"), None if rho is None else rho.astype(float), **claims)
    try:
        return _finalize(a)
    except ValueError as exc:
        raise ConfigError(f"malformed algebra document: {exc}") from exc
