"""Subspace linear algebra built on SVD with a shared relative rank cutoff.

All bases are stored as matrices whose columns span the subspace.  Rank
decisions use a relative singular-value threshold of ``RANK_RTOL`` times the
largest singular value, so every routine is scale invariant.
"""

from __future__ import annotations

import numpy as np

RANK_RTOL = 1e-10


def _svd_rank(s: np.ndarray, rtol: float) -> int:
    if s.size == 0:
        return 0
    return int(np.sum(s > rtol * s[0]))


def orthonormal_columns(A, rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthonormal basis of the column span of ``A`` (shape (m, rank))."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.shape[1] == 0:
        return A.copy()
    u, s, _ = np.linalg.svd(A, full_matrices=False)
    return u[:, : _svd_rank(s, rtol)]


def nullspace(A, rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthonormal basis of the kernel of ``A`` (shape (n, n - rank))."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    _, s, vh = np.linalg.svd(A, full_matrices=True)
    return vh[_svd_rank(s, rtol):].T.copy()


def rank(A, rtol: float = RANK_RTOL) -> int:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if min(A.shape) == 0:
        return 0
    return _svd_rank(np.linalg.svd(A, compute_uv=False), rtol)


def projector(basis) -> np.ndarray:
    """Orthogonal projector onto the column span of ``basis``."""
    Q = orthonormal_columns(basis)
    if Q.shape[1] == 0:
        return np.zeros((Q.shape[0], Q.shape[0]))
    return Q @ Q.T


def subspace_distance(A, B) -> float:
    """Spectral-norm distance between the orthogonal projectors of two spans."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] == 0 and B.shape[1] == 0:
        return 0.0
    PA = projector(A) if A.shape[1] else np.zeros((A.shape[0], A.shape[0]))
    PB = projector(B) if B.shape[1] else np.zeros((B.shape[0], B.shape[0]))
    return float(np.linalg.norm(PA - PB, ord=2))


def solve_columns(A, B) -> np.ndarray:
    """Minimum-norm least-squares solve of A X = B, column by column."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.asarray(B, dtype=float)
    X, *_ = np.linalg.lstsq(A, B, rcond=None)
    return X
