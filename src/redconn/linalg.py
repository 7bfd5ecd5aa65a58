"""Subspace linear algebra built on SVD with a shared relative rank cutoff,
and the matrix exponential.

All bases are stored as matrices whose columns span the subspace.  An empty
basis (m, 0) is a subspace like any other, the zero subspace, and goes through
the same SVDs and products as the rest.  Rank decisions use a relative
singular-value threshold of ``RANK_RTOL`` times the largest singular value, so
every routine is scale invariant.  ``expm`` is the
scaling-and-squaring Padé exponential (with Fréchet derivatives) of every kernel.
"""

from __future__ import annotations

import numpy as np

RANK_RTOL = 1e-10
# Most matrix entries per call when ``expm`` takes independent stacks a few at a
# time: a large batch's Padé temporaries stay near those of one chart point.
_EXPM_CHUNK = 2 ** 13


def _svd_rank(s: np.ndarray) -> int:
    return int(np.sum(s > RANK_RTOL * s[:1]))


def orthonormal_columns(A) -> np.ndarray:
    """Orthonormal basis of the column span of ``A`` (shape (m, rank))."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    u, s, _ = np.linalg.svd(A, full_matrices=False)
    return u[:, : _svd_rank(s)]


def nullspace(A) -> np.ndarray:
    """Orthonormal basis of the kernel of ``A`` (shape (n, n - rank))."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    _, s, vh = np.linalg.svd(A, full_matrices=True)
    return vh[_svd_rank(s):].T.copy()


def rank(A):
    """Rank of A, or of each matrix of a stack (…, m, n) alike."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    s = np.linalg.svd(A, compute_uv=False)
    return np.sum(s > RANK_RTOL * s[..., :1], axis=-1)


def projector(basis) -> np.ndarray:
    """Orthogonal projector onto the column span of ``basis``."""
    Q = orthonormal_columns(basis)
    return Q @ Q.T


def subspace_distance(A, B) -> float:
    """Spectral-norm distance between the orthogonal projectors of two spans."""
    return float(np.linalg.norm(projector(A) - projector(B), ord=2))


def matvec(A, v) -> np.ndarray:
    """A·v for one vector v, or for each vector of a stack (…, n) alike, so that
    no vector's product depends on the others in the stack."""
    return (A @ np.asarray(v, dtype=float)[..., None])[..., 0]


def vecdot(x, y):
    """⟨x, y⟩ over the last axis: a float for two vectors, else the array of
    row-by-row products, each equal to ``x @ y`` on that row's vectors."""
    out = (np.asarray(x)[..., None, :] @ np.asarray(y)[..., :, None])[..., 0, 0]
    return float(out) if out.ndim == 0 else out


def distinct_rows(keys) -> tuple[list, np.ndarray]:
    """Each row's slot among the distinct ``keys`` (one hashable per row; slots in
    order of first appearance) and each slot's first row."""
    slot: dict = {}
    inverse = [slot.setdefault(key, len(slot)) for key in keys]
    return inverse, np.unique(inverse, return_index=True)[1]


def solve_columns(A, B) -> np.ndarray:
    """Minimum-norm least-squares solve of A X = B, column by column."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.asarray(B, dtype=float)
    X, *_ = np.linalg.lstsq(A, B, rcond=None)
    return X


# Higham, SIAM J. Matrix Anal. Appl. 26 (2005), Table 2.3: the largest 1-norm
# at which the degree-m diagonal Padé approximant of e^A is accurate to unit
# roundoff in double precision, and the approximant's coefficients b_0…b_m.
_PADE_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
               (7, 9.504178996162932e-1), (9, 2.097847961257068e0))
_THETA_13 = 5.371920351148152e0
_PADE_B = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
         33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}
# Rows combine the even powers I, A², A⁴, …: for m ≤ 9 into U/A and V; for
# m = 13 into the low (A⁰…A⁶) and high (A⁶·(A²…A⁶)) halves of U/A and V.
_PADE_ROWS = {m: np.array([b[1::2], b[0::2]]) for m, b in _PADE_B.items() if m < 13}
_B13 = _PADE_B[13]
_PADE_ROWS[13] = np.array([_B13[1:8:2], _B13[0:7:2],
                           [0.0, *_B13[9::2]], [0.0, *_B13[8:13:2]]])


def _pade_uv(A: np.ndarray, m: int, E=None) -> tuple[np.ndarray, ...]:
    """Odd part U and even part V of the degree-m Padé numerator, p_m(A) = V + U,
    and, given directions' first rows E = [E_1 … E_k] (as ``expm``), those of their
    Fréchet derivatives (Al-Mohy–Higham, SIAM J. Matrix Anal. Appl. 30 (2009), Alg. 6.4)."""
    rows = _PADE_ROWS[m]
    powers = np.empty((rows.shape[1],) + A.shape)  # I, A², A⁴, …
    powers[0] = np.eye(A.shape[-1])
    np.matmul(A, A, out=powers[1])
    for k in range(2, len(powers)):
        np.matmul(powers[k - 1], powers[1], out=powers[k])
    parts = (rows @ powers.reshape(len(powers), -1)).reshape((len(rows),) + A.shape)
    uv = parts[:2] + powers[3] @ parts[2:] if m == 13 else parts
    if E is None:
        return A @ uv[0], uv[1]
    K = np.s_[..., : E.shape[-2], : E.shape[-2]]  # the block of A that E's rows see
    d = [A[K] @ E + _rmul(E, A)]  # the derivatives of A², A⁴, … along each direction
    for k in range(2, len(powers)):
        d.append(_rmul(d[-1], powers[1]) + powers[k - 1][K] @ d[0])
    d_uv = (rows[:, 1:] @ np.reshape(d, (len(d), -1))).reshape((len(rows),) + d[0].shape)
    if m == 13:
        d_uv = d_uv[:2] + _rmul(d[2], parts[2:]) + powers[3][K] @ d_uv[2:]
    return A @ uv[0], uv[1], _rmul(E, uv[0]) + A[K] @ d_uv[0], d_uv[1]


def _rmul(D: np.ndarray, X: np.ndarray) -> np.ndarray:
    """[D_1·X … D_k·X] for D = [D_1 … D_k] (…, r, k·n), by one product per X."""
    out = D.reshape(D.shape[:-2] + (-1, X.shape[-1])) @ X
    return out.reshape(out.shape[:-2] + D.shape[-2:])


def _expm_plan(norm: float) -> tuple[int, int]:
    """Padé degree m and scaling exponent s for a 1-norm."""
    m = next((m for m, theta in _PADE_THETA if norm <= theta), 13)
    return m, (max(0, int(np.ceil(np.log2(norm / _THETA_13)))) if m == 13 else 0)


def expm(A, batch_ndim: int = 0, directions=None):
    """Matrix exponential by scaling and squaring (Higham 2005).

    The Padé degree m ∈ {3, 5, 7, 9, 13} is the smallest whose θ_m bounds the
    1-norm; above θ_13, A is scaled by 2^-s into the degree-13 range and the
    result squared s times.  ``A`` may be a stack (…, n, n): the stack shares
    one norm (its largest), one power chain and one batched solve, so every
    matrix gets the degree and scaling of the largest.  The first
    ``batch_ndim`` axes index independent stacks: each keeps the degree and
    scaling that a call on it alone picks, and so that call's result.

    Given ``directions`` (k, r, n), the first r rows of directions whose others
    are 0, for A with A[r:, :r] = 0 (any A when r = n), it also returns those
    rows of e^A's Fréchet derivatives along each, (…, k, r, n), from e^A's plan,
    powers and factorization.
    """
    A = np.asarray(A, dtype=float)
    if A.size == 0:  # an empty stack
        return np.empty_like(A)
    E = None if directions is None else np.hstack(np.asarray(directions, dtype=float))
    norms = np.abs(A).sum(axis=-2).reshape(A.shape[:batch_ndim] + (-1,)).max(axis=-1)
    plans = [_expm_plan(float(norm)) for norm in np.ravel(norms)]
    index = {plan: [i for i, p in enumerate(plans) if p == plan] for plan in set(plans)}
    if len(index) == 1 and (len(plans) == 1 or A.size <= _EXPM_CHUNK):
        out = _scaled_pade(A, *plans[0], E)
    else:  # each plan's stacks in calls of their own, of at most _EXPM_CHUNK entries or one stack
        flat = A.reshape((len(plans),) + A.shape[batch_ndim:])
        step = max(1, _EXPM_CHUNK // flat[0].size)
        chunks = [rows[i:i + step] for rows in index.values() for i in range(0, len(rows), step)]
        got = [_scaled_pade(flat[rows], *plans[rows[0]], E) for rows in chunks]
        order = np.argsort(np.concatenate(chunks))
        out = [np.concatenate(part)[order].reshape(A.shape[:batch_ndim] + part[0].shape[1:])
               for part in zip(*got)]
    return out[0] if E is None else (out[0], np.stack(np.split(out[1], len(directions), -1), -3))


def _scaled_pade(A: np.ndarray, m: int, s: int, E=None) -> tuple[np.ndarray, ...]:
    """(e^A,) from the degree-m Padé approximant of A/2^s, squared s times, or,
    given directions E, (e^A, [L(A, E_1) … L(A, E_k)]) by one more solve."""
    U, V, *dUV = _pade_uv(A / 2.0 ** s, m, None if E is None else E / 2.0 ** s)
    R = np.linalg.solve(V - U, V + U)
    K = np.s_[..., : E.shape[-2], : E.shape[-2]] if dUV else np.s_[...]
    L = [np.linalg.solve((V - U)[K], dUV[0] + dUV[1] + _rmul(dUV[0] - dUV[1], R))] if dUV else []
    for _ in range(s):
        L = [R[K] @ d + _rmul(d, R) for d in L]
        R = R @ R
    return (R, *L)
