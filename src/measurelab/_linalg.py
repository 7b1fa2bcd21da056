"""Small dense linear-algebra helpers shared across the package.

Everything here works on complex128 ndarrays. Tensor products follow
numpy.kron order: the first factor is the most significant index, and
vec() flattens row-major to match.

Nothing here imports scipy. The one scipy call in the package is
connected_components, inside algebra's brute-force oracle, imported when
the oracle runs, so no module loads scipy on import.
"""

from __future__ import annotations

import math

import numpy as np

_ROW_CHUNK = 65536   # rows summed over at once by row_chunks' callers


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2) if a.ndim > 2 else a.conj().T


def tensor(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices, left factor most significant."""
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def matrix_unit(i: int, j: int, dim: int) -> np.ndarray:
    e = np.zeros((dim, dim), dtype=complex)
    e[i, j] = 1.0
    return e


def basis_vector(i: int, dim: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[i] = 1.0
    return v


def cyclic_shift(dim: int) -> np.ndarray:
    """Permutation unitary sending e_i to e_{i+1 mod dim}."""
    return np.roll(np.eye(dim, dtype=complex), 1, axis=0)


def frob(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def frobs(mats: np.ndarray) -> np.ndarray:
    """frob of each matrix of an (s, r, c) stack, with frob's bits: the two
    real dot products of np.linalg.norm, taken as stacked matmuls."""
    flat = mats.reshape(len(mats), 1, math.prod(mats.shape[1:]))
    re, im = flat.real, flat.imag
    return np.sqrt((re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2)).reshape(-1))


def trace_norm(a: np.ndarray):
    """Sum of singular values; for Hermitian input uses eigenvalues. A
    (..., n, n) stack gives an array of its leading shape, each matrix with
    the bits it has alone (numpy solves a stack matrix by matrix)."""
    a = np.asarray(a, dtype=complex)
    mats = a.reshape(-1, *a.shape[-2:])
    herm = frobs(mats - dagger(mats)) <= 1e-12 * np.maximum(1.0, frobs(mats))
    out = np.empty(len(mats))
    if herm.any():
        out[herm] = np.abs(np.linalg.eigvalsh(mats[herm])).sum(axis=-1)
    if not herm.all():
        out[~herm] = np.linalg.svd(mats[~herm], compute_uv=False).sum(axis=-1)
    return float(out[0]) if a.ndim == 2 else out.reshape(a.shape[:-2])


def herm_residual(a: np.ndarray) -> float:
    return frob(a - dagger(a))


def row_chunks(a: np.ndarray) -> list[np.ndarray]:
    """a split along its first axis into pieces of _ROW_CHUNK rows, the
    last one shorter; always at least one piece, a itself when it fits in
    one."""
    if len(a) <= _ROW_CHUNK:
        return [a]
    return np.split(a, range(_ROW_CHUNK, len(a), _ROW_CHUNK))


def unitary_residual(u: np.ndarray) -> float:
    """frob(u*u - 1): zero exactly when the columns of u are orthonormal,
    so for a square u when it is unitary and for a tall u when it is an
    isometry. u*u sums over row chunks, so no conjugated copy of a tall u
    is held; one chunk has dagger(u) @ u's bits."""
    g = sum(dagger(c) @ c for c in row_chunks(u))
    g[np.diag_indices_from(g)] -= 1
    return frob(g)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix with phase fix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r).copy()
    d /= np.abs(d)
    return q * d


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


def random_state_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def unitary_completion(a: np.ndarray) -> np.ndarray:
    """Extend an isometry (tall matrix with orthonormal columns) to a unitary.

    The first a.shape[1] columns of the result are a itself; the other
    columns are the tail of a's complete QR factor, which spans the
    orthogonal complement of a's range.
    """
    n, m = a.shape
    if m > n:
        raise ValueError("more columns than rows")
    u = np.linalg.qr(a, mode="complete")[0]
    u[:, :m] = a
    return u
