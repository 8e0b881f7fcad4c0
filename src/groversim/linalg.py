"""Dense complex matrix and vector algebra for the simulator.

Everything operates on plain numpy arrays of dtype complex128.  Matrices are
square and stored 0-based row-major; the handful of places that speak the
1-based basis-label convention (see :mod:`groversim.states`) convert at the
boundary, so basis label ``i`` always means storage index ``i - 1``.

Inputs are validated on entry: non-finite entries (NaN/Inf) are rejected
everywhere, and shape mismatches raise :class:`DimensionMismatchError`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

DEFAULT_UNITARY_TOL = 1e-10


class DimensionMismatchError(ValueError):
    """Operands have incompatible dimensions."""


def _as_complex_array(a, ndim: int) -> np.ndarray:
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite entries are not admitted")
    return arr


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite square complex matrix, validating shape."""
    m = _as_complex_array(a, 2)
    if m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"matrix must be square with dim >= 1, got shape {m.shape}")
    return m


def as_vector(a) -> np.ndarray:
    """Coerce to a finite complex vector, validating shape."""
    v = _as_complex_array(a, 1)
    if v.shape[0] < 1:
        raise ValueError("vector must be non-empty")
    return v


def matmul(a, b) -> np.ndarray:
    """Matrix product of two equal-dimension square matrices."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(
            f"cannot multiply {a.shape[0]}-dim by {b.shape[0]}-dim matrix"
        )
    return a @ b


def unitarity_residual(a) -> float:
    """Max-norm of U†U - I and UU† - I, whichever is worse."""
    u = as_matrix(a)
    eye = np.eye(u.shape[0], dtype=np.complex128)
    ud = u.conj().T
    return float(max(np.abs(ud @ u - eye).max(), np.abs(u @ ud - eye).max()))


def is_unitary(a) -> bool:
    """True iff both U†U and UU† are the identity within ``DEFAULT_UNITARY_TOL`` (max-norm)."""
    return unitarity_residual(a) < DEFAULT_UNITARY_TOL


def column_orthonormality_residual(a) -> float:
    """Worst deviation of any column inner product sum_i a[i,x]*conj(a[i,y]) from delta(x,y)."""
    u = as_matrix(a)
    gram = np.einsum("ix,iy->xy", u, u.conj())
    return float(np.abs(gram - np.eye(u.shape[0])).max())


def tensor_product_list(ms: Sequence[np.ndarray]) -> np.ndarray:
    """Tensor product of a list of 2x2 matrices via the bit-index product formula.

    For ``k`` factors the result ``R`` has dimension ``2**k`` and

        R[i, j] = prod_{l=0}^{k-1} ms[k-1-l][bit_l(i), bit_l(j)]

    where ``bit_l`` extracts bit ``l`` of the 0-based index.  The last factor
    in the list therefore acts on the least significant bit, which makes the
    result equal to the left-to-right Kronecker product
    ``ms[0] (x) ms[1] (x) ... (x) ms[k-1]``.

    An empty list is rejected (the product is not defined here), as is any
    factor that is not 2x2.
    """
    if len(ms) == 0:
        raise ValueError("tensor product of an empty list is undefined")
    mats = []
    for m in ms:
        m = as_matrix(m)
        if m.shape != (2, 2):
            raise ValueError(f"every tensor factor must be 2x2, got shape {m.shape}")
        mats.append(m)
    k = len(mats)
    dim = 1 << k
    bits_per_level = [(np.arange(dim) >> level) & 1 for level in range(k)]
    out = np.ones((dim, dim), dtype=np.complex128)
    for level in range(k):
        bits = bits_per_level[level]
        out *= mats[k - 1 - level][np.ix_(bits, bits)]
    return out
