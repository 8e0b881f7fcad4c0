"""Dense complex matrix and vector algebra for the simulator.

Everything operates on plain numpy arrays of dtype complex128.  Matrices are
square and stored 0-based row-major; the handful of places that speak the
1-based basis-label convention (see :mod:`groversim.states`) convert at the
boundary, so basis label ``i`` always means storage index ``i - 1``.

Matrices are validated on entry by :func:`as_matrix`, which rejects
non-finite entries (NaN/Inf); shape mismatches raise
:class:`DimensionMismatchError`.  :func:`tensor_product_list` validates its
2x2 factors the same way, all in one pass.  Vectors are validated where they
become states, by :func:`groversim.states.adopt_qstate`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

DEFAULT_UNITARY_TOL = 1e-10


class DimensionMismatchError(ValueError):
    """Operands have incompatible dimensions."""


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite square complex matrix, validating shape."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("non-finite entries are not admitted")
    if m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"matrix must be square with dim >= 1, got shape {m.shape}")
    return m


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
    """Kronecker product ``ms[0] (x) ms[1] (x) ... (x) ms[k-1]`` of 2x2 matrices.

    The last factor acts on the least significant bit of the 0-based index:
    for ``k`` factors the result has dimension ``2**k`` and

        R[i, j] = prod_{l=0}^{k-1} ms[k-1-l][bit_l(i), bit_l(j)]

    A fold from the right puts each earlier factor on a new most significant
    bit by a broadcast product laid out as (2, d, 2, d), so every entry is
    1 * ms[k-1] * ms[k-2] * ... * ms[0] in that order.  The order is fixed on
    purpose: complex multiply is not bitwise commutative, and a plain
    ``np.kron`` fold in either order changes the last bits of some entries
    and with them the verify report.

    An empty list is rejected (the product is not defined here), as is any
    factor that is not 2x2 or holds a NaN or an infinity.  The factors are
    validated together, as one (k, 2, 2) array.
    """
    if len(ms) == 0:
        raise ValueError("tensor product of an empty list is undefined")
    try:
        mats = np.asarray(ms, dtype=np.complex128)
    except ValueError as exc:  # factors of different shapes
        raise ValueError("every tensor factor must be 2x2, got a ragged list") from exc
    if mats.shape[1:] != (2, 2):
        raise ValueError(f"every tensor factor must be 2x2, got shape {mats.shape[1:]}")
    if not np.isfinite(mats).all():
        raise ValueError("non-finite entries are not admitted")
    acc = np.ones((2, 2), dtype=np.complex128) * mats[-1]
    for m in mats[-2::-1]:
        acc = (acc[None, :, None, :] * m[:, None, :, None]).reshape(2 * len(acc), -1)
    return acc
