"""Quantum states, the Hadamard gate, projectors and measurement.

A :class:`QState` wraps a read-only complex amplitude vector of dimension
``2**n`` that must have unit squared norm; construction rejects anything
else, non-finite entries included, rather than silently renormalizing.
Basis outcomes are labelled 1-based (labels 1 .. 2^n), matching the
convention used throughout the package; storage index is always
``label - 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Tolerance on |norm^2 - 1| accepted by the QState constructor.
NORM_TOL = 1e-10


class NormalizationError(ValueError):
    """Vector does not have unit squared norm."""


def _n_qubits_for_dim(dim: int) -> int:
    n = dim.bit_length() - 1
    if dim < 2 or (1 << n) != dim:
        raise ValueError(f"state dimension must be a power of two >= 2, got {dim}")
    return n


@dataclass(frozen=True, eq=False)
class QState:
    """Pure n-qubit state: 2^n complex amplitudes with unit squared norm."""

    n_qubits: int
    amplitudes: np.ndarray


def make_qstate(v) -> QState:
    """Wrap a private complex copy of a vector as a QState, rejecting non-normalized input.

    The norm gate is also the finiteness check: a NaN or infinite entry makes
    the squared norm NaN or infinite, and ``not <= NORM_TOL`` rejects both
    (``> NORM_TOL`` would let NaN through).
    """
    amps = np.array(v, dtype=np.complex128)
    if amps.ndim != 1:
        raise ValueError(f"expected a 1-d array, got shape {amps.shape}")
    n = _n_qubits_for_dim(amps.shape[0])
    norm2 = float(np.vdot(amps, amps).real)
    if not abs(norm2 - 1.0) <= NORM_TOL:
        raise NormalizationError(
            f"squared norm {norm2!r} differs from 1 by more than {NORM_TOL}"
        )
    amps.setflags(write=False)
    return QState(n_qubits=n, amplitudes=amps)


def basis_state(n_qubits: int, label: int) -> QState:
    """Computational basis state for a 1-based basis label in 1 .. 2^n."""
    dim = 1 << n_qubits
    if not 1 <= label <= dim:
        raise ValueError(f"basis label must be in 1..{dim}, got {label}")
    v = np.zeros(dim, dtype=np.complex128)
    v[label - 1] = 1.0
    return make_qstate(v)


def hadamard() -> np.ndarray:
    """The 2x2 Hadamard gate (1/sqrt 2) [[1, 1], [1, -1]]."""
    h = 1.0 / math.sqrt(2.0)
    return np.array([[h, h], [h, -h]], dtype=np.complex128)


def projector(q: QState) -> np.ndarray:
    """Outer product |q><q|: entry (i, j) = q[i] * conj(q[j])."""
    v = q.amplitudes
    return np.outer(v, v.conj())


def completeness_residual(n_qubits: int) -> float:
    """Max-norm of (sum over all basis projectors) - identity."""
    dim = 1 << n_qubits
    acc = np.zeros((dim, dim), dtype=np.complex128)
    for label in range(1, dim + 1):
        acc += projector(basis_state(n_qubits, label))
    return float(np.abs(acc - np.eye(dim)).max())


def measurement_probability(q: QState, label: int) -> float:
    """Born probability |q[label - 1]|^2 of the 1-based basis outcome ``label``."""
    dim = len(q.amplitudes)
    if not 1 <= label <= dim:
        raise ValueError(f"basis label must be in 1..{dim}, got {label}")
    return float(abs(q.amplitudes[label - 1]) ** 2)


def sample_measurement(q: QState, rng_seed: int, shots: int) -> dict[int, int]:
    """Histogram {1-based basis label: count} of i.i.d. measurements, in label order.

    Inverse-CDF sampling over the cumulative |amplitude|^2 array, driven by
    numpy's PCG64 generator seeded with ``rng_seed``.  Only observed labels
    appear; histograms are bit-for-bit reproducible per (seed, shots) pair.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    cdf = np.abs(q.amplitudes)
    cdf *= cdf
    np.cumsum(cdf, out=cdf)
    cdf[-1] = 1.0  # guard the top edge against rounding drift
    rng = np.random.default_rng(rng_seed)
    outcomes = np.searchsorted(cdf, rng.random(shots), side="right")
    indices, counts = np.unique(outcomes, return_counts=True)
    return dict(zip((indices + 1).tolist(), counts.tolist()))


def random_qstate(n_qubits: int, rng: np.random.Generator) -> QState:
    """Random state: i.i.d. normal re/im amplitudes, normalized once."""
    dim = 1 << n_qubits
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return make_qstate(v / np.linalg.norm(v))
