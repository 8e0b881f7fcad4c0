"""Quantum states, the Hadamard gate, projectors and measurement.

A :class:`QState` wraps a read-only complex amplitude vector of dimension
``2**n`` that must have unit squared norm; construction rejects anything
else rather than silently renormalizing.  Basis outcomes are labelled
1-based (labels 1 .. 2^n), matching the convention used throughout the
package; storage index is always ``label - 1``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .linalg import DimensionMismatchError, as_vector

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

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits


def squared_norm(v) -> float:
    """Squared 2-norm of a complex vector."""
    vec = as_vector(v)
    return float(np.real(np.vdot(vec, vec)))


def make_qstate(v) -> QState:
    """Wrap a private complex copy of a vector as a QState, rejecting non-normalized input."""
    amps = as_vector(np.array(v, dtype=np.complex128))
    n = _n_qubits_for_dim(amps.shape[0])
    norm2 = squared_norm(amps)
    if abs(norm2 - 1.0) > NORM_TOL:
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


def measurement_probability(x: QState, y: QState) -> float:
    """Probability of observing outcome ``x`` when measuring ``y``.

    Computed as |<x|y>|^2, which equals the projective form
    ||(|x><x|) |y>||^2 because the projector has rank one and ||x|| = 1.
    """
    if x.n_qubits != y.n_qubits:
        raise DimensionMismatchError(
            f"qubit counts differ: {x.n_qubits} vs {y.n_qubits}"
        )
    return float(abs(np.vdot(x.amplitudes, y.amplitudes)) ** 2)


def sample_measurement(q: QState, rng_seed: int, shots: int) -> Counter[int]:
    """Histogram of i.i.d. measurement outcomes (1-based basis labels).

    Inverse-CDF sampling over the cumulative |amplitude|^2 array, driven by
    numpy's PCG64 generator seeded with ``rng_seed``.  Histograms are
    bit-for-bit reproducible for a given (seed, shots) pair.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    probs = np.abs(q.amplitudes) ** 2
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0  # guard the top edge against rounding drift
    rng = np.random.default_rng(rng_seed)
    draws = rng.random(shots)
    outcomes = np.searchsorted(cdf, draws, side="right") + 1
    return Counter(outcomes.tolist())


def random_qstate(n_qubits: int, rng: np.random.Generator) -> QState:
    """Random state: i.i.d. normal re/im amplitudes, normalized once."""
    dim = 1 << n_qubits
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return make_qstate(v / np.linalg.norm(v))
