"""Quantum states, the Hadamard gate, projectors and measurement.

A :class:`QState` wraps a read-only real or complex amplitude vector of
dimension ``2**n`` with unit squared norm; construction rejects anything
else, non-finite entries included, rather than silently renormalizing.
Basis outcomes are labelled 1-based (labels 1 .. 2^n), matching the
convention used throughout the package; storage index is always
``label - 1``.  Measurement samples the Born distribution of the two-valued
states the Grover kernel steps, from their two amplitudes: one binomial draw
for the target and uniform draws over the other labels, without building the
2^n vector.
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
    """Pure n-qubit state: 2^n real or complex amplitudes with unit squared norm."""

    n_qubits: int
    amplitudes: np.ndarray


def require_unit_norm(norm2: float) -> None:
    """Raise NormalizationError unless the squared norm is within NORM_TOL of 1.

    This is also the finiteness check: a NaN or infinite amplitude makes the
    squared norm NaN or infinite; ``not <= NORM_TOL`` rejects both, ``>``
    lets NaN pass.
    """
    if not abs(norm2 - 1.0) <= NORM_TOL:
        raise NormalizationError(
            f"squared norm {norm2!r} differs from 1 by more than {NORM_TOL}"
        )


def adopt_qstate(amps: np.ndarray) -> QState:
    """Validate a fresh float64 or complex128 vector and freeze it as a QState.

    The caller hands ``amps`` over: it becomes the state's read-only
    amplitudes without a copy.  ``require_unit_norm`` is its gate.
    """
    if amps.ndim != 1:
        raise ValueError(f"expected a 1-d array, got shape {amps.shape}")
    n = _n_qubits_for_dim(amps.shape[0])
    require_unit_norm(float(np.vdot(amps, amps).real))
    amps.setflags(write=False)
    return QState(n_qubits=n, amplitudes=amps)


def basis_state(n_qubits: int, label: int) -> QState:
    """Computational basis state for a 1-based basis label in 1 .. 2^n."""
    dim = 1 << n_qubits
    if not 1 <= label <= dim:
        raise ValueError(f"basis label must be in 1..{dim}, got {label}")
    v = np.zeros(dim, dtype=np.complex128)
    v[label - 1] = 1.0
    return adopt_qstate(v)


def hadamard() -> np.ndarray:
    """The 2x2 Hadamard gate (1/sqrt 2) [[1, 1], [1, -1]]."""
    h = 1.0 / math.sqrt(2.0)
    return np.array([[h, h], [h, -h]], dtype=np.complex128)


def projector(q: QState) -> np.ndarray:
    """Outer product |q><q|: entry (i, j) = q[i] * conj(q[j])."""
    v = q.amplitudes
    return np.outer(v, v.conj())


def completeness_residual(n_qubits: int) -> float:
    """Max-norm of (sum over all basis projectors) - identity.

    The sum of the projectors |i><i| is the one product K^T conj(K) of the
    stacked basis kets K; every entry is 0 or 1, so it is exact in any order,
    and so is subtracting the identity from its diagonal in place.
    """
    dim = 1 << n_qubits
    kets = np.empty((dim, dim), dtype=np.complex128)
    for row, label in enumerate(range(1, dim + 1)):
        kets[row] = basis_state(n_qubits, label).amplitudes
    total = kets.T @ kets.conj()
    total.flat[:: dim + 1] -= 1.0
    return float(np.abs(total).max())


def sample_measurement(
    state: tuple[int, int, float, float], rng_seed: int, shots: int
) -> dict[int, int]:
    """Histogram {1-based basis label: count} of i.i.d. measurements, in label order.

    ``state`` is (N, the target's 0-based index, other, tau): the state with
    amplitude ``tau`` at the target and ``other`` at the N - 1 other labels,
    which passes the norm gate before any draw.  Its Born distribution is two
    numbers: the target has probability tau^2 / norm^2, and the other labels
    share the rest equally.  So, from numpy's PCG64 generator seeded with
    ``rng_seed``, the target's count is one binomial draw, and each miss is a
    uniform draw over the other N - 1 indices, shifted past the target's.
    Dividing by the squared norm the gate accepted keeps p <= 1 for a pair
    just above unit norm.  Only observed labels appear; histograms are
    reproducible per (seed, shots) pair.
    """
    n_states, index, other, tau = state
    if shots < 1:
        raise ValueError("shots must be at least 1")
    norm2 = (n_states - 1) * other * other + tau * tau
    require_unit_norm(norm2)
    rng = np.random.default_rng(rng_seed)
    hits = int(rng.binomial(shots, tau * tau / norm2))
    misses = rng.integers(0, n_states - 1, shots - hits)
    misses += misses >= index
    labels, counts = np.unique(misses, return_counts=True)
    at = int(np.searchsorted(labels, index))
    labels, counts = (labels + 1).tolist(), counts.tolist()
    if hits:
        labels.insert(at, index + 1)
        counts.insert(at, hits)
    return dict(zip(labels, counts))


def random_qstate(n_qubits: int, rng: np.random.Generator) -> QState:
    """Random state: i.i.d. normal re/im amplitudes, normalized once."""
    dim = 1 << n_qubits
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return adopt_qstate(v / np.linalg.norm(v))
