"""Quantum states, the Hadamard gate, projectors and measurement.

A :class:`QState` wraps a read-only real or complex amplitude vector of
dimension ``2**n`` with unit squared norm; construction rejects anything
else, non-finite entries included, rather than silently renormalizing.
Basis outcomes are labelled 1-based (labels 1 .. 2^n), matching the
convention used throughout the package; storage index is always
``label - 1``.  Measurement samples the two-valued states the Grover kernel
steps, from their two amplitudes, without building the 2^n vector.
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
    stacked basis kets K; every entry is 0 or 1, so it is exact in any order.
    """
    dim = 1 << n_qubits
    kets = np.array([basis_state(n_qubits, label).amplitudes for label in range(1, dim + 1)])
    return float(np.abs(kets.T @ kets.conj() - np.eye(dim)).max())


def _cdf_pieces(n_states: int, index: int, square: float, target_square: float):
    """The CDF a two-valued state's 2^n vector gives ``np.cumsum``, as O(n) arithmetic pieces.

    The CDF adds ``square`` at every entry but ``index``, which adds
    ``target_square``, strictly left to right; the last entry is then set to
    1.0.  Inside one binade [2^e, 2^(e+1)) of the sum, each addition rounds
    to the binade's ulp u, so it adds the same multiple of u every time;
    only when square/u is a rounding tie can the first step differ, since
    round-half-even leaves the sum an even multiple of u after it.  So a
    piece starts only at the first entry, a binade crossing, a tie's first
    step, the target's entry and the override, and holds start + j * step * u
    exactly.  A step of 0 is a stall: ``square`` is below half an ulp of the
    sum.

    Returns the target's interval [lo, hi), where the draws that measure
    it land, and the pieces as rows (first entry, first value, last value,
    step in ulps, ulp); the last row is the override.  Every draw is below
    1.0, so the override lies above every draw even where the sum drifted
    past 1: to a draw, the rows are in order.
    """
    end = n_states - 1
    pieces = []
    i, s, hi = 0, 0.0, 1.0
    while i < end:
        if i == index:
            lo, s = s, s + target_square
            hi = s
            pieces.append((i, s, s, 0, 1.0))
            i += 1
            continue
        s += square
        ulp, step_ulps, length = math.ulp(s), 0, 1
        nxt = s + square
        step = nxt + square - nxt
        if nxt - s == step:  # else a tie's first step: the run starts at nxt
            stop = index if i < index else end
            if step == 0.0:
                length = stop - i
            else:
                step_ulps = int(step / ulp)
                to_top = int((math.ldexp(1.0, math.frexp(s)[1]) - s) / ulp)
                length = min(stop - i, -(-to_top // step_ulps))
        last = s + (length - 1) * step_ulps * ulp
        pieces.append((i, s, last, step_ulps, ulp))
        i, s = i + length, last
    if index == end:
        lo = s
    pieces.append((end, 1.0, 1.0, 0, 1.0))
    return (lo, hi), pieces


def sample_measurement(
    state: tuple[int, int, float, float], rng_seed: int, shots: int
) -> dict[int, int]:
    """Histogram {1-based basis label: count} of i.i.d. measurements, in label order.

    ``state`` is (N, the target's 0-based index, other, tau): the state with
    amplitude ``tau`` at the target and ``other`` at the N - 1 other labels,
    which passes the norm gate before any draw.  Draws come from numpy's
    PCG64 generator seeded with ``rng_seed``; each is placed by inverse-CDF
    search over the cumulative |amplitude|^2 of the 2^n vector with its top
    entry set to 1.0, bit for bit, but read from ``_cdf_pieces`` without the
    vector.  A draw in the target's interval is counted there; any other is
    placed by a search over the pieces' last values, then by integer
    arithmetic in units of its piece's ulp.  Only observed labels appear;
    histograms are reproducible per (seed, shots) pair.
    """
    n_states, index, other, tau = state
    if shots < 1:
        raise ValueError("shots must be at least 1")
    require_unit_norm((n_states - 1) * other * other + tau * tau)
    (lo, hi), pieces = _cdf_pieces(n_states, index, other * other, tau * tau)
    first, start, last, step, ulp = map(np.array, zip(*pieces))
    draws = np.random.default_rng(rng_seed).random(shots)
    rest = draws[(draws < lo) | (draws >= hi)]
    # the first piece with an entry above the draw; every entry before it is below
    piece = np.searchsorted(last, rest, side="right")
    outcomes = first[piece]
    inside = rest >= start[piece]
    piece = piece[inside]
    # start <= draw < last lie in one binade below 1, so the difference is exact
    ulps = ((rest[inside] - start[piece]) / ulp[piece]).astype(np.int64)
    outcomes[inside] += ulps // step[piece] + 1
    labels, counts = np.unique(outcomes, return_counts=True)
    at = int(np.searchsorted(labels, index))
    labels, counts = (labels + 1).tolist(), counts.tolist()
    if rest.size < shots:
        labels.insert(at, index + 1)
        counts.insert(at, shots - rest.size)
    return dict(zip(labels, counts))


def random_qstate(n_qubits: int, rng: np.random.Generator) -> QState:
    """Random state: i.i.d. normal re/im amplitudes, normalized once."""
    dim = 1 << n_qubits
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return adopt_qstate(v / np.linalg.norm(v))
