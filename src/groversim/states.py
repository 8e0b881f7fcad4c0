"""The norm gate and measurement.

``require_unit_norm`` is the one norm gate: every state the package builds
(:func:`groversim.linalg.adopt_qstate`) and every two-valued pair it reads
(``grover.target_probability``, ``sample_measurement``) passes it.  Basis
outcomes are labelled 1-based (labels 1 .. 2^n), matching the convention used
throughout the package; storage index is always ``label - 1``.  Measurement
samples the Born distribution of the two-valued states the Grover kernel
steps, from their two amplitudes: one binomial draw for the target and
uniform draws over the other labels, without building the 2^n vector.
"""

from __future__ import annotations

import numpy as np

#: Tolerance on |norm^2 - 1| accepted by the norm gate.
NORM_TOL = 1e-10


class NormalizationError(ValueError):
    """Vector does not have unit squared norm."""


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
