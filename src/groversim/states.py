"""Measurement of the two-valued states the Grover kernel steps.

Basis outcomes are labelled 1-based (labels 1 .. 2^n), matching the
convention used throughout the package; storage index is always
``label - 1``.  The sampler draws the Born distribution of a state from its
two amplitudes: one binomial draw for the target and uniform draws over the
other labels, without building the 2^n vector.
"""

from __future__ import annotations

from .grover import GroverInstance, pair_norm2


def sample_measurement(
    state: tuple[GroverInstance, float, float], rng_seed: int, shots: int
) -> dict[int, int]:
    """Histogram {1-based basis label: count} of i.i.d. measurements, in label order.

    ``state`` is (instance, other, tau): the state with amplitude ``tau`` at
    the instance's target and ``other`` at the N - 1 other labels, which
    passes the norm gate (``grover.pair_norm2``) before any draw.  Its Born
    distribution is two numbers: the target has probability tau^2 / norm^2,
    and the other labels share the rest equally.  So, from numpy's PCG64
    generator seeded with ``rng_seed``, the target's count is one binomial
    draw, and each miss is a uniform draw over the other N - 1 indices,
    shifted past the target's.  Dividing by the squared norm the gate
    accepted keeps p <= 1 for a pair just above unit norm.  Only observed
    labels appear; histograms are reproducible per (seed, shots) pair.
    """
    # imported here: commands that do not sample start without numpy
    import numpy as np

    inst, other, tau = state
    if shots < 1:
        raise ValueError("shots must be at least 1")
    norm2 = pair_norm2(inst, other, tau)
    index = inst.target - 1
    rng = np.random.default_rng(rng_seed)
    hits = int(rng.binomial(shots, tau * tau / norm2))
    misses = rng.integers(0, inst.n_states - 1, shots - hits)
    misses += misses >= index
    labels, counts = np.unique(misses, return_counts=True)
    at = int(np.searchsorted(labels, index))
    labels, counts = (labels + 1).tolist(), counts.tolist()
    if hits:
        labels.insert(at, index + 1)
        counts.insert(at, hits)
    return dict(zip(labels, counts))
