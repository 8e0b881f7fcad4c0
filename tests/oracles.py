"""Independent reference implementations the tests check the library against.

These deliberately use different algorithms from the package code: the
Kronecker oracles fold ``np.kron`` left to right or evaluate the bit-index
product formula level by level, where the package folds broadcast products
from the right.  The kernel reference keeps the first kernel: it steps the
whole 2^n vector, where the package steps the two values that vector holds.
The Born-rule reference reads one amplitude of a whole state, where the
package reads the kernel's pair; the divisor reference is the first scan, one
Python ``%`` per candidate.  The Grover power reference forms G^t by left
multiplication, one matrix product per t, where the verify harness steps the
vector.

``kernel_state`` is not a reference: it spells the package's one route from
the kernel's pair to a 2^n state as one call.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from groversim.grover import pair_after_iterations
from groversim.linalg import two_valued_state


def kron_fold(ms) -> np.ndarray:
    """Left-to-right Kronecker product of a list of matrices."""
    out = np.array([[1.0 + 0.0j]])
    for m in ms:
        out = np.kron(out, np.asarray(m, dtype=np.complex128))
    return out


def bit_index_product(ms) -> np.ndarray:
    """R[i, j] = prod_l ms[k-1-l][bit_l(i), bit_l(j)], multiplied in order l = 0, 1, ...

    Every entry is 1 * ms[k-1][..] * ms[k-2][..] * ... * ms[0][..], the
    multiplication order ``tensor_product_list`` keeps, so the two agree bit
    for bit.
    """
    k = len(ms)
    dim = 1 << k
    out = np.ones((dim, dim), dtype=np.complex128)
    for level in range(k):
        bits = (np.arange(dim) >> level) & 1
        out *= np.asarray(ms[k - 1 - level], dtype=np.complex128)[np.ix_(bits, bits)]
    return out


def random_2x2(rng: np.random.Generator) -> np.ndarray:
    """Gate-scale random factor: entries bounded by sqrt(2) so products of a
    handful of factors stay O(1) and rounding stays well below 1e-14."""
    return rng.uniform(-1.0, 1.0, (2, 2)) + 1j * rng.uniform(-1.0, 1.0, (2, 2))


def random_structured_unitary(n_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Unitary built from tensor layers of H and phase-diagonal factors."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2.0)
    u = np.eye(1 << n_qubits, dtype=np.complex128)
    for _ in range(int(rng.integers(1, 4))):
        factors = []
        for _q in range(n_qubits):
            if rng.random() < 0.5:
                factors.append(h)
            else:
                phi = rng.uniform(0.0, 2.0 * math.pi)
                factors.append(np.diag([1.0, np.exp(1j * phi)]))
        u = u @ kron_fold(factors)
    return u


def grover_power_states(g, start, t_max: int) -> Iterator[np.ndarray]:
    """G^t @ start for t = 0..t_max, with G^t formed by left multiplication, one factor per t."""
    g_pow = np.eye(len(start), dtype=np.complex128)
    for t in range(t_max + 1):
        if t:
            g_pow = g @ g_pow
        yield g_pow @ start


def vector_kernel_steps(inst) -> Iterator[np.ndarray]:
    """Real amplitudes after 0, 1, 2, ... Grover steps from the uniform superposition.

    Each step of the vector kernel flips the sign of the target amplitude,
    then reflects every amplitude about the mean: O(2^n) per step, in place in
    one buffer for the whole pass, so a yielded array is valid only until the
    next one is drawn.
    """
    amps = np.full(inst.n_states, 1.0 / math.sqrt(inst.n_states))
    flip = inst.target - 1
    while True:
        yield amps
        amps[flip] = -amps[flip]
        np.subtract(2.0 * amps.mean(), amps, out=amps)


def kernel_state(inst, t: int):
    """The state after ``t`` Grover steps: ``two_valued_state`` of the kernel's pair."""
    return two_valued_state(inst, *pair_after_iterations(inst, t))


def measurement_probability(q, label: int) -> float:
    """Born probability |q[label - 1]|^2 of the 1-based basis outcome ``label``."""
    dim = len(q.amplitudes)
    if not 1 <= label <= dim:
        raise ValueError(f"basis label must be in 1..{dim}, got {label}")
    return float(abs(q.amplitudes[label - 1]) ** 2)


def divisors_in_range(m: int) -> list[int]:
    """Every divisor of ``m`` in [2, floor(sqrt(m))], one candidate at a time."""
    return [d for d in range(2, math.isqrt(m) + 1) if m % d == 0]
