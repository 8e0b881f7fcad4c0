"""Independent reference implementations the tests check the library against.

These deliberately use different algorithms from the package code: the
Kronecker oracles fold ``np.kron`` left to right or evaluate the bit-index
product formula level by level, where the package folds broadcast products
from the right, and the matvec oracle is a plain double loop.  The sampling
reference keeps the sampler's first form: out-of-place square and cumulative
sum, and a ``Counter`` of the drawn labels.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np


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


def naive_matvec(a, v) -> np.ndarray:
    """Matrix-vector product as an explicit double loop."""
    a = np.asarray(a, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    rows, cols = a.shape
    out = np.zeros(rows, dtype=np.complex128)
    for i in range(rows):
        acc = 0.0 + 0.0j
        for j in range(cols):
            acc += a[i, j] * v[j]
        out[i] = acc
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


def counter_histogram(amplitudes, rng_seed: int, shots: int) -> Counter:
    """Inverse-CDF sampling of 1-based labels, counted in first-seen order."""
    cdf = np.cumsum(np.abs(amplitudes) ** 2)
    cdf[-1] = 1.0
    draws = np.random.default_rng(rng_seed).random(shots)
    return Counter((np.searchsorted(cdf, draws, side="right") + 1).tolist())
