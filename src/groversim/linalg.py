"""The 2^n side: every dense vector and matrix the package builds.

Only ``verify`` reaches this module.  Simulation, curves and sampling read
the kernel's ``(other, tau)`` pair in :mod:`groversim.grover`; the paper's
claims about dense objects (unitarity of the oracle and diffusion, the
projector laws, the closed form elementwise) are checked here, on states
and operators built literally.

A :class:`QState` wraps a read-only real or complex amplitude vector of
dimension ``2**n`` with unit squared norm.  :func:`adopt_qstate` is its one
builder and puts the shared norm gate on it, so non-finite entries are
rejected too, never silently renormalized.  Basis outcomes are labelled
1-based (labels 1 .. 2^n); storage index is always ``label - 1``.

Matrices are complex128, square and 0-based row-major, validated on entry by
:func:`as_matrix`, which rejects non-finite entries (NaN/Inf).
:func:`tensor_product_list` validates its 2x2 factors the same way, all in
one pass.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .grover import GroverInstance, grover_angles, require_unit_norm


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


def random_qstate(n_qubits: int, rng: np.random.Generator) -> QState:
    """Random state: i.i.d. normal re/im amplitudes, normalized once."""
    dim = 1 << n_qubits
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return adopt_qstate(v / np.linalg.norm(v))


def uniform_superposition(n_qubits: int) -> QState:
    """H^(x)n |0...0>: every amplitude 1/sqrt(N), built directly."""
    if n_qubits < 1:
        raise ValueError("qubit count must be at least 1")
    dim = 1 << n_qubits
    return adopt_qstate(np.full(dim, 1.0 / math.sqrt(dim), dtype=np.complex128))


def two_valued_state(inst: GroverInstance, other: float, tau: float) -> QState:
    """The state with amplitude ``tau`` at the target and ``other`` everywhere else."""
    v = np.full(inst.n_states, other)
    v[inst.target - 1] = tau
    return adopt_qstate(v)


def plane_state(inst: GroverInstance, angle: float) -> QState:
    """The state cos(angle)|tau_perp> + sin(angle)|tau> of the Grover plane.

    |tau> is the target basis state and |tau_perp> the normalized uniform
    superposition of all the others, so ``plane_state(inst, 0.0)`` is
    |tau_perp> itself.
    """
    return two_valued_state(
        inst, math.cos(angle) * (1.0 / math.sqrt(inst.n_states - 1)), math.sin(angle)
    )


def closed_form_state(inst: GroverInstance, t: int) -> QState:
    """The state cos((2t+1) theta)|tau_perp> + sin((2t+1) theta)|tau>.

    Built directly from the angle formula, phase-exact (not merely equal up
    to a global phase): this is the analytic counterpart the simulation
    is checked against.
    """
    if t < 0:
        raise ValueError("iteration count must be non-negative")
    return plane_state(inst, (2 * t + 1) * grover_angles(inst.n_states).theta)


def hadamard() -> np.ndarray:
    """The 2x2 Hadamard gate (1/sqrt 2) [[1, 1], [1, -1]]."""
    h = 1.0 / math.sqrt(2.0)
    return np.array([[h, h], [h, -h]], dtype=np.complex128)


def oracle(inst: GroverInstance) -> np.ndarray:
    """Phase-flip reflection: diagonal +1 everywhere, -1 at the target label."""
    d = np.ones(inst.n_states, dtype=np.complex128)
    d[inst.target - 1] = -1.0
    return np.diag(d)


def diffusion(n_qubits: int) -> np.ndarray:
    """Inversion about the mean: 2|phi0><phi0| - I for the uniform |phi0>.

    Entries: 1/2^(n-1) off the diagonal, 1/2^(n-1) - 1 on it.
    """
    if n_qubits < 1:
        raise ValueError("qubit count must be at least 1")
    dim = 1 << n_qubits
    off = 2.0 / dim
    d = np.full((dim, dim), off, dtype=np.complex128)
    np.fill_diagonal(d, off - 1.0)
    return d


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


def unitarity_residual(a) -> float:
    """Max-norm of U†U - I and UU† - I, whichever is worse."""
    u = as_matrix(a)
    eye = np.eye(u.shape[0], dtype=np.complex128)
    ud = u.conj().T
    return float(max(np.abs(ud @ u - eye).max(), np.abs(u @ ud - eye).max()))


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
