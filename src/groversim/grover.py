"""Grover search instances, the two-value kernel, the norm gate and iteration analytics.

Simulation builds no 2^n vector: ``kernel_steps`` is the one stepping loop.
A step treats every non-target amplitude alike, so the state holds two
values; the kernel steps that pair, O(n) per step and bit for bit the 2^n
vector's.  ``target_probability`` reads the pair, and so does the sampler
(``states.sample_measurement``), both behind the norm gate ``pair_norm2``.
The dense operators and states the paper's claims are about are built in
:mod:`groversim.linalg`, for ``verify``.  This module imports no numpy (its
``_mean`` adds in numpy's order itself), so the commands that hold no vector
start without it.

All angles derive from theta = arcsin(1/sqrt(N)) for a search space of size
N = 2^n; the success probability after t iterations is sin^2((2t+1) theta),
and the optimal iteration count is the integer nearest to pi/(4 theta) - 1/2.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import reduce
from operator import add

#: Qubit ceiling the CLI enforces: the largest n at which the tests pin the
#: kernel's drift from the closed form.  Only ``verify``, on its n <= 12 grid,
#: builds a 2^n vector; ``T_LIMIT`` and ``factorization.MODULUS_LIMIT`` derive
#: from the cap.
KERNEL_QUBIT_CAP = 24

# Rounding slack on t_real: snaps N=4's t_real to exactly 1, and lets the
# floor win N=2's exact half (t_real = 1/2) despite double rounding.
_INTEGER_SNAP = 1e-9


@dataclass(frozen=True)
class GroverInstance:
    """A single-solution search problem: n qubits plus the target basis label.

    ``target`` is 1-based (1 .. 2^n).  Exactly one basis state is marked;
    multi-solution search is out of scope.
    """

    n_qubits: int
    target: int

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError("qubit count must be at least 1")
        if not 1 <= self.target <= self.n_states:
            raise ValueError(
                f"target must be in 1..{self.n_states}, got {self.target}"
            )

    @property
    def n_states(self) -> int:
        return 1 << self.n_qubits


@dataclass(frozen=True)
class GroverAngles:
    """Rotation half-angle theta = arcsin(1/sqrt(N)) for a space of size N."""

    theta: float
    n_states: int

    def __post_init__(self) -> None:
        if self.n_states < 2:
            raise ValueError("search space must contain at least 2 states")
        if not 0.0 < self.theta <= math.pi / 2:
            raise ValueError(f"theta out of (0, pi/2]: {self.theta}")
        if abs(math.sin(self.theta) - 1.0 / math.sqrt(self.n_states)) > 1e-12:
            raise ValueError("theta does not satisfy sin(theta) = 1/sqrt(N)")


#: Tolerance on |norm^2 - 1| accepted by the norm gate.
NORM_TOL = 1e-10


class NormalizationError(ValueError):
    """Vector does not have unit squared norm."""


def require_unit_norm(norm2: float) -> None:
    """Raise NormalizationError unless the squared norm is within NORM_TOL of 1.

    The one norm gate: every pair the package reads (``pair_norm2``) and every
    state ``linalg.adopt_qstate`` builds passes it.  It is also the finiteness
    check: a NaN or infinite amplitude makes the squared norm NaN or infinite;
    ``not <= NORM_TOL`` rejects both, ``>`` lets NaN pass.
    """
    if not abs(norm2 - 1.0) <= NORM_TOL:
        raise NormalizationError(
            f"squared norm {norm2!r} differs from 1 by more than {NORM_TOL}"
        )


def pair_norm2(inst: GroverInstance, other: float, tau: float) -> float:
    """Squared norm (N - 1) other^2 + tau^2 of the state with ``tau`` at the
    target and ``other`` elsewhere, after it passes ``require_unit_norm``."""
    norm2 = (inst.n_states - 1) * other * other + tau * tau
    require_unit_norm(norm2)
    return norm2


def grover_angles(n_states: int) -> GroverAngles:
    """Angles for a search space of ``n_states`` items."""
    if n_states < 2:
        raise ValueError("search space must contain at least 2 states")
    return GroverAngles(theta=math.asin(1.0 / math.sqrt(n_states)), n_states=n_states)


def _mean(n_states: int, slot: int, other: float, tau: float) -> float:
    """numpy's ``mean`` of the N-vector holding ``tau`` at the target and ``other``
    elsewhere, bit for bit, in O(n) and without numpy.

    numpy sums a contiguous float64 array pairwise: leaves of 128 elements
    (its PW_BLOCKSIZE), each level above joining two halves left + right.
    A leaf of L < 8 elements is added in order from 0.0.  A larger leaf is
    added in 8 lanes: lane j holds elements j, j+8, j+16, ... added in order,
    and the lanes join as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)).  In the
    all-``other`` leaf every lane holds the same running sum r, so the leaf
    sums to 8r exactly.  In the target's leaf only lane ``slot % 8`` differs,
    with ``tau`` entering it at row ``slot // 8``; float addition commutes, so
    wherever that lane sits the leaf is ((lane + r) + 2r) + 4r.  Each level
    up joins an all-``other`` sibling, exactly 2^k times the leaf since
    doubling is exact.  For N <= 128 the leaf is the whole vector.

    The order is numpy's, which makes it a dependency: the pair is defined
    as the amplitudes of numpy's vector loop,
    ``tests/oracles.py::vector_kernel_steps``, and ``TestTwoValueKernel`` in
    ``tests/test_grover.py`` pins every lane and row of the leaf against it,
    so a numpy that sums in another order fails there.  Python's ``sum`` is
    not used: from Python 3.12 it compensates its rounding.
    """
    leaf = min(n_states, 128)
    if leaf < 8:
        values = [other] * leaf
        values[slot] = tau
        return reduce(add, values, 0.0) / n_states
    rows, row = leaf // 8, slot // 8
    running = list(itertools.accumulate(itertools.repeat(other, rows)))
    lane = running[row - 1] + tau if row else tau
    lane = reduce(add, itertools.repeat(other, rows - row - 1), lane)
    plain = running[-1]
    total = ((lane + plain) + 2.0 * plain) + 4.0 * plain
    plain *= 8.0
    while leaf < n_states:
        total += plain
        plain += plain
        leaf *= 2
    return total / n_states


def kernel_steps(inst: GroverInstance) -> Iterator[tuple[float, float]]:
    """(other, tau) after 0, 1, 2, ... Grover steps from the uniform superposition.

    ``tau`` is the target amplitude and ``other`` every other one.  A step
    flips the target's sign and reflects every amplitude about the mean:
    other -> 2m - other and -tau -> 2m + tau, with the mean m taken by
    ``_mean`` in numpy's summation order over the 2^n vector.  So the pair is
    bit for bit the numpy vector loop's amplitudes
    (``tests/oracles.py::vector_kernel_steps``), at O(n) per step.
    """
    n_states = inst.n_states
    slot = (inst.target - 1) % 128
    other = tau = 1.0 / math.sqrt(n_states)
    while True:
        yield other, tau
        two_mean = 2.0 * _mean(n_states, slot, other, -tau)
        other, tau = two_mean - other, two_mean + tau


def pair_after_iterations(inst: GroverInstance, t: int) -> tuple[float, float]:
    """The kernel's (other, tau) after ``t`` Grover steps."""
    if t < 0:
        raise ValueError("iteration count must be non-negative")
    return next(itertools.islice(kernel_steps(inst), t, None))


def target_probability(inst: GroverInstance, other: float, tau: float) -> float:
    """Born probability |tau|^2 of the target in the two-valued state (other, tau).

    The pair passes the norm gate first (``pair_norm2``).  The probability is
    computed as ``abs(amplitude) ** 2``, as on a state's amplitude, so it is
    bit for bit the vector's.
    """
    pair_norm2(inst, other, tau)
    return abs(tau) ** 2


def success_probability(angles: GroverAngles, t: int) -> float:
    """sin^2((2t+1) theta): probability that measuring after t steps hits the target."""
    if t < 0:
        raise ValueError("iteration count must be non-negative")
    return math.sin((2 * t + 1) * angles.theta) ** 2


@dataclass(frozen=True)
class OptimalIterations:
    """Floor/ceiling candidates around pi/(4 theta) - 1/2 and the winner."""

    t_real: float
    t_floor: int
    t_ceil: int
    t_best: int
    p_best: float


def _snapped_t_real(angles: GroverAngles) -> float:
    t_real = math.pi / (4.0 * angles.theta) - 0.5
    nearest = round(t_real)
    if abs(t_real - nearest) <= _INTEGER_SNAP:
        return float(nearest)
    return t_real


def optimal_iterations(angles: GroverAngles) -> OptimalIterations:
    """The two practical iteration counts and the better of them.

    t_real = pi/(4 theta) - 1/2 maximizes the success probability over the
    reals; only its floor (clamped at 0) and ceiling are practical.  p_t is
    symmetric about t_real, so the better one is the integer nearest to
    t_real; at the one exact half (N=2) the snap lets the floor win.  The
    probabilities themselves are too close to 1 to compare from n = 41 up.
    """
    t_real = _snapped_t_real(angles)
    t_best = max(0, math.ceil(t_real - 0.5 - _INTEGER_SNAP))
    return OptimalIterations(
        t_real=t_real,
        t_floor=max(0, math.floor(t_real)),
        t_ceil=max(0, math.ceil(t_real)),
        t_best=t_best,
        p_best=success_probability(angles, t_best),
    )


def monotonic_increase_range(angles: GroverAngles) -> range:
    """Integer t with 0 < t and t+1 <= pi/(4 theta) - 1/2.

    On this range each extra iteration strictly increases the success
    probability.  The range may be empty (N = 2 and N = 4 both yield one).
    """
    t_real = _snapped_t_real(angles)
    hi = math.floor(t_real - 1.0)
    return range(1, hi + 1)


def monotonic_decrease_range(angles: GroverAngles) -> range:
    """Integer t with pi/(4 theta) - 1/2 <= t <= pi/(2 theta) - 3/2.

    On this range each extra iteration strictly decreases the success
    probability.  May be empty.
    """
    t_real = _snapped_t_real(angles)
    lo = math.ceil(t_real)
    hi = math.floor(2.0 * t_real - 0.5)  # pi/(2 theta) - 3/2 rewritten via t_real
    return range(lo, hi + 1)


def max_t_in_period(angles: GroverAngles) -> int:
    """Largest t with (2t+1) theta <= pi, bounding one period of p_t."""
    return math.floor((math.pi / angles.theta - 1.0) / 2.0)


#: Largest iteration count ``simulate`` and ``verify`` accept: one period of
#: p_t at the qubit cap (6433).  A larger t only repeats the curve.  The kernel
#: no longer takes hours to step that far; the limit stays as the usage contract.
T_LIMIT = max_t_in_period(grover_angles(2**KERNEL_QUBIT_CAP))
