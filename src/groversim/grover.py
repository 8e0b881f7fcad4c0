"""Grover operators, simulation, closed-form dynamics and iteration analytics.

The operators are built literally as dense matrices (oracle, diffusion and
the Grover step G = D U_f) so that the paper's claims about them can be
checked.  Simulation does not use them: ``kernel_steps`` is the one stepping
loop, an O(2^n)-per-step vector kernel (sign flip at the target, then
inversion about the mean) that yields the amplitudes after every step, at
every qubit count up to ``KERNEL_QUBIT_CAP``.  ``plane_state`` builds
cos(a)|tau_perp> + sin(a)|tau>; the closed form is a = (2t+1) theta.

All angles derive from theta = arcsin(1/sqrt(N)) for a search space of size
N = 2^n; the success probability after t iterations is sin^2((2t+1) theta),
and the optimal iteration count is the integer nearest to pi/(4 theta) - 1/2.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .linalg import matmul
from .states import QState, make_qstate

#: Qubit ceiling for the vector kernel (memory-bound, enforced by the CLI).
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


def grover_angles(n_states: int) -> GroverAngles:
    """Angles for a search space of ``n_states`` items."""
    if n_states < 2:
        raise ValueError("search space must contain at least 2 states")
    return GroverAngles(theta=math.asin(1.0 / math.sqrt(n_states)), n_states=n_states)


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


def grover_operator(inst: GroverInstance) -> np.ndarray:
    """One Grover step: the diffusion reflection composed after the oracle."""
    return matmul(diffusion(inst.n_qubits), oracle(inst))


def uniform_superposition(n_qubits: int) -> QState:
    """H^(x)n |0...0>: every amplitude 1/sqrt(N), built directly."""
    if n_qubits < 1:
        raise ValueError("qubit count must be at least 1")
    dim = 1 << n_qubits
    return make_qstate(np.full(dim, 1.0 / math.sqrt(dim), dtype=np.complex128))


def kernel_steps(inst: GroverInstance) -> Iterator[np.ndarray]:
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


def _simulate_kernel(inst: GroverInstance, t: int) -> QState:
    return make_qstate(next(itertools.islice(kernel_steps(inst), t, None)))


def state_after_iterations(inst: GroverInstance, t: int) -> QState:
    """State after ``t`` Grover steps applied to the uniform superposition."""
    if t < 0:
        raise ValueError("iteration count must be non-negative")
    return _simulate_kernel(inst, t)


def plane_state(inst: GroverInstance, angle: float) -> QState:
    """The state cos(angle)|tau_perp> + sin(angle)|tau> of the Grover plane.

    |tau> is the target basis state and |tau_perp> the normalized uniform
    superposition of all the others, so ``plane_state(inst, 0.0)`` is
    |tau_perp> itself.
    """
    v = np.full(inst.n_states, math.cos(angle) * (1.0 / math.sqrt(inst.n_states - 1)))
    v[inst.target - 1] = math.sin(angle)
    return make_qstate(v)


def closed_form_state(inst: GroverInstance, t: int) -> QState:
    """The state cos((2t+1) theta)|tau_perp> + sin((2t+1) theta)|tau>.

    Built directly from the angle formula, phase-exact (not merely equal up
    to a global phase): this is the analytic counterpart the simulation
    is checked against.
    """
    if t < 0:
        raise ValueError("iteration count must be non-negative")
    return plane_state(inst, (2 * t + 1) * grover_angles(inst.n_states).theta)


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
#: p_t at the qubit cap (6433); a larger t only repeats the curve, at up to
#: hours of kernel time.
T_LIMIT = max_t_in_period(grover_angles(2**KERNEL_QUBIT_CAP))
