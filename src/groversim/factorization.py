"""Grover-accelerated trial-division factor search with classical verification.

A modulus M is factored by searching the candidate range [2, floor(sqrt(M))]
for a divisor.  Candidates are encoded directly: the ket |d> (0-based integer
label d) holds candidate d, so with the package's 1-based basis labels the
divisor d sits at basis label d + 1.  Labels 1 and 2 (candidates 0 and 1) are
part of the space but never marked.

Only single-solution instances are supported: a modulus with zero or several
divisors in range is rejected up front, because the amplification analysis
assumes exactly one marked state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .grover import (
    KERNEL_QUBIT_CAP,
    GroverInstance,
    grover_angles,
    kernel_steps,
    max_t_in_period,
    optimal_iterations,
    state_after_iterations,
    success_probability,
)
from .states import make_qstate, measurement_probability, sample_measurement


#: Smallest modulus whose candidate range [2, floor(sqrt(m))] needs more than
#: ``KERNEL_QUBIT_CAP`` qubits.
MODULUS_LIMIT = 1 << (2 * KERNEL_QUBIT_CAP)


class NoSolutionError(ValueError):
    """The modulus has no divisor in the search range (prime, for instance)."""


class MultipleSolutionsError(ValueError):
    """The modulus has several divisors in range; single-solution search only."""


def _divisors_in_range(m: int) -> list[int]:
    root = math.isqrt(m)
    return [d for d in range(2, root + 1) if m % d == 0]


def build_factor_instance(m: int) -> GroverInstance:
    """Search instance whose marked state encodes the unique divisor of ``m``.

    Raises :class:`NoSolutionError` when no divisor lies in
    [2, floor(sqrt(m))] and :class:`MultipleSolutionsError` when more than
    one does.  Moduli from ``MODULUS_LIMIT`` up, whose candidate range needs
    more than ``KERNEL_QUBIT_CAP`` qubits, raise ValueError before the
    divisor scan.
    """
    if m < 6:
        raise ValueError("modulus must be at least 6")
    if m >= MODULUS_LIMIT:
        raise ValueError(
            f"modulus must be below 2**{2 * KERNEL_QUBIT_CAP}: larger ones need "
            f"more than {KERNEL_QUBIT_CAP} qubits"
        )
    marked = _divisors_in_range(m)
    if not marked:
        raise NoSolutionError(f"{m} has no divisor in [2, {math.isqrt(m)}]")
    if len(marked) > 1:
        raise MultipleSolutionsError(
            f"{m} has {len(marked)} divisors in range ({marked}); "
            "single-solution search only"
        )
    divisor = marked[0]
    # smallest n with 2^n > floor(sqrt(m)), so the space covers every candidate
    return GroverInstance(n_qubits=math.isqrt(m).bit_length(), target=divisor + 1)


@dataclass(frozen=True)
class FactorResult:
    """Outcome of one sampled factor search.

    ``factor``/``cofactor`` are None when the modal measurement outcome
    failed the classical divisibility check; the histogram is retained either
    way so failures can be diagnosed.  Fields are in the order of the
    ``factor`` command's report.
    """

    factor: int | None
    cofactor: int | None
    t_used: int
    p_predicted: float
    empirical_frequency: float
    modal_candidate: int
    shots: int
    seed: int
    histogram: dict[int, int]

    @property
    def succeeded(self) -> bool:
        return self.factor is not None


def run_factor_search(m: int, seed: int, shots: int) -> FactorResult:
    """Amplify, sample, take the modal outcome and verify it classically.

    The iteration count is the better of floor/ceil of pi/(4 theta) - 1/2.
    Modal ties break toward the smaller basis label so results stay
    deterministic per (seed, shots).  A modal outcome that is not a divisor
    yields a failed result, not an exception; a modulus that
    :func:`build_factor_instance` rejects raises its error.
    """
    inst = build_factor_instance(m)
    opt = optimal_iterations(grover_angles(inst.n_states))
    state = state_after_iterations(inst, opt.t_best)
    histogram = sample_measurement(state, seed, shots)
    modal_label = max(histogram, key=histogram.get)  # first, so smallest, on ties
    candidate = modal_label - 1
    if 2 <= candidate < m and m % candidate == 0:
        factor, cofactor = candidate, m // candidate
    else:
        factor, cofactor = None, None
    return FactorResult(
        factor=factor,
        cofactor=cofactor,
        t_used=opt.t_best,
        p_predicted=opt.p_best,
        empirical_frequency=histogram[modal_label] / shots,
        modal_candidate=candidate,
        shots=shots,
        seed=seed,
        histogram=histogram,
    )


class CurvePoint(NamedTuple):
    t: int
    p_simulated: float
    p_closed_form: float


def probability_curve(inst: GroverInstance, t_max: int | None = None) -> list[CurvePoint]:
    """Success probability rows (t, simulated, closed form) for t = 0..t_max.

    ``t_max`` defaults to the largest t inside one period, i.e. with
    (2t+1) theta <= pi, and may not exceed it.
    """
    angles = grover_angles(inst.n_states)
    bound = max_t_in_period(angles)
    if t_max is None:
        t_max = bound
    elif t_max > bound:
        raise ValueError(f"t_max {t_max} exceeds the single-period bound {bound}")
    if t_max < 0:
        raise ValueError("t_max must be non-negative")
    # range first: zip stops there without drawing one more kernel step
    return [
        CurvePoint(
            t=t,
            p_simulated=measurement_probability(make_qstate(amps), inst.target),
            p_closed_form=success_probability(angles, t),
        )
        for t, amps in zip(range(t_max + 1), kernel_steps(inst))
    ]


def curve_to_csv(curve: list[CurvePoint]) -> str:
    """CSV rendering: header row, 12 significant digits, LF line endings."""
    lines = ["t,p_simulated,p_closed_form"]
    for row in curve:
        lines.append(f"{row.t},{row.p_simulated:.12g},{row.p_closed_form:.12g}")
    return "\n".join(lines) + "\n"
