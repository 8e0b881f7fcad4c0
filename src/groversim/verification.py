"""Executable property-check harness with a machine-readable JSON report.

Every check in the registry exercises one verified property of the Grover
machinery over a parameter grid derived from a shared config.  Checks are
deterministic for a given config (each check derives its own seed), run
independently, and record a worst-case residual so the report shows how much
margin a pass had.

A check computes only what its property states.  T1.11 evolves a state
through the tensor layers it draws, one 2x2 factor at a time, and never forms
their product; T1.3 and T1.4, whose properties are about the matrix, form it.
T1.3 checks every matrix it draws.  T2.3 steps |phi0> by the dense Grover
matrix G = D U_f, one matrix-vector product per t, and compares the kernel's
(other, tau) pair, behind its norm gate, with the closed form's two values.

Residual conventions:

* closeness checks report a max-norm distance and pass when it is below the
  check's tolerance;
* order checks (strict inequalities) report the negated worst margin with
  tolerance 0.0, so the shared rule ``passed == worst_residual < tolerance``
  holds for both kinds;
* residuals are folded by ``_worse``, which keeps a NaN; a NaN worst
  residual becomes an error row, like a check body that raises.

``inject_fault`` swaps the diffusion operator for a non-unitary stand-in in
the two checks that consume it (T1.4 closure and the T2.3 closed-form
evolution check), proving the harness can fail; everything else is untouched.

``run_all`` runs the checks concurrently on a thread pool with one worker per
CPU, the longest first, and reports the rows in registry order.  Threads pay
off because the heavy checks spend their time in numpy and BLAS calls that
release the GIL: T1.14's N x N matrix products overlap the Python-bound
checks.  Each row's ``elapsed_ms`` is that check's wall time while the others
run, so the rows no longer add up to the command's time.  The pool gains most
with a single-threaded BLAS (``OPENBLAS_NUM_THREADS=1``); a multi-threaded
BLAS already spreads T1.14 over the CPUs, and then the pool's extra threads
compete with it.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

from .grover import (
    T_LIMIT,
    GroverAngles,
    GroverInstance,
    grover_angles,
    kernel_steps,
    max_t_in_period,
    monotonic_decrease_range,
    monotonic_increase_range,
    optimal_iterations,
    pair_norm2,
    success_probability,
)
from .linalg import (
    basis_state,
    closed_form_state,
    column_orthonormality_residual,
    completeness_residual,
    diffusion,
    hadamard,
    oracle,
    plane_state,
    projector,
    random_qstate,
    tensor_product_list,
    uniform_superposition,
    unitarity_residual,
)

# Residual recorded when a check body raises instead of measuring.
_ERROR_RESIDUAL = 1e300


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one registered check; its fields, in order, are a report row."""

    id: str
    theorem: str
    quote: str
    params: dict[str, Any]
    passed: bool
    worst_residual: float
    elapsed_ms: float


@dataclass(frozen=True)
class VerificationConfig:
    """Shared knobs for a full harness run."""

    n_max: int = 12
    t_max: int = 10
    seed: int = 20260810
    inject_fault: bool = False

    def __post_init__(self) -> None:
        if not 1 <= self.n_max <= 12:
            raise ValueError("n_max must be in 1..12")
        if not 1 <= self.t_max <= T_LIMIT:
            raise ValueError(f"t_max must be in 1..{T_LIMIT}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def _worse(worst: float, residual: float) -> float:
    """``max(worst, residual)``, keeping a NaN on either side where ``max`` may drop it."""
    return residual if residual > worst or residual != residual else worst


def _faulty_diffusion(n_qubits: int) -> np.ndarray:
    # Deliberately non-unitary stand-in; exists only to prove checks can fail.
    return 1.01 * diffusion(n_qubits)


def _random_layers(n_qubits: int, rng: np.random.Generator) -> list[list[np.ndarray]]:
    """1..3 tensor layers, each a list of ``n_qubits`` H / phase-diagonal / identity factors."""
    # the constant factors are built once and shared: nothing writes to a factor
    h, eye = hadamard(), np.eye(2, dtype=np.complex128)
    layers = []
    for _ in range(int(rng.integers(1, 4))):
        mats = []
        for _q in range(n_qubits):
            kind = int(rng.integers(0, 3))
            if kind == 0:
                mats.append(h)
            elif kind == 1:
                phi = float(rng.uniform(0.0, 2.0 * math.pi))
                mats.append(np.array([[1.0, 0.0], [0.0, np.exp(1j * phi)]], dtype=np.complex128))
            else:
                mats.append(eye)
        layers.append(mats)
    return layers


def _random_structured_unitary(n_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """The product L1 L2 ... of the tensor layers ``_random_layers`` draws."""
    u = None
    for mats in _random_layers(n_qubits, rng):
        layer = tensor_product_list(mats)
        u = layer if u is None else u @ layer
    return u


def _apply_layers(layers: list[list[np.ndarray]], v: np.ndarray) -> np.ndarray:
    """``L1 (L2 (... |v>))`` for the layers L = ``tensor_product_list(mats)``, never formed.

    Factor q of a layer acts on bit n-1-q of the 0-based index, that is on
    axis 1 of the vector viewed as (2^q, 2, 2^(n-1-q)).
    """
    for mats in reversed(layers):
        for q, m in enumerate(mats):
            v = np.matmul(m, v.reshape(1 << q, 2, -1)).reshape(-1)
    return v


# ---------------------------------------------------------------------------
# check bodies: each takes (config, derived seed), returns (worst_residual, params_echo)
# ---------------------------------------------------------------------------


def _check_columns_orthonormal(cfg: VerificationConfig, seed: int) -> tuple[float, dict]:
    rng = np.random.default_rng(seed)
    n_hi = min(cfg.n_max, 4)
    worst = 0.0
    for n in range(1, n_hi + 1):
        for _ in range(10):
            u = _random_structured_unitary(n, rng)
            worst = _worse(worst, column_orthonormality_residual(u))
    return worst, {"n_values": list(range(1, n_hi + 1)), "samples": 10}


def _check_unitary_closure(cfg: VerificationConfig, seed: int) -> tuple[float, dict]:
    rng = np.random.default_rng(seed)
    n_hi = min(cfg.n_max, 4)
    diffusion_op = _faulty_diffusion if cfg.inject_fault else diffusion
    worst = 0.0
    for n in range(1, n_hi + 1):
        pool = [_random_structured_unitary(n, rng) for _ in range(3)]
        pool.append(diffusion_op(n))
        pool.append(oracle(GroverInstance(n, int(rng.integers(1, (1 << n) + 1)))))
        for _ in range(10):
            a = pool[int(rng.integers(0, len(pool)))]
            b = pool[int(rng.integers(0, len(pool)))]
            worst = _worse(worst, unitarity_residual(a @ b))
    return worst, {"n_values": list(range(1, n_hi + 1)), "samples": 10}


def _check_hadamard_unitary(cfg: VerificationConfig, seed: int) -> tuple[float, dict]:
    return unitarity_residual(hadamard()), {}


def _check_norm_conservation(cfg: VerificationConfig, seed: int) -> tuple[float, dict]:
    rng = np.random.default_rng(seed)
    n_hi = min(cfg.n_max, 8)
    worst = 0.0
    for n in range(1, n_hi + 1):
        for _ in range(25):
            layers = _random_layers(n, rng)
            q = random_qstate(n, rng)
            evolved = _apply_layers(layers, q.amplitudes)
            worst = _worse(worst, abs(float(np.real(np.vdot(evolved, evolved))) - 1.0))
    return worst, {"n_values": list(range(1, n_hi + 1)), "samples": 25}


def _iter_check_states(n: int, samples: int, rng: np.random.Generator):
    dim = 1 << n
    if dim <= 16:
        for label in range(1, dim + 1):
            yield basis_state(n, label)
    for _ in range(samples):
        yield random_qstate(n, rng)


def _projector_law(residual: Callable[[np.ndarray], np.ndarray]) -> Callable:
    """Check body: max-norm of ``residual(|q><q|)`` over basis and random states."""

    def check(cfg: VerificationConfig, seed: int) -> tuple[float, dict]:
        rng = np.random.default_rng(seed)
        n_hi = min(cfg.n_max, 8)
        worst = 0.0
        for n in range(1, n_hi + 1):
            for q in _iter_check_states(n, 25, rng):
                worst = _worse(worst, float(np.abs(residual(projector(q))).max()))
        return worst, {"n_values": list(range(1, n_hi + 1)), "samples": 25}

    return check


def _self_adjoint_residual(p: np.ndarray) -> np.ndarray:
    """P - P', written over the temporary P' so the check holds one N x N array fewer.

    P' is laid out row-major, so the subtraction walks both arrays in order.
    """
    adjoint = np.conjugate(p.T, order="C")
    return np.subtract(p, adjoint, out=adjoint)


def _idempotent_residual(p: np.ndarray) -> np.ndarray:
    """P @ P - P, written over the product P @ P."""
    square = p @ p
    return np.subtract(square, p, out=square)


def _check_projector_completeness(cfg: VerificationConfig, seed: int) -> tuple[float, dict]:
    n_hi = min(cfg.n_max, 8)
    worst = 0.0
    for n in range(1, n_hi + 1):
        worst = _worse(worst, completeness_residual(n))
    return worst, {"n_values": list(range(1, n_hi + 1))}


def _check_phase_flip(cfg: VerificationConfig, seed: int) -> tuple[float, dict]:
    rng = np.random.default_rng(seed)
    n_hi = min(cfg.n_max, 6)
    worst = 0.0
    for n in range(1, n_hi + 1):
        target = int(rng.integers(1, (1 << n) + 1))
        inst = GroverInstance(n, target)
        u_f = oracle(inst)
        for _ in range(100):
            alpha = float(rng.uniform(0.0, 2.0 * math.pi))
            before = plane_state(inst, alpha).amplitudes
            expected = plane_state(inst, -alpha).amplitudes
            worst = _worse(worst, float(np.abs(u_f @ before - expected).max()))
    return worst, {"n_values": list(range(1, n_hi + 1)), "samples": 100}


def _stepped_states(g: np.ndarray, start: np.ndarray) -> Iterator[np.ndarray]:
    """G^t |start> for t = 0, 1, 2, ...: one matrix-vector product per step."""
    v = start
    while True:
        yield v
        v = g @ v


def _check_closed_form(cfg: VerificationConfig, seed: int) -> tuple[float, dict]:
    n_lo, n_hi = 2, min(cfg.n_max, 6)
    diffusion_op = _faulty_diffusion if cfg.inject_fault else diffusion
    worst = 0.0
    for n in range(n_lo, n_hi + 1):
        start = uniform_superposition(n).amplitudes
        d = diffusion_op(n)
        # the closed form's two values at t, (tau, other), read off the state
        # for target 1: they do not depend on the target
        closed = [
            closed_form_state(GroverInstance(n, 1), t).amplitudes[:2].tolist()
            for t in range(cfg.t_max + 1)
        ]
        for target in range(1, (1 << n) + 1):
            inst = GroverInstance(n, target)
            steps = zip(
                closed,
                _stepped_states(d @ oracle(inst), start),
                kernel_steps(inst),
            )
            for (c_tau, c_other), sim, (other, tau) in steps:
                # subtract first, then take numpy's array abs of every entry:
                # its complex abs and Python's abs() differ in the last bit
                diff = sim - c_other
                diff[target - 1] = sim[target - 1] - c_tau
                worst = _worse(worst, float(np.abs(diff).max()))
                # the kernel's pair, behind its norm gate, against the closed form
                pair_norm2(inst, other, tau)
                worst = _worse(worst, abs(other - c_other))
                worst = _worse(worst, abs(tau - c_tau))
    return worst, {
        "n_values": list(range(n_lo, n_hi + 1)),
        "targets": "all",
        "t_range": [0, cfg.t_max],
    }


def _check_periodicity(cfg: VerificationConfig, seed: int) -> tuple[float, dict]:
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, 10.0 * math.pi, 1000)
    worst = float(np.abs(np.sin(xs + math.pi) ** 2 - np.sin(xs) ** 2).max())
    return worst, {"samples": 1000}


def _monotonic(steps: Callable[[GroverAngles], range], sign: float, n_least: int) -> Callable:
    """Check body: the worst margin ``sign * (p(t+1) - p(t))`` over ``steps``, negated.

    n runs over 2..max(n_max, n_least), where ``n_least`` is the smallest n
    whose ``steps`` hold a t: a smaller ``n_max`` would leave the grid
    without an instance, and the check could not fail.
    """

    def check(cfg: VerificationConfig, seed: int) -> tuple[float, dict]:
        # a margin is a difference of probabilities, at most 1: the start
        # -1.0 is below every residual
        worst, instances = -1.0, 0
        n_values = list(range(2, max(cfg.n_max, n_least) + 1))
        for n in n_values:
            ang = grover_angles(1 << n)
            for t in steps(ang):
                margin = sign * (success_probability(ang, t + 1) - success_probability(ang, t))
                worst = _worse(worst, -margin)
                instances += 1
        return worst, {"n_values": n_values, "instances": instances}

    return check


def _check_optimality(cfg: VerificationConfig, seed: int) -> tuple[float, dict]:
    worst = -1.0
    for n in range(1, cfg.n_max + 1):
        ang = grover_angles(1 << n)
        p_best = optimal_iterations(ang).p_best
        for t in range(max_t_in_period(ang) + 1):
            worst = _worse(worst, success_probability(ang, t) - p_best)
    return worst, {"n_values": list(range(1, cfg.n_max + 1))}


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckSpec:
    """One registered property check: stable id, statement and tolerance."""

    check_id: str
    title: str
    statement: str
    tolerance: float
    runner: Callable[[VerificationConfig, int], tuple[float, dict]]


_SPECS = [
    CheckSpec(
        "T1.3",
        "Columns of a unitary matrix are orthonormal",
        "unitary(U) => sum_i U[i,x]*conj(U[i,y]) = delta(x,y)",
        1e-9,
        _check_columns_orthonormal,
    ),
    CheckSpec(
        "T1.4",
        "Products of unitary matrices are unitary",
        "unitary(A) and unitary(B) => unitary(A @ B)",
        1e-10,
        _check_unitary_closure,
    ),
    CheckSpec(
        "T1.9",
        "The Hadamard gate is unitary",
        "H'H = HH' = I",
        1e-10,
        _check_hadamard_unitary,
    ),
    CheckSpec(
        "T1.11",
        "Unitary evolution conserves probability",
        "unitary(U) => norm2(U|q>) = 1",
        1e-9,
        _check_norm_conservation,
    ),
    CheckSpec(
        "T1.13",
        "Projectors are self-adjoint",
        "P = P'",
        1e-12,
        _projector_law(_self_adjoint_residual),
    ),
    CheckSpec(
        "T1.14",
        "Projectors are idempotent",
        "P @ P = P",
        1e-12,
        _projector_law(_idempotent_residual),
    ),
    CheckSpec(
        "T1.15",
        "Basis projectors sum to the identity",
        "sum_i |i><i| = I",
        1e-10,
        _check_projector_completeness,
    ),
    CheckSpec(
        "T2.2",
        "The oracle flips exactly the target phase",
        "U_f(a|perp> + b|tau>) = a|perp> - b|tau>",
        1e-12,
        _check_phase_flip,
    ),
    CheckSpec(
        "T2.3",
        "Simulated Grover evolution matches the closed form",
        "G^t|phi0> = cos((2t+1)th)|perp> + sin((2t+1)th)|tau>",
        1e-9,
        _check_closed_form,
    ),
    CheckSpec(
        "T3.1",
        "The success probability has period pi",
        "sin(x + pi)^2 = sin(x)^2",
        1e-12,
        _check_periodicity,
    ),
    CheckSpec(
        "T3.2",
        "Success probability strictly increases before the optimum",
        "0 < t and t+1 <= pi/(4 th) - 1/2 => p(t) < p(t+1)",
        0.0,
        _monotonic(monotonic_increase_range, 1.0, 4),  # N = 16, t = 1
    ),
    CheckSpec(
        "T3.3",
        "Success probability strictly decreases after the optimum",
        "pi/(4 th) - 1/2 <= t <= pi/(2 th) - 3/2 => p(t) > p(t+1)",
        0.0,
        _monotonic(monotonic_decrease_range, -1.0, 2),  # N = 4, t = 1
    ),
    CheckSpec(
        "T3.4",
        "Floor/ceil of pi/(4 th) - 1/2 is the optimal iteration count",
        "(2t+1) th <= pi => p(t) <= max(p(t_floor), p(t_ceil))",
        1e-12,
        _check_optimality,
    ),
]

REGISTRY: dict[str, CheckSpec] = {spec.check_id: spec for spec in _SPECS}
CHECK_IDS: tuple[str, ...] = tuple(spec.check_id for spec in _SPECS)

# The longest checks on the default grid, longest first.  ``run_all`` starts
# them before the rest, so the short checks fill the other workers while they
# run instead of leaving one of them to finish alone.
_LONGEST = ("T1.14", "T1.13", "T2.3", "T1.11", "T2.2")


def run_check(check_id: str, cfg: VerificationConfig) -> CheckResult:
    """Run one registered check on ``cfg``'s grid.

    Unknown check ids raise ValueError.
    """
    if check_id not in REGISTRY:
        raise ValueError(f"unknown check id {check_id!r}; known: {', '.join(CHECK_IDS)}")
    spec = REGISTRY[check_id]
    # derived per check so parallel checks never share a stream
    seed = cfg.seed + 1000 * CHECK_IDS.index(check_id)

    start = time.perf_counter()
    try:
        worst, echo = spec.runner(cfg, seed)
        if math.isnan(worst):
            raise FloatingPointError("the worst residual is NaN")
    except Exception as exc:  # individual failures are recorded, not thrown
        worst, echo = _ERROR_RESIDUAL, {"error": f"{type(exc).__name__}: {exc}"}
    elapsed_ms = (time.perf_counter() - start) * 1e3

    echo["seed"] = seed
    echo["tolerance"] = spec.tolerance
    return CheckResult(
        id=check_id,
        theorem=spec.title,
        quote=spec.statement,
        params=echo,
        passed=worst < spec.tolerance,
        worst_residual=worst,
        elapsed_ms=elapsed_ms,
    )


@dataclass(frozen=True)
class VerificationReport:
    """All check results of one harness run plus the config that produced them."""

    schema_version: str = field(default="1", init=False)
    config: VerificationConfig
    results: tuple[CheckResult, ...]

    @property
    def passed_count(self) -> int:
        return sum(1 for r in self.results if r.passed)

    @property
    def failed_count(self) -> int:
        return sum(1 for r in self.results if not r.passed)

    @property
    def all_passed(self) -> bool:
        return self.failed_count == 0

    def failed_ids(self) -> list[str]:
        return [r.id for r in self.results if not r.passed]

    def to_json_dict(self) -> dict[str, Any]:
        return {
            **asdict(self),
            "summary": {"passed": self.passed_count, "failed": self.failed_count},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, allow_nan=False)


def run_all(cfg: VerificationConfig) -> VerificationReport:
    """Run every registered check, one worker thread per CPU, and aggregate a report.

    The checks share no state and each draws from its own seed, so they run
    concurrently; the rows come back in ``CHECK_IDS`` order.  Check failures
    are recorded in the report, never raised.
    """
    order = _LONGEST + tuple(check_id for check_id in CHECK_IDS if check_id not in _LONGEST)
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        futures = {check_id: pool.submit(run_check, check_id, cfg) for check_id in order}
    results = tuple(futures[check_id].result() for check_id in CHECK_IDS)
    return VerificationReport(config=cfg, results=results)
