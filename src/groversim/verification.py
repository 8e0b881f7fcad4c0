"""Executable property-check harness with a machine-readable JSON report.

Every check in the registry exercises one verified property of the Grover
machinery over a parameter grid derived from a shared config.  Checks are
deterministic for a given config (each check derives its own seed), run
independently, and record a worst-case residual so the report shows how much
margin a pass had.

Residual conventions:

* closeness checks report a max-norm distance and pass when it is below the
  check's tolerance;
* order checks (strict inequalities) report the negated worst margin with
  tolerance 0.0, so the shared rule ``passed == worst_residual < tolerance``
  holds for both kinds.

``inject_fault`` swaps the diffusion operator for a non-unitary stand-in in
the two checks that consume it (T1.4 closure and the T2.3 closed-form
evolution check), proving the harness can fail; everything else is untouched.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from .grover import (
    T_LIMIT,
    GroverAngles,
    GroverInstance,
    closed_form_state,
    diffusion,
    grover_angles,
    kernel_steps,
    max_t_in_period,
    monotonic_decrease_range,
    monotonic_increase_range,
    optimal_iterations,
    oracle,
    plane_state,
    success_probability,
    uniform_superposition,
)
from .linalg import (
    column_orthonormality_residual,
    is_unitary,
    matmul,
    tensor_product_list,
    unitarity_residual,
)
from .states import (
    basis_state, completeness_residual, hadamard, make_qstate, projector, random_qstate
)

# Residual recorded when a check body raises instead of measuring.
_ERROR_RESIDUAL = 1e300


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one registered check."""

    check_id: str
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
    tolerances: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 1 <= self.n_max <= 12:
            raise ValueError("n_max must be in 1..12")
        if not 1 <= self.t_max <= T_LIMIT:
            raise ValueError(f"t_max must be in 1..{T_LIMIT}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def _faulty_diffusion(n_qubits: int) -> np.ndarray:
    # Deliberately non-unitary stand-in; exists only to prove checks can fail.
    return 1.01 * diffusion(n_qubits)


def _random_structured_unitary(n_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Product of 1..3 tensor layers of H / phase-diagonal / identity factors."""
    u = None
    for _ in range(int(rng.integers(1, 4))):
        mats = []
        for _q in range(n_qubits):
            kind = int(rng.integers(0, 3))
            if kind == 0:
                mats.append(hadamard())
            elif kind == 1:
                phi = float(rng.uniform(0.0, 2.0 * math.pi))
                mats.append(np.diag([1.0, np.exp(1j * phi)]).astype(np.complex128))
            else:
                mats.append(np.eye(2, dtype=np.complex128))
        layer = tensor_product_list(mats)
        u = layer if u is None else u @ layer
    return u


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
            if not is_unitary(u):
                continue  # the property is an implication from unitarity
            worst = max(worst, column_orthonormality_residual(u))
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
            worst = max(worst, unitarity_residual(matmul(a, b)))
    return worst, {"n_values": list(range(1, n_hi + 1)), "samples": 10}


def _check_hadamard_unitary(cfg: VerificationConfig, seed: int) -> tuple[float, dict]:
    return unitarity_residual(hadamard()), {}


def _check_norm_conservation(cfg: VerificationConfig, seed: int) -> tuple[float, dict]:
    rng = np.random.default_rng(seed)
    n_hi = min(cfg.n_max, 8)
    worst = 0.0
    for n in range(1, n_hi + 1):
        for _ in range(25):
            u = _random_structured_unitary(n, rng)
            q = random_qstate(n, rng)
            evolved = u @ q.amplitudes
            worst = max(worst, abs(float(np.real(np.vdot(evolved, evolved))) - 1.0))
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
                worst = max(worst, float(np.abs(residual(projector(q))).max()))
        return worst, {"n_values": list(range(1, n_hi + 1)), "samples": 25}

    return check


def _check_projector_completeness(cfg: VerificationConfig, seed: int) -> tuple[float, dict]:
    n_hi = min(cfg.n_max, 8)
    worst = 0.0
    for n in range(1, n_hi + 1):
        worst = max(worst, completeness_residual(n))
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
            worst = max(worst, float(np.abs(u_f @ before - expected).max()))
    return worst, {"n_values": list(range(1, n_hi + 1)), "samples": 100}


def _check_closed_form(cfg: VerificationConfig, seed: int) -> tuple[float, dict]:
    n_lo, n_hi = 2, min(cfg.n_max, 6)
    diffusion_op = _faulty_diffusion if cfg.inject_fault else diffusion
    worst = 0.0
    for n in range(n_lo, n_hi + 1):
        start = uniform_superposition(n).amplitudes
        for target in range(1, (1 << n) + 1):
            inst = GroverInstance(n, target)
            g = diffusion_op(n) @ oracle(inst)
            # G^t by left multiplication, one factor per t
            g_pow = np.eye(1 << n, dtype=np.complex128)
            for t, amps in zip(range(cfg.t_max + 1), kernel_steps(inst)):
                closed = closed_form_state(inst, t).amplitudes
                sim_matrix = g_pow @ start
                worst = max(worst, float(np.abs(sim_matrix - closed).max()))
                kernel = make_qstate(amps).amplitudes
                worst = max(worst, float(np.abs(kernel - closed).max()))
                g_pow = g @ g_pow
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


def _monotonic(steps: Callable[[GroverAngles], range], sign: float) -> Callable:
    """Check body: the worst margin ``sign * (p(t+1) - p(t))`` over ``steps``, negated."""

    def check(cfg: VerificationConfig, seed: int) -> tuple[float, dict]:
        margins = []
        for n in range(2, cfg.n_max + 1):
            ang = grover_angles(1 << n)
            for t in steps(ang):
                margins.append(
                    sign * (success_probability(ang, t + 1) - success_probability(ang, t))
                )
        worst = -min(margins, default=1.0)
        return worst, {"n_values": list(range(2, cfg.n_max + 1)), "instances": len(margins)}

    return check


def _check_optimality(cfg: VerificationConfig, seed: int) -> tuple[float, dict]:
    worst = -1.0
    for n in range(1, cfg.n_max + 1):
        ang = grover_angles(1 << n)
        opt = optimal_iterations(ang)
        p_max = max(
            success_probability(ang, t) for t in range(max_t_in_period(ang) + 1)
        )
        worst = max(worst, p_max - opt.p_best)
    return worst, {"n_values": list(range(1, cfg.n_max + 1))}


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckSpec:
    """One registered property check: stable id, statement and default tolerance."""

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
        _projector_law(lambda p: p - p.conj().T),
    ),
    CheckSpec(
        "T1.14",
        "Projectors are idempotent",
        "P @ P = P",
        1e-12,
        _projector_law(lambda p: p @ p - p),
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
        _monotonic(monotonic_increase_range, 1.0),
    ),
    CheckSpec(
        "T3.3",
        "Success probability strictly decreases after the optimum",
        "pi/(4 th) - 1/2 <= t <= pi/(2 th) - 3/2 => p(t) > p(t+1)",
        0.0,
        _monotonic(monotonic_decrease_range, -1.0),
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


def run_check(check_id: str, config: VerificationConfig | None = None) -> CheckResult:
    """Run one registered check on ``config``'s grid.

    Unknown check ids raise ValueError.
    """
    if check_id not in REGISTRY:
        raise ValueError(f"unknown check id {check_id!r}; known: {', '.join(CHECK_IDS)}")
    spec = REGISTRY[check_id]
    cfg = config if config is not None else VerificationConfig()
    tolerance = float(cfg.tolerances.get(check_id, spec.tolerance))
    # derived per check so parallel checks never share a stream
    seed = cfg.seed + 1000 * CHECK_IDS.index(check_id)

    start = time.perf_counter()
    try:
        worst, echo = spec.runner(cfg, seed)
    except Exception as exc:  # individual failures are recorded, not thrown
        worst, echo = _ERROR_RESIDUAL, {"error": f"{type(exc).__name__}: {exc}"}
    elapsed_ms = (time.perf_counter() - start) * 1e3

    echo["seed"] = seed
    echo["tolerance"] = tolerance
    return CheckResult(
        check_id=check_id,
        params=echo,
        passed=worst < tolerance,
        worst_residual=worst,
        elapsed_ms=elapsed_ms,
    )


@dataclass(frozen=True)
class VerificationReport:
    """All check results of one harness run plus the config that produced them."""

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
        return [r.check_id for r in self.results if not r.passed]

    def to_json_dict(self) -> dict[str, Any]:
        results = []
        for r in self.results:
            spec = REGISTRY[r.check_id]
            results.append(
                {
                    "id": r.check_id,
                    "theorem": spec.title,
                    "quote": spec.statement,
                    "params": r.params,
                    "passed": r.passed,
                    "worst_residual": r.worst_residual,
                    "elapsed_ms": r.elapsed_ms,
                }
            )
        return {
            "schema_version": "1",
            "config": asdict(self.config),
            "results": results,
            "summary": {"passed": self.passed_count, "failed": self.failed_count},
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent, allow_nan=False)


def run_all(config: VerificationConfig | None = None) -> VerificationReport:
    """Run every registered check and aggregate a report.

    Check failures are recorded in the report, never raised.
    """
    cfg = config if config is not None else VerificationConfig()
    results = tuple(run_check(check_id, config=cfg) for check_id in CHECK_IDS)
    return VerificationReport(config=cfg, results=results)
