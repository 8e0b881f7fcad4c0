"""Acceptance suite: each test runs one exit criterion at its stated tolerance
and prints a single pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import json
import math
import time

import numpy as np

from groversim.cli import main
from groversim.factorization import probability_curve
from groversim.grover import (
    GroverInstance,
    grover_angles,
    max_t_in_period,
    monotonic_decrease_range,
    monotonic_increase_range,
    optimal_iterations,
    success_probability,
)
from groversim.linalg import (
    closed_form_state,
    completeness_residual,
    diffusion,
    hadamard,
    oracle,
    projector,
    random_qstate,
    tensor_product_list,
    uniform_superposition,
    unitarity_residual,
)
from oracles import kernel_state, kron_fold, random_2x2, random_structured_unitary

# sin^2(7 * arcsin(1/4)) = (251/256)^2 = 63001/65536, exact in double precision;
# precomputed independently at 60 decimal digits (mpmath), value is dyadic
P3_N16 = 0.9613189697265625

SEED = 20260810


def _report(criterion: str, ok: bool, detail: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    elapsed = time.perf_counter() - started
    print(f"[{status}] {criterion} ({detail}; {elapsed:.2f}s)")
    assert ok, f"{criterion}: {detail}"


def test_c01_closed_form_equivalence():
    started = time.perf_counter()
    worst = 0.0
    for n in range(2, 7):
        t_ceil = optimal_iterations(grover_angles(1 << n)).t_ceil
        phi0 = uniform_superposition(n).amplitudes
        for target in range(1, (1 << n) + 1):
            inst = GroverInstance(n, target)
            g = diffusion(n) @ oracle(inst)
            for t in range(0, 2 * t_ceil + 1):
                closed = closed_form_state(inst, t).amplitudes
                operator = np.linalg.matrix_power(g, t) @ phi0
                kernel = kernel_state(inst, t).amplitudes
                for sim in (operator, kernel):
                    worst = max(worst, float(np.abs(sim - closed).max()))
    _report(
        "criterion 1: closed-form equivalence, n=2..6, all targets, operator and kernel",
        worst < 1e-9,
        f"worst residual {worst:.3e} < 1e-9",
        started,
    )


def test_c02_unitarity_of_all_operators():
    started = time.perf_counter()
    worst = unitarity_residual(hadamard())
    for n in range(1, 7):
        worst = max(worst, unitarity_residual(tensor_product_list([hadamard()] * n)))
        worst = max(worst, unitarity_residual(diffusion(n)))
        for target in range(1, (1 << n) + 1):
            inst = GroverInstance(n, target)
            worst = max(worst, unitarity_residual(oracle(inst)))
            worst = max(worst, unitarity_residual(diffusion(n) @ oracle(inst)))
    _report(
        "criterion 2: unitarity of H, H^n, U_f, D, G for n<=6, all targets",
        worst < 1e-10,
        f"worst residual {worst:.3e} < 1e-10",
        started,
    )


def test_c03_probability_conservation_and_projector_laws():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst_norm = 0.0
    worst_adjoint = 0.0
    worst_idem = 0.0
    for n in range(1, 9):
        for _ in range(100):
            q = random_qstate(n, rng)
            u = random_structured_unitary(n, rng)
            out = u @ q.amplitudes
            worst_norm = max(worst_norm, abs(np.vdot(out, out).real - 1.0))
            p = projector(q)
            worst_adjoint = max(worst_adjoint, float(np.abs(p - p.conj().T).max()))
            worst_idem = max(worst_idem, float(np.abs(p @ p - p).max()))
    worst_complete = max(completeness_residual(n) for n in range(1, 9))
    ok = (
        worst_norm < 1e-9
        and worst_adjoint < 1e-12
        and worst_idem < 1e-12
        and worst_complete < 1e-10
    )
    _report(
        "criterion 3: norm conservation and projector laws, n<=8, 100 states/n",
        ok,
        f"norm {worst_norm:.2e}<1e-9, adjoint {worst_adjoint:.2e}<1e-12, "
        f"idempotent {worst_idem:.2e}<1e-12, complete {worst_complete:.2e}<1e-10",
        started,
    )


def test_c04_sixteen_state_reproduction():
    started = time.perf_counter()
    rows = probability_curve(GroverInstance(4, 11))
    p = [row.p_simulated for row in rows]
    increasing = p[0] < p[1] < p[2]
    decreasing = p[3] > p[4] > p[5]
    opt = optimal_iterations(grover_angles(16))
    record_ok = (opt.t_floor, opt.t_ceil, opt.t_best) == (2, 3, 3)
    p3_ok = abs(p[3] - P3_N16) < 1e-6
    _report(
        "criterion 4: N=16 curve shape, optimal record and p(3) value",
        increasing and decreasing and record_ok and p3_ok,
        f"p={['%.6f' % v for v in p]}, record ({opt.t_floor},{opt.t_ceil},{opt.t_best}), "
        f"|p3-{P3_N16}|={abs(p[3] - P3_N16):.2e} < 1e-6",
        started,
    )


def test_c05_four_state_exact_case():
    started = time.perf_counter()
    p = success_probability(grover_angles(4), 1)
    closed_ok = abs(p - 1.0) < 1e-12
    amp_ok = True
    for target in range(1, 5):
        state = kernel_state(GroverInstance(2, target), 1)
        amp_ok &= abs(abs(state.amplitudes[target - 1]) - 1.0) < 1e-12
    _report(
        "criterion 5: N=4 certainty after one iteration",
        closed_ok and amp_ok,
        f"|p-1|={abs(p - 1.0):.2e} < 1e-12 and simulated |amplitude| = 1 within 1e-12",
        started,
    )


def test_c06_monotonicity_and_optimality():
    started = time.perf_counter()
    ok = True
    detail = "all ranges strict, argmax matches"
    for n in range(2, 13):
        ang = grover_angles(1 << n)
        for t in monotonic_increase_range(ang):
            if not success_probability(ang, t + 1) > success_probability(ang, t):
                ok, detail = False, f"increase fails at n={n}, t={t}"
        for t in monotonic_decrease_range(ang):
            if not success_probability(ang, t) > success_probability(ang, t + 1):
                ok, detail = False, f"decrease fails at n={n}, t={t}"
        probs = [success_probability(ang, t) for t in range(max_t_in_period(ang) + 1)]
        argmax = int(np.argmax(probs))
        opt = optimal_iterations(ang)
        if argmax != opt.t_best and abs(probs[argmax] - opt.p_best) > 1e-12:
            ok, detail = False, f"argmax {argmax} != t_best {opt.t_best} at n={n}"
    _report(
        "criterion 6: monotonic ranges and brute-force optimality, n=2..12",
        ok,
        detail,
        started,
    )


def test_c07_periodicity():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED)
    xs = rng.uniform(0.0, 10.0 * math.pi, 1000)
    worst = float(np.abs(np.sin(xs + math.pi) ** 2 - np.sin(xs) ** 2).max())
    _report(
        "criterion 7: sin^2 periodicity over 1000 seeded phases",
        worst < 1e-12,
        f"worst residual {worst:.3e} < 1e-12",
        started,
    )


def test_c08_factorization_end_to_end(capsys):
    started = time.perf_counter()
    code = main(["factor", "--m", "143", "--seed", "1", "--shots", "10000", "--json"])
    doc = json.loads(capsys.readouterr().out)
    found_ok = code == 0 and doc["factor"] == 11 and doc["cofactor"] == 13
    freq = doc["empirical_frequency"]
    freq_ok = abs(freq - P3_N16) < 0.02 and abs(freq - 0.96126) < 0.02
    prime_code = main(["factor", "--m", "13"])
    capsys.readouterr()
    prime_ok = prime_code == 2
    with capsys.disabled():
        _report(
            "criterion 8: factor 143 end to end, prime rejection with exit 2",
            found_ok and freq_ok and prime_ok,
            f"factor 11 x 13, frequency {freq:.4f} within 0.02, prime exit {prime_code}",
            started,
        )


def test_c09_tensor_oracle_agreement():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(200):
        length = int(rng.integers(1, 6))
        ms = [random_2x2(rng) for _ in range(length)]
        worst = max(
            worst, float(np.abs(tensor_product_list(ms) - kron_fold(ms)).max())
        )
    _report(
        "criterion 9: bit-index tensor equals Kronecker oracle, 200 lists",
        worst < 1e-14,
        f"worst residual {worst:.3e} < 1e-14",
        started,
    )


def test_c10_verification_harness(capsys):
    started = time.perf_counter()
    clean_code = main(["verify"])  # default config
    clean_doc = json.loads(capsys.readouterr().out)
    clean_ok = clean_code == 0 and clean_doc["summary"] == {"passed": 13, "failed": 0}
    fault_code = main(["verify", "--n-max", "4", "--t-max", "8", "--inject-fault"])
    captured = capsys.readouterr()
    fault_doc = json.loads(captured.out)
    failed = [row["id"] for row in fault_doc["results"] if not row["passed"]]
    fault_ok = fault_code != 0 and failed == ["T1.4", "T2.3"] and "T1.4" in captured.err
    with capsys.disabled():
        _report(
            "criterion 10: verify exits 0 with 13/13 by default, fault injection reported",
            clean_ok and fault_ok,
            f"default exit {clean_code} with {clean_doc['summary']['passed']}/13 passed, "
            f"fault run exit {fault_code} failing {failed}",
            started,
        )
