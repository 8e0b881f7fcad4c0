"""Self-test of the benchmark: names, correctness gates, seeded inputs, span maths.

Run from the repository root with ``python -m pytest benchmarks``.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import pytest

from tracer import PER_LAYER, Tracer
from workloads import (
    CHECK_IDS,
    END_TO_END,
    WORKLOADS,
    check_curve,
    check_factor,
    check_simulate,
    check_verify,
    closed_form_p,
    semiprime,
)

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

ISSUE_WORKLOADS = ["simulate-n20", "curve-sweep", "factor-semiprimes", "verify-default"]
# op_p90_ms and failed_ratio are printed, not gated: the first exists only
# for runs of 100 ops or more, the second is 0 on correct code.
ISSUE_END_TO_END = ["setup_s", "wall_s", "ops_per_s", "op_p50_ms", "peak_rss_mb"]
ISSUE_PER_LAYER = [
    "grover.state_after_iterations.busy_s", "grover.amp_updates", "grover.amp_updates_per_s",
    "grover.bytes_computed", "grover.state_after_iterations.calls", "grover.iterations",
    "states.make_qstate.calls", "states.make_qstate.busy_s", "grover.state_after_iterations.peak_mb",
    "grover.path.dense.calls", "grover.path.kernel.calls", "linalg.matrix_pow.busy_s",
    "states.evolve.busy_s", "states.n_hadamard.busy_s", "states.sample_measurement.busy_s",
    "states.shots", "factorization.build_factor_instance.calls",
    "factorization.build_factor_instance.busy_s", "factorization.run_factor_search.self_s",
    "cli.main.self_s", "factorization.probability_curve.self_s", "factorization.curve_to_csv.busy_s",
    *(f"verification.run_check.{i}.busy_s" for i in CHECK_IDS),
    "linalg.matmul.calls", "linalg.matmul.busy_s", "linalg.unitarity_residual.busy_s",
    "linalg.tensor_product_list.busy_s", "grover.closed_form_state.busy_s",
    "grover.norm_drift_max", "grover.closed_form_gap_max", "verification.checks_passed",
    "trace_overhead_ratio",
]


def test_names_match_issue_and_benchmark_json():
    assert [w.name for w in WORKLOADS] == ISSUE_WORKLOADS
    assert [w["name"] for w in BENCHMARK["workloads"]] == ISSUE_WORKLOADS
    assert [w["why"] for w in BENCHMARK["workloads"]] == [w.why for w in WORKLOADS]
    assert [name for name, _ in END_TO_END] == ISSUE_END_TO_END
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(END_TO_END)
    assert [name for name, _ in PER_LAYER] == ISSUE_PER_LAYER
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(PER_LAYER)


def _simulate_out(p_simulated: float, n: int = 20, t: int = 804) -> str:
    return json.dumps({"p_simulated": p_simulated, "p_closed_form": closed_form_p(n, t)})


def test_simulate_gate_fails_a_wrong_probability():
    p = closed_form_p(20, 804)
    assert check_simulate({"n": 20, "t": 804}, 0, _simulate_out(p)) is None
    assert check_simulate({"n": 20, "t": 804}, 0, _simulate_out(p - 1e-9)) is not None
    assert check_simulate({"n": 20, "t": 804}, 1, _simulate_out(p)) is not None


def _curve_out(n: int, rows: int, bump: float = 0.0) -> str:
    lines = ["t,p_simulated,p_closed_form"]
    for t in range(rows):
        p = closed_form_p(n, t)
        lines.append(f"{t},{p + (bump if t == 7 else 0.0):.12g},{p:.12g}")
    return "\n".join(lines) + "\n"


def test_curve_gate_fails_a_wrong_row_or_row_count():
    assert check_curve({"n": 14}, 0, _curve_out(14, 201)) is None
    assert check_curve({"n": 14}, 0, _curve_out(14, 201, bump=1e-9)) is not None
    assert check_curve({"n": 14}, 0, _curve_out(14, 200)) is not None


def test_factor_gate_fails_a_non_divisor_or_the_cofactor():
    def out(factor, cofactor):
        return json.dumps({"factor": factor, "cofactor": cofactor})

    expect = {"m": 143, "p": 11}
    assert check_factor(expect, 0, out(11, 13)) is None
    assert check_factor(expect, 0, out(7, 20)) is not None
    assert check_factor(expect, 0, out(13, 11)) is not None
    assert check_factor(expect, 0, out(None, None)) is not None
    assert check_factor(expect, 2, out(11, 13)) is not None


def test_verify_gate_needs_every_check_id_passing():
    def out(ids, passed=True):
        return json.dumps({"results": [{"id": i, "passed": passed} for i in ids]})

    assert check_verify({}, 0, out(CHECK_IDS)) is None
    assert check_verify({}, 0, out(CHECK_IDS[:-1])) is not None
    assert check_verify({}, 0, out(CHECK_IDS, passed=False)) is not None


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_same_seed_same_argv(workload):
    first = workload.make_ops(random.Random(7), 24)
    assert first == workload.make_ops(random.Random(7), 24)
    assert first != workload.make_ops(random.Random(8), 24)


@pytest.mark.parametrize("n", range(3, 15))
def test_semiprime_has_one_divisor_in_an_n_qubit_range(n):
    rng = random.Random(n)
    for _ in range(20):
        p, q = semiprime(rng, n)
        root = math.isqrt(p * q)
        assert p <= q and root.bit_length() == n
        assert [d for d in range(2, root + 1) if p * q % d == 0] == [p]


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()
    stats = tracer.span_stats()
    assert stats["inner"][0] == 2 and stats["outer"][0] == 1
    assert stats["outer"][2] == pytest.approx(stats["outer"][1] - stats["inner"][1])
    outer_span = tracer.spans[-1]
    assert [s.parent for s in tracer.spans[:2]] == [outer_span.span_id] * 2
