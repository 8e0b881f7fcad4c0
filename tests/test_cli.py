"""End-to-end tests for the command-line interface and its exit-status contract."""

import hashlib
import json
import re
import time
import tracemalloc

import pytest

from groversim.cli import main
from groversim.grover import NormalizationError, grover_angles, optimal_iterations

P3_N16 = 0.9613189697265625

# Byte-for-byte reports, including the label-ordered histograms.
GOLDEN_SIMULATE_TEXT = """\
p_simulated    0.9453125
p_closed_form  0.9453125
difference     -3.33066907388e-16
outcome,count
1,10
2,939
3,8
4,5
5,14
6,5
7,9
8,10
"""

GOLDEN_SIMULATE_JSON = """\
{
  "n": 3,
  "target": 2,
  "t": 2,
  "p_simulated": 0.9453124999999998,
  "p_closed_form": 0.9453125000000001,
  "difference": -3.3306690738754696e-16,
  "seed": 7,
  "shots": 1000,
  "histogram": {
    "1": 10,
    "2": 939,
    "3": 8,
    "4": 5,
    "5": 14,
    "6": 5,
    "7": 9,
    "8": 10
  }
}
"""

GOLDEN_FACTOR_TEXT = """\
factor               11
cofactor             13
t_used               3
p_predicted          0.961318969727
empirical_frequency  0.9621
modal_candidate      11
shots                10000
seed                 1
"""

GOLDEN_FACTOR_JSON = """\
{
  "m": 143,
  "factor": 11,
  "cofactor": 13,
  "t_used": 3,
  "p_predicted": 0.9613189697265625,
  "empirical_frequency": 0.9621,
  "modal_candidate": 11,
  "shots": 10000,
  "seed": 1,
  "histogram": {
    "1": 20,
    "2": 23,
    "3": 22,
    "4": 26,
    "5": 28,
    "6": 25,
    "7": 27,
    "8": 24,
    "9": 23,
    "10": 20,
    "11": 27,
    "12": 9621,
    "13": 30,
    "14": 30,
    "15": 29,
    "16": 25
  }
}
"""


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_sixteen_state_report(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--n", "4", "--target", "11", "--t", "3")
        assert code == 0
        assert out.count("0.961318969727") == 2

    def test_four_state_certainty(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--n", "2", "--target", "1", "--t", "1")
        assert code == 0
        lines = dict(line.split(None, 1) for line in out.strip().splitlines())
        assert lines["p_simulated"].strip() == "1"
        assert lines["p_closed_form"].strip() == "1"

    def test_out_of_range_target_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--n", "4", "--target", "99", "--t", "1")
        assert code == 1
        assert out == ""
        assert "target must be in 1..16, got 99" in err and "Traceback" not in err

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--n", "4", "--target", "11", "--t", "3", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["p_simulated"] - P3_N16) < 1e-9
        assert abs(doc["p_closed_form"] - P3_N16) < 1e-12
        assert abs(doc["difference"]) < 1e-9

    def test_sampled_histogram_written(self, capsys, tmp_path):
        path = tmp_path / "hist.csv"
        code, out, _ = run_cli(
            capsys,
            "simulate", "--n", "2", "--target", "3", "--t", "1",
            "--shots", "50", "--seed", "5", "--output", str(path),
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "outcome,count"
        assert lines[1] == "3,50"  # certainty case: every shot hits the target

    def test_output_without_shots_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "simulate", "--n", "2", "--target", "3", "--t", "1",
            "--output", str(tmp_path / "h.csv"),
        )
        assert code == 1
        assert "--shots" in err

    def test_iterations_beyond_one_period_at_the_cap_is_usage_error(self, capsys):
        # 6433 = max_t_in_period at 24 qubits; --t 1e8 at n=20 used to run for hours
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "simulate", "--n", "20", "--target", "1", "--t", "6434")
        assert code == 1
        assert out == ""
        assert "Invalid value for '--t': 6434 is not in the range 0<=x<=6433." in err
        assert "Traceback" not in err
        assert time.perf_counter() - started < 1.0

    def test_negative_seed_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--n", "3", "--target", "2", "--t", "1",
            "--shots", "5", "--seed", "-1",
        )
        assert code == 1
        assert out == ""
        assert "--seed" in err and "Traceback" not in err

    def test_peak_memory_is_one_state_vector(self, capsys):
        # without --shots the probability is read from the kernel's two
        # amplitude values: no 2^n vector at all, against 2 MiB for one here
        tracemalloc.start()
        try:
            code = main(["simulate", "--n", "18", "--target", "3", "--t", "10", "--json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak <= 64 * 1024

    def test_the_qubit_cap_at_the_optimum_holds_no_vector(self, capsys):
        # one 2^24 vector is 128 MiB; the pair read holds none
        started = time.perf_counter()
        tracemalloc.start()
        try:
            code = main(["simulate", "--n", "24", "--target", "1", "--t", "3216", "--json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert time.perf_counter() - started < 2.0
        assert peak <= 64 * 1024
        assert abs(doc["difference"]) < 1e-10

    def test_peak_memory_with_shots_is_the_draws_and_the_histogram(self, capsys):
        # the sampler reads the kernel's pair: nothing per shot on the target,
        # about 18 B per other shot and about 100 B per label of the histogram
        # (158 B per shot in all at n=24, t=1, 10^6 shots), against 16 B per
        # amplitude (4 MiB here) for the 2^n vector it does not build
        shots = 1000
        argv = [
            "simulate", "--n", "18", "--target", "3", "--t", "10",
            "--shots", str(shots), "--json",
        ]
        main(argv)  # numpy imports numpy.random on first use, about 1 MiB
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak <= 64 * 1024 + 256 * shots

    def test_unknown_option_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--frobnicate")
        assert code == 1

    def test_missing_command_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 1


class TestCurve:
    def test_stdout_csv_and_peak(self, capsys):
        code, out, err = run_cli(capsys, "curve", "--n", "4", "--target", "11")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,p_simulated,p_closed_form"
        assert len(lines) == 7  # header + t = 0..5
        assert "peak t = 3" in err

    def test_file_output_is_deterministic(self, capsys, tmp_path):
        path = tmp_path / "curve.csv"
        code, out, _ = run_cli(
            capsys, "curve", "--n", "4", "--target", "11", "--output", str(path)
        )
        assert code == 0
        assert "peak t = 3" in out
        first = path.read_bytes()
        run_cli(capsys, "curve", "--n", "4", "--target", "11", "--output", str(path))
        assert path.read_bytes() == first

    def test_two_qubit_rows(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "--n", "2", "--target", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "0,0.25,0.25"
        assert lines[2] == "1,1,1"

    def test_t_max_beyond_period_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "curve", "--n", "4", "--target", "11", "--t-max", "9"
        )
        assert code == 1

    def test_unwritable_path_fails(self, capsys):
        code, _, _ = run_cli(
            capsys, "curve", "--n", "2", "--target", "1",
            "--output", "/nonexistent-dir/curve.csv",
        )
        assert code == 1


class TestOptimal:
    def test_four_qubits(self, capsys):
        code, out, _ = run_cli(capsys, "optimal", "--n", "4", "--json")
        doc = json.loads(out)
        assert code == 0
        assert (doc["t_floor"], doc["t_ceil"], doc["t_best"]) == (2, 3, 3)

    def test_two_qubits(self, capsys):
        code, out, _ = run_cli(capsys, "optimal", "--n", "2", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["t_best"] == 1
        assert doc["p_best"] == pytest.approx(1.0, abs=1e-12)

    def test_one_qubit_tie(self, capsys):
        code, out, _ = run_cli(capsys, "optimal", "--n", "1", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["t_best"] == 0
        assert doc["p_best"] == pytest.approx(0.5, abs=1e-12)

    def test_text_output_lists_all_fields(self, capsys):
        code, out, _ = run_cli(capsys, "optimal", "--n", "4")
        assert code == 0
        for key in ("t_real", "t_floor", "t_ceil", "t_best", "p_best"):
            assert key in out


class TestFactor:
    def test_143(self, capsys):
        code, out, _ = run_cli(
            capsys, "factor", "--m", "143", "--seed", "1", "--shots", "10000", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["factor"] == 11
        assert doc["cofactor"] == 13
        assert doc["t_used"] == 3
        assert abs(doc["empirical_frequency"] - P3_N16) < 0.02

    def test_15(self, capsys):
        code, out, _ = run_cli(
            capsys, "factor", "--m", "15", "--seed", "1", "--shots", "100", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert (doc["factor"], doc["cofactor"]) == (3, 5)

    def test_modal_tie_breaks_toward_the_smaller_label(self, capsys):
        # candidates 3 (label 4) and 7 (label 8) both divide 21, one shot each
        code, out, _ = run_cli(capsys, "factor", "--m", "21", "--seed", "4", "--shots", "2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["histogram"] == {"4": 1, "8": 1}
        assert (doc["factor"], doc["cofactor"], doc["modal_candidate"]) == (3, 7, 3)

    def test_prime_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "factor", "--m", "13")
        assert code == 2
        assert "no divisor" in err

    def test_multi_divisor_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "factor", "--m", "12")
        assert code == 2
        assert "single-solution" in err

    def test_small_modulus_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "factor", "--m", "4")
        assert code == 1

    def test_modulus_beyond_the_qubit_cap_is_usage_error(self, capsys):
        # 2 * 1000000000000037 would need 26 qubits after a 4.5e7-candidate scan
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "factor", "--m", "2000000000000074", "--json")
        assert code == 1
        assert out == ""
        assert "modulus must be below 2**48" in err and "Traceback" not in err
        assert time.perf_counter() - started < 1.0

    def test_negative_seed_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "factor", "--m", "143", "--seed", "-1")
        assert code == 1
        assert out == ""
        assert "--seed" in err and "Traceback" not in err

    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "--m", "143", "--seed", "1")
        assert code == 0
        assert "factor" in out and "11" in out and "13" in out

    @pytest.mark.parametrize("m, n, divisor", [(143, 4, 11), (521 * 1031, 10, 521)])
    def test_samples_what_simulate_samples_at_the_divisor(self, capsys, m, n, divisor):
        # one sampling route: the kernel's pair at t_best, built into the state
        sampling = ("--seed", "5", "--shots", "3000", "--json")
        code, out, _ = run_cli(capsys, "factor", "--m", str(m), *sampling)
        assert code == 0
        factored = json.loads(out)
        assert factored["factor"] == divisor
        code, out, _ = run_cli(
            capsys, "simulate", "--n", str(n), "--target", str(divisor + 1),
            "--t", str(factored["t_used"]), *sampling,
        )
        assert code == 0
        assert json.loads(out)["histogram"] == factored["histogram"]


class TestVerify:
    def test_reduced_grid_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--n-max", "2", "--t-max", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"] == {"passed": 13, "failed": 0}
        assert "13/13 checks passed" in err

    def test_report_written_to_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "verify", "--n-max", "2", "--t-max", "4", "--output", str(path)
        )
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == "1"

    def test_fault_injection_fails_with_ids(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--n-max", "2", "--t-max", "4", "--inject-fault"
        )
        assert code == 2
        assert "T1.4" in err and "T2.3" in err
        doc = json.loads(out)
        assert doc["summary"]["failed"] == 2

    def test_bad_n_max_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--n-max", "40")
        assert code == 1

    def test_negative_seed_is_usage_error(self, capsys):
        # default_rng(-5) raised inside a check, which then reported a false failure
        code, out, err = run_cli(
            capsys, "verify", "--seed", "-5", "--n-max", "2", "--t-max", "2"
        )
        assert code == 1
        assert out == ""
        assert "seed" in err and "Traceback" not in err

    def test_t_max_beyond_one_period_at_the_cap_is_usage_error(self, capsys):
        # T2.3 costs about 8 ms per t on the default grid: --t-max 1000000 was hours
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", "--t-max", "6434")
        assert code == 1
        assert out == ""
        assert "t_max must be in 1..6433" in err and "Traceback" not in err
        assert time.perf_counter() - started < 1.0


SIMULATE_N3 = ["simulate", "--n", "3", "--target", "2", "--t", "2", "--shots", "1000", "--seed", "7"]
FACTOR_143 = ["factor", "--m", "143", "--seed", "1", "--shots", "10000"]


@pytest.mark.parametrize(
    "args, golden",
    [
        (SIMULATE_N3, GOLDEN_SIMULATE_TEXT),
        (SIMULATE_N3 + ["--json"], GOLDEN_SIMULATE_JSON),
        (FACTOR_143, GOLDEN_FACTOR_TEXT),
        (FACTOR_143 + ["--json"], GOLDEN_FACTOR_JSON),
    ],
    ids=["simulate-text", "simulate-json", "factor-text", "factor-json"],
)
def test_report_bytes_are_pinned(capsys, args, golden):
    assert run_cli(capsys, *args) == (0, golden, "")


VERIFY_N3 = ["verify", "--n-max", "3", "--t-max", "6", "--seed", "7"]
# Residuals may differ in their last bits between BLAS builds, so their values
# are masked along with the timings; the rest of the text is pinned: key order,
# ids, statements, params with seeds and tolerances, verdicts, config, summary.
_MASKED_VALUES = re.compile(r'("(?:elapsed_ms|worst_residual)": )[^,\n]+')


@pytest.mark.parametrize(
    "args, code, err, sha256",
    [
        (
            VERIFY_N3, 0, "13/13 checks passed\n",
            "3e7ad83008dfdf15fc1c3a093bf00ea71e0d0596b7afb0feab93545603c6580b",
        ),
        (
            VERIFY_N3 + ["--inject-fault"], 2, "11/13 checks passed\nfailed: T1.4, T2.3\n",
            "6cdc0f2917e58a210d2ee1698e9ffece966faeeb8c13b0d3b2a1fcf2ee5c6423",
        ),
        (
            ["verify"], 0, "13/13 checks passed\n",
            "e3f22696671da323713125ac166cdda99d7d2486dc5ee8b400a6b3ea8b4d3499",
        ),
        (
            ["verify", "--inject-fault"], 2, "11/13 checks passed\nfailed: T1.4, T2.3\n",
            "5b15b1d32c7d5385af2ff95fbcb898887440c66a051468071f3001fecf818ca7",
        ),
    ],
    ids=["verify", "verify-inject-fault", "verify-default", "verify-default-inject-fault"],
)
def test_verify_report_bytes_are_pinned(capsys, args, code, err, sha256):
    got_code, out, got_err = run_cli(capsys, *args)
    masked = _MASKED_VALUES.sub(r"\1X", out)
    assert (got_code, got_err) == (code, err)
    assert masked.count('": X') == 2 * 13
    assert hashlib.sha256(masked.encode()).hexdigest() == sha256


# 10**15 shots used to die in numpy with "Unable to allocate 7.11 PiB"
@pytest.mark.parametrize("shots", [10**15, 2**24 + 1])
@pytest.mark.parametrize(
    "command",
    [["simulate", "--n", "3", "--target", "2", "--t", "1"], ["factor", "--m", "143"]],
    ids=["simulate", "factor"],
)
def test_shots_beyond_the_cap_is_usage_error(capsys, command, shots):
    started = time.perf_counter()
    code, out, err = run_cli(capsys, *command, "--shots", str(shots))
    assert code == 1
    assert out == ""
    assert f"Invalid value for '--shots': {shots} is not in the range 1<=x<=16777216." in err
    assert "Traceback" not in err
    assert time.perf_counter() - started < 1.0


# Every bounded input of every command: its first refused value, the message
# that states the bound, and where cheap the last value it accepts.
SIM = "simulate --n 3 --target 1 --t 0"
CURVE = "curve --n 4 --target 11"
VERIFY = "verify --n-max 1 --t-max 1"
BOUNDED_INPUTS = [
    ("simulate --n 0 --target 1 --t 0", "1<=x<=24", "simulate --n 1 --target 1 --t 0"),
    ("simulate --n 25 --target 1 --t 0", "1<=x<=24", "simulate --n 24 --target 1 --t 0"),
    ("simulate --n 3 --target 0 --t 0", "target must be in 1..8, got 0", SIM),
    (
        "simulate --n 3 --target 9 --t 0", "target must be in 1..8, got 9",
        "simulate --n 3 --target 8 --t 0",
    ),
    ("simulate --n 3 --target 1 --t -1", "0<=x<=6433", SIM),
    ("simulate --n 3 --target 1 --t 6434", "0<=x<=6433", "simulate --n 3 --target 1 --t 6433"),
    (f"{SIM} --seed -1", "x>=0", f"{SIM} --seed 0"),
    (f"{SIM} --shots 0", "1<=x<=16777216", f"{SIM} --shots 1"),
    (f"{SIM} --shots 16777217", "1<=x<=16777216", None),
    ("curve --n 0 --target 1", "1<=x<=24", "curve --n 1 --target 1"),
    ("curve --n 25 --target 1 --t-max 0", "1<=x<=24", "curve --n 24 --target 1 --t-max 0"),
    ("curve --n 3 --target 0", "target must be in 1..8, got 0", "curve --n 3 --target 1"),
    ("curve --n 3 --target 9", "target must be in 1..8, got 9", "curve --n 3 --target 8"),
    (f"{CURVE} --t-max -1", "t_max must be non-negative", f"{CURVE} --t-max 0"),
    (f"{CURVE} --t-max 6", "single-period bound 5", f"{CURVE} --t-max 5"),
    ("optimal --n 0", "1<=x<=60", "optimal --n 1"),
    ("optimal --n 61", "1<=x<=60", "optimal --n 60"),
    ("factor --m 5", "modulus must be at least 6", "factor --m 6"),
    ("factor --m 281474976710656", "modulus must be below 2**48", None),
    ("factor --m 143 --seed -1", "x>=0", "factor --m 143 --seed 0"),
    ("factor --m 143 --shots 0", "1<=x<=16777216", "factor --m 143 --shots 1"),
    ("factor --m 143 --shots 16777217", "1<=x<=16777216", None),
    ("verify --n-max 0", "n_max must be in 1..12", VERIFY),
    ("verify --n-max 13", "n_max must be in 1..12", None),
    ("verify --n-max 1 --t-max 0", "t_max must be in 1..6433", VERIFY),
    ("verify --n-max 1 --t-max 6434", "t_max must be in 1..6433", None),
    (f"{VERIFY} --seed -1", "seed must be non-negative", f"{VERIFY} --seed 0"),
]


@pytest.mark.parametrize(
    "refused, bound, accepted", BOUNDED_INPUTS, ids=[row[0] for row in BOUNDED_INPUTS]
)
def test_each_bound_refuses_with_exit_1_before_any_work(capsys, refused, bound, accepted):
    started = time.perf_counter()
    code, out, err = run_cli(capsys, *refused.split())
    assert code == 1
    assert out == ""
    errors = [line for line in err.splitlines() if line.startswith("Error: ")]
    assert len(errors) == 1 and bound in errors[0]
    assert "Traceback" not in err
    assert time.perf_counter() - started < 1.0
    if accepted is not None:
        code, _, err = run_cli(capsys, *accepted.split())
        assert code == 0, err


@pytest.mark.parametrize(
    "command, ranges",
    [
        ("simulate", ["1<=x<=24", "0<=x<=6433", "x>=0", "1<=x<=16777216"]),
        ("curve", ["1<=x<=24"]),
        ("optimal", ["1<=x<=60"]),
        ("factor", ["x>=0", "1<=x<=16777216"]),
    ],
)
def test_help_shows_each_declared_range(capsys, command, ranges):
    code, out, _ = run_cli(capsys, command, "--help")
    assert code == 0
    for text in ranges:
        assert text in out


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--n", "24", "--target", "1", "--t", "3216", "--shots", "10000", "--json"],
        ["factor", "--m", str(16777213 * 16777199)],
    ],
    ids=["simulate", "factor"],
)
def test_sampling_at_the_qubit_cap_holds_no_vector(capsys, argv):
    # sampling the 2^24 vector took 0.2-0.3 s and peaked at 257 MiB
    started = time.perf_counter()
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert time.perf_counter() - started < 1.0
    assert peak <= 2 * 2**20


def _simulate_sweep():
    for n in range(1, 11):
        n_states = 2**n
        t_best = optimal_iterations(grover_angles(n_states)).t_best
        for target in sorted({1, n_states // 2 + 1, n_states}):
            for t in sorted({0, 1, t_best}):
                yield [
                    "simulate", "--n", str(n), "--target", str(target), "--t", str(t),
                    "--shots", "1000", "--json",
                ]


# Taken with the Born sampler of the kernel's pair (a binomial count for the
# target, uniform draws for the other labels): a change to its draws, and so to
# any histogram or empirical frequency, shows here.
@pytest.mark.parametrize(
    "argvs, sha256",
    [
        (
            [["factor", "--m", str(m), "--json"] for m in range(6, 1201)],
            "3e691f2041f9ab16200ba8c2a2ec41e5f66d5ff91273e63053331aea3f5b7a1f",
        ),
        (
            list(_simulate_sweep()),
            "bf9b81e03b3f86a897fe73dbc8dad63ad6b2545ce4b046fa2b311c4f6c03f7f7",
        ),
    ],
    ids=["factor-6..1200", "simulate-n1..10"],
)
def test_sampled_reports_are_pinned_over_a_sweep(capsys, argvs, sha256):
    digest = hashlib.sha256()
    for argv in argvs:
        code, out, _ = run_cli(capsys, *argv)
        digest.update(f"{' '.join(argv)}\n{code}\n{out}".encode())
    assert digest.hexdigest() == sha256


def test_a_pair_off_the_unit_norm_fails_the_samplers_gate(capsys, monkeypatch):
    # factor reads no probability from the pair: the sampler's gate is its only one
    monkeypatch.setattr(
        "groversim.factorization.pair_after_iterations", lambda inst, t: (0.25, 0.97)
    )
    code, out, err = run_cli(capsys, "factor", "--m", "143")
    assert (code, out) == (1, "")
    errors = [line for line in err.splitlines() if line.startswith("Error: ")]
    assert len(errors) == 1 and "squared norm" in errors[0]
    assert "Traceback" not in err


def test_a_value_error_escaping_a_command_exits_1_with_one_line(capsys, monkeypatch):
    def broken(inst, iterations):
        raise NormalizationError("squared norm nan differs from 1 by more than 1e-10")

    monkeypatch.setattr("groversim.cli.pair_after_iterations", broken)
    code, out, err = run_cli(capsys, "simulate", "--n", "3", "--target", "1", "--t", "1")
    assert (code, out) == (1, "")
    assert err == "Error: squared norm nan differs from 1 by more than 1e-10\n"
    # NoSolutionError is a ValueError too, but factor reports it as a negative result
    assert run_cli(capsys, "factor", "--m", "7") == (2, "", "7 has no divisor in [2, 2]\n")
