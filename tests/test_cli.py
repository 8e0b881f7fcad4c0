"""End-to-end tests for the command-line interface and its exit-status contract."""

import json
import time
import tracemalloc

import pytest

from groversim.cli import main

P3_N16 = 0.9613189697265625

# Byte-for-byte reports, including the label-ordered histograms.
GOLDEN_SIMULATE_TEXT = """\
p_simulated    0.9453125
p_closed_form  0.9453125
difference     -3.33066907388e-16
outcome,count
1,6
2,954
3,6
4,9
5,6
6,6
7,7
8,6
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
    "1": 6,
    "2": 954,
    "3": 6,
    "4": 9,
    "5": 6,
    "6": 6,
    "7": 7,
    "8": 6
  }
}
"""

GOLDEN_FACTOR_TEXT = """\
factor               11
cofactor             13
t_used               3
p_predicted          0.961318969727
empirical_frequency  0.9625
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
  "empirical_frequency": 0.9625,
  "modal_candidate": 11,
  "shots": 10000,
  "seed": 1,
  "histogram": {
    "1": 24,
    "2": 24,
    "3": 26,
    "4": 28,
    "5": 21,
    "6": 24,
    "7": 32,
    "8": 18,
    "9": 27,
    "10": 27,
    "11": 26,
    "12": 9625,
    "13": 25,
    "14": 26,
    "15": 29,
    "16": 18
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
        code, _, err = run_cli(capsys, "simulate", "--n", "4", "--target", "99", "--t", "1")
        assert code == 1
        assert "--target" in err

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
        assert "--t must be at most 6433" in err and "Traceback" not in err
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
        # the kernel's float vector plus make_qstate's complex copy: 24 B per
        # amplitude; reading the target's probability must not add another vector
        tracemalloc.start()
        try:
            code = main(["simulate", "--n", "18", "--target", "3", "--t", "10", "--json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak <= 32 * 2**18

    def test_peak_memory_with_shots_adds_one_float_vector(self, capsys):
        # sampling squares and accumulates |amplitude| in one float array, 8 B per
        # amplitude next to the 16 B complex state; the slack covers imports and shots
        tracemalloc.start()
        try:
            code = main([
                "simulate", "--n", "18", "--target", "3", "--t", "10",
                "--shots", "1000", "--json",
            ])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak <= 24 * 2**18 + 2 * 2**20

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
        assert "--m must be below 2**48" in err and "Traceback" not in err
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
    assert "--shots must be at most 16777216" in err and "Traceback" not in err
    assert time.perf_counter() - started < 1.0
