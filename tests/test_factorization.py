"""Tests for the factor-search application and the probability curve."""

import math
import time
import tracemalloc

import pytest

from groversim import factorization
from groversim.factorization import (
    MODULUS_LIMIT,
    CurvePoint,
    MultipleSolutionsError,
    NoSolutionError,
    build_factor_instance,
    curve_to_csv,
    probability_curve,
    run_factor_search,
)
from groversim.grover import GroverInstance, grover_angles, success_probability
from oracles import divisors_in_range

P3_N16 = 0.9613189697265625


class TestBuildFactorInstance:
    def test_143_uses_four_qubits_and_marks_candidate_11(self):
        inst = build_factor_instance(143)
        assert inst.n_qubits == 4
        assert inst.n_states == 16
        # candidate integers are 0-based ket labels; divisor 11 -> label 12
        assert inst.target == 12

    def test_15_uses_two_qubits_and_marks_candidate_3(self):
        # sqrt(15) ~ 3.87, so divisor 5 is outside the search range
        inst = build_factor_instance(15)
        assert inst.n_qubits == 2
        assert inst.target == 4

    def test_qubit_count_is_the_smallest_covering_the_range(self, monkeypatch):
        # the qubit count depends on m alone; a stub divisor scan reaches every
        # m, including the 4^k boundaries where isqrt(m) crosses a power of two
        monkeypatch.setattr(factorization, "_divisors_in_range", lambda m: [2])
        moduli = list(range(6, 70_001))
        moduli += [4**k + d for k in range(2, 24) for d in (-1, 0, 1)]
        for m in moduli:
            n = build_factor_instance(m).n_qubits
            assert 2 ** (n - 1) <= math.isqrt(m) < 2**n, m

    def test_prime_modulus_has_no_solution(self):
        with pytest.raises(NoSolutionError):
            build_factor_instance(11)
        with pytest.raises(NoSolutionError):
            build_factor_instance(13)

    def test_multiple_divisors_rejected(self):
        with pytest.raises(MultipleSolutionsError):
            build_factor_instance(12)  # divisors 2 and 3 are both in range

    def test_too_small_modulus_rejected(self):
        with pytest.raises(ValueError):
            build_factor_instance(5)

    def test_modulus_beyond_the_qubit_cap_rejected(self):
        # refused before the divisor scan: scanning [2, 2**31] would take minutes
        for m in (2**48, 2**62):
            with pytest.raises(ValueError, match="24 qubits"):
                build_factor_instance(m)

    @pytest.mark.parametrize("m,divisor", [(9, 3), (21, 3), (35, 5), (77, 7), (187, 11)])
    def test_search_space_covers_candidates(self, m, divisor):
        inst = build_factor_instance(m)
        assert inst.target == divisor + 1
        assert inst.n_states > math.isqrt(m)


class TestDivisorScan:
    """The chunked numpy scan against the one-candidate-at-a-time reference."""

    def test_every_small_modulus(self):
        for m in range(6, 20_001):
            assert factorization._divisors_in_range(m) == divisors_in_range(m), m

    @pytest.mark.parametrize("m", [
        16381 * 16369,           # one divisor, one chunk
        65537**2, 65538**2,      # the range ends at the first chunk's end / one past it
        65539 * 131071,          # one divisor, two chunks
        2**40 - 1,
        MODULUS_LIMIT - 1,       # 383 divisors over 256 chunks
    ])
    def test_large_moduli(self, m):
        assert factorization._divisors_in_range(m) == divisors_in_range(m)


class TestRunFactorSearch:
    def test_143_finds_11_and_13(self):
        result = run_factor_search(143, seed=1, shots=10_000)
        assert result.factor == 11
        assert result.cofactor == 13
        assert result.factor * result.cofactor == 143
        assert result.t_used == 3
        assert abs(result.p_predicted - P3_N16) < 1e-12
        sigma = math.sqrt(P3_N16 * (1.0 - P3_N16) / result.shots)
        assert abs(result.empirical_frequency - result.p_predicted) < 3.0 * sigma

    def test_15_finds_3_and_5_with_certainty(self):
        result = run_factor_search(15, seed=2, shots=100)
        assert result.factor == 3
        assert result.cofactor == 5
        assert result.p_predicted == 1.0
        assert result.empirical_frequency == 1.0

    def test_single_shot_is_filtered_classically(self):
        result = run_factor_search(143, seed=9, shots=1)
        assert sum(result.histogram.values()) == 1
        if result.succeeded:
            assert result.factor == 11 and result.cofactor == 13
        else:
            assert result.factor is None and result.cofactor is None

    def test_product_invariant_across_moduli(self):
        for m in (9, 15, 21, 35, 77, 143, 187):
            result = run_factor_search(m, seed=4, shots=4000)
            if result.succeeded:
                assert result.factor * result.cofactor == m

    def test_histogram_is_retained_and_consistent(self):
        result = run_factor_search(143, seed=5, shots=2000)
        assert sum(result.histogram.values()) == 2000
        assert all(1 <= label <= 16 for label in result.histogram)

    def test_same_seed_reproduces_the_result(self):
        a = run_factor_search(143, seed=6, shots=3000)
        b = run_factor_search(143, seed=6, shots=3000)
        assert a == b


class TestProbabilityCurve:
    def test_sixteen_state_curve_shape(self):
        rows = probability_curve(GroverInstance(4, 11))
        assert [r.t for r in rows] == [0, 1, 2, 3, 4, 5]
        p = [r.p_closed_form for r in rows]
        assert p[0] < p[1] < p[2]
        assert p[3] > p[4] > p[5]
        for row in rows:
            assert abs(row.p_simulated - row.p_closed_form) < 1e-9

    def test_four_state_curve_values(self):
        rows = probability_curve(GroverInstance(2, 1))
        assert rows[0] == CurvePoint(0, pytest.approx(0.25, abs=1e-12), 0.25)
        assert rows[1].p_simulated == pytest.approx(1.0, abs=1e-12)
        assert rows[1].p_closed_form == 1.0
        # one period for N=4 also contains the symmetric t=2 point
        assert [r.t for r in rows] == [0, 1, 2]
        assert rows[2].p_closed_form == pytest.approx(0.25, abs=1e-12)

    def test_t_max_beyond_one_period_rejected(self):
        with pytest.raises(ValueError):
            probability_curve(GroverInstance(4, 11), t_max=6)

    def test_explicit_t_max(self):
        rows = probability_curve(GroverInstance(4, 11), t_max=1)
        assert [r.t for r in rows] == [0, 1]

    def test_full_period_at_sixteen_qubits_is_one_kernel_pass(self):
        # restarting the kernel from t=0 for every row took 5.9 s on a 2-vCPU
        # VM, one pass 0.2 s
        start = time.perf_counter()
        rows = probability_curve(GroverInstance(16, 5))
        assert time.perf_counter() - start < 1.5
        assert len(rows) == 402

    def test_full_period_at_the_qubit_cap_holds_no_vector(self):
        # every row is read from the kernel's pair: one 2^24 vector per row
        # was 128 MiB and about 50 ms, minutes over the 6434 rows; the rows
        # themselves take about 0.98 MiB
        start = time.perf_counter()
        tracemalloc.start()
        try:
            rows = probability_curve(GroverInstance(24, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 5.0
        assert peak < 2**20
        assert len(rows) == 6434
        assert max(abs(r.p_simulated - r.p_closed_form) for r in rows) < 1e-10

    def test_curve_is_target_independent(self):
        ang = grover_angles(16)
        for target in (1, 7, 16):
            rows = probability_curve(GroverInstance(4, target))
            for row in rows:
                assert abs(row.p_closed_form - success_probability(ang, row.t)) == 0.0
                assert abs(row.p_simulated - row.p_closed_form) < 1e-9


class TestCurveCsv:
    def test_four_state_golden_output(self):
        csv_text = curve_to_csv(probability_curve(GroverInstance(2, 1)))
        assert csv_text == (
            "t,p_simulated,p_closed_form\n"
            "0,0.25,0.25\n"
            "1,1,1\n"
            "2,0.25,0.25\n"
        )

    def test_uses_lf_line_endings_and_12_digits(self):
        csv_text = curve_to_csv(probability_curve(GroverInstance(4, 11)))
        assert "\r" not in csv_text
        assert csv_text.endswith("\n")
        line3 = csv_text.splitlines()[4]
        assert line3 == "3,0.961318969727,0.961318969727"
