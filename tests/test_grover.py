"""Tests for Grover operators, the simulation kernel and iteration analytics."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groversim.factorization import probability_curve
from groversim.grover import (
    GroverAngles,
    GroverInstance,
    NormalizationError,
    grover_angles,
    kernel_steps,
    max_t_in_period,
    monotonic_decrease_range,
    monotonic_increase_range,
    optimal_iterations,
    success_probability,
    target_probability,
)
from groversim.linalg import (
    basis_state,
    closed_form_state,
    diffusion,
    oracle,
    plane_state,
    two_valued_state,
    uniform_superposition,
    unitarity_residual,
)
from oracles import kernel_state, measurement_probability, vector_kernel_steps

# sin^2(7 * arcsin(1/4)): sin(7x) is an odd integer polynomial in sin(x), so
# the value is the exact dyadic rational (251/256)^2 = 63001/65536
P3_N16 = 0.9613189697265625


def operator_state(inst, t):
    """G^t |phi0> from the literal Grover operator."""
    g_t = np.linalg.matrix_power(diffusion(inst.n_qubits) @ oracle(inst), t)
    return g_t @ uniform_superposition(inst.n_qubits).amplitudes


def plane_coordinates(inst, t):
    """The simulated state's (tau_perp, tau) coordinates; it must lie in that plane."""
    amps = kernel_state(inst, t).amplitudes
    rest = np.delete(amps, inst.target - 1)
    assert np.ptp(rest.real) < 1e-12 and not rest.imag.any()
    return rest[0].real * math.sqrt(inst.n_states - 1), amps[inst.target - 1].real


class TestInstanceAndAngles:
    def test_target_bounds(self):
        GroverInstance(2, 1)
        GroverInstance(2, 4)
        with pytest.raises(ValueError):
            GroverInstance(2, 0)
        with pytest.raises(ValueError):
            GroverInstance(2, 5)
        with pytest.raises(ValueError):
            GroverInstance(0, 1)

    def test_angles_satisfy_defining_relation(self):
        for n in range(1, 13):
            ang = grover_angles(1 << n)
            assert abs(math.sin(ang.theta) - 1.0 / math.sqrt(1 << n)) < 1e-12

    def test_angles_reject_tiny_space(self):
        with pytest.raises(ValueError):
            grover_angles(1)

    def test_inconsistent_angles_rejected(self):
        with pytest.raises(ValueError):
            GroverAngles(theta=0.5, n_states=16)


class TestOracle:
    def test_flips_only_the_target(self):
        inst = GroverInstance(2, 3)
        u_f = oracle(inst)
        e3 = basis_state(2, 3).amplitudes
        e1 = basis_state(2, 1).amplitudes
        assert np.array_equal(u_f @ e3, -e3)
        assert np.array_equal(u_f @ e1, e1)

    def test_is_an_involution(self):
        u_f = oracle(GroverInstance(3, 5))
        assert np.array_equal(u_f @ u_f, np.eye(8, dtype=complex))

    def test_unitary(self):
        for n in (1, 2, 4):
            assert unitarity_residual(oracle(GroverInstance(n, 1))) < 1e-10

    def test_phase_flip_on_plane_states(self):
        rng = np.random.default_rng(21)
        for n in (1, 2, 3, 4, 5, 6):
            target = int(rng.integers(1, (1 << n) + 1))
            inst = GroverInstance(n, target)
            u_f = oracle(inst)
            perp = plane_state(inst, 0.0).amplitudes
            tau = basis_state(n, target).amplitudes
            for _ in range(100):
                alpha = rng.uniform(0.0, 2.0 * math.pi)
                state = math.cos(alpha) * perp + math.sin(alpha) * tau
                flipped = math.cos(alpha) * perp - math.sin(alpha) * tau
                assert np.abs(u_f @ state - flipped).max() < 1e-12


class TestTauPerp:
    """|tau_perp> is the plane state at angle 0."""

    def test_single_qubit(self):
        assert np.array_equal(
            plane_state(GroverInstance(1, 1), 0.0).amplitudes,
            np.array([0.0, 1.0], dtype=complex),
        )

    def test_two_qubits(self):
        got = plane_state(GroverInstance(2, 3), 0.0).amplitudes
        amp = 1.0 / math.sqrt(3.0)
        assert got[2] == 0.0
        assert np.abs(got[[0, 1, 3]] - amp).max() < 1e-15

    def test_orthogonal_to_target(self):
        for n in (1, 2, 3, 4):
            for target in (1, 1 << n):
                inst = GroverInstance(n, target)
                perp = plane_state(inst, 0.0).amplitudes
                tau = basis_state(n, target).amplitudes
                assert np.vdot(tau, perp) == 0.0


class TestDiffusion:
    def test_single_qubit_matrix(self):
        assert np.array_equal(
            diffusion(1), np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        )

    def test_two_qubit_entries(self):
        d = diffusion(2)
        assert np.all(np.diag(d) == -0.5)
        off = d[~np.eye(4, dtype=bool)]
        assert np.all(off == 0.5)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_unitary(self, n):
        assert unitarity_residual(diffusion(n)) < 1e-10

    def test_equals_reflection_about_uniform_state(self):
        for n in (1, 2, 3, 5):
            phi0 = uniform_superposition(n).amplitudes
            reflection = 2.0 * np.outer(phi0, phi0.conj()) - np.eye(1 << n)
            assert np.abs(diffusion(n) - reflection).max() < 1e-15


class TestGroverOperator:
    def test_unitary_for_all_targets(self):
        for n in (1, 2, 3, 4):
            for target in range(1, (1 << n) + 1):
                assert unitarity_residual(diffusion(n) @ oracle(GroverInstance(n, target))) < 1e-10

    def test_unitary_up_to_eight_qubits(self):
        for n in (5, 6, 7, 8):
            for target in (1, 1 << (n - 1), 1 << n):
                assert unitarity_residual(diffusion(n) @ oracle(GroverInstance(n, target))) < 1e-10

    def test_zeroth_power_is_identity(self):
        inst = GroverInstance(3, 2)
        assert np.array_equal(kernel_state(inst, 0).amplitudes, operator_state(inst, 0))

    def test_two_qubit_single_step_is_exact(self):
        # theta = pi/6, so one iteration rotates exactly onto the target
        for target in (1, 2, 3, 4):
            inst = GroverInstance(2, target)
            state = kernel_state(inst, 1)
            amps = state.amplitudes
            assert abs(amps[target - 1] - 1.0) < 1e-12
            others = np.delete(amps, target - 1)
            assert np.abs(others).max() < 1e-12


class TestSimulationPaths:
    def test_no_iterations_gives_uniform(self):
        got = kernel_state(GroverInstance(3, 5), 0)
        assert np.abs(got.amplitudes - 1.0 / math.sqrt(8.0)).max() < 1e-14

    def test_matches_closed_form(self):
        rng = np.random.default_rng(31)
        for n in (2, 3, 4, 5):
            target = int(rng.integers(1, (1 << n) + 1))
            inst = GroverInstance(n, target)
            for t in range(0, 9):
                closed = closed_form_state(inst, t).amplitudes
                for sim in (kernel_state(inst, t).amplitudes, operator_state(inst, t)):
                    assert np.abs(sim - closed).max() < 1e-9

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_kernel_matches_closed_form_over_random_instances(self, data):
        n = data.draw(st.integers(min_value=1, max_value=10))
        inst = GroverInstance(n, data.draw(st.integers(min_value=1, max_value=1 << n)))
        t = data.draw(st.integers(0, max_t_in_period(grover_angles(inst.n_states))))
        kernel = kernel_state(inst, t).amplitudes
        assert np.abs(kernel - closed_form_state(inst, t).amplitudes).max() <= 1e-10

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_one_pass_matches_restarting_from_zero(self, data):
        # kernel_state restarts from t=0 for every t: the reference
        n = data.draw(st.integers(min_value=1, max_value=10))
        inst = GroverInstance(n, data.draw(st.integers(min_value=1, max_value=1 << n)))
        t_max = data.draw(st.integers(0, max_t_in_period(grover_angles(inst.n_states))))
        basis = basis_state(n, inst.target)
        rows = probability_curve(inst, t_max)
        assert len(rows) == t_max + 1
        for row, (other, tau) in zip(rows, kernel_steps(inst)):
            restarted = kernel_state(inst, row.t)
            assert row.p_simulated == measurement_probability(restarted, inst.target)
            built = two_valued_state(inst, other, tau)
            assert np.array_equal(built.amplitudes, restarted.amplitudes)
        alpha = data.draw(st.floats(-2.0 * math.pi, 2.0 * math.pi))
        summed = (
            math.cos(alpha) * plane_state(inst, 0.0).amplitudes
            + math.sin(alpha) * basis.amplitudes
        )
        assert np.abs(plane_state(inst, alpha).amplitudes - summed).max() <= 1e-15

    def test_paths_agree_with_each_other(self):
        inst = GroverInstance(6, 17)
        for t in (0, 1, 5, 12):
            a = operator_state(inst, t)
            b = kernel_state(inst, t).amplitudes
            assert np.abs(a - b).max() < 1e-10

    def test_kernel_handles_larger_spaces(self):
        inst = GroverInstance(12, 1000)
        opt = optimal_iterations(grover_angles(inst.n_states))
        state = kernel_state(inst, opt.t_best)
        p = measurement_probability(state, 1000)
        assert abs(p - opt.p_best) < 1e-9

    def test_drift_at_twenty_qubits_stays_inside_its_margin(self):
        # measured 1.3e-12 and 1.3e-14; the adopt_qstate gate is 1e-10, so a
        # kernel change that loses precision fails here before it hits the gate
        inst = GroverInstance(20, 777_777)
        t = optimal_iterations(grover_angles(inst.n_states)).t_best
        assert t == 804
        amps = kernel_state(inst, t).amplitudes
        assert abs(np.vdot(amps, amps).real - 1.0) <= 1e-11
        assert np.abs(amps - closed_form_state(inst, t).amplitudes).max() <= 1e-12

    def test_drift_at_the_qubit_cap_stays_inside_its_margin(self):
        # measured 4.67e-12 and 3.66e-15 against the 1e-10 adopt_qstate gate
        inst = GroverInstance(24, 12345)
        t = optimal_iterations(grover_angles(inst.n_states)).t_best
        assert t == 3216
        amps = kernel_state(inst, t).amplitudes
        assert abs(np.vdot(amps, amps).real - 1.0) <= 5e-11
        closed = closed_form_state(inst, t).amplitudes
        # slice by slice, so no third 2^24 vector is held at once
        step = 1 << 20
        gap = max(
            float(np.abs(amps[i:i + step] - closed[i:i + step]).max())
            for i in range(0, inst.n_states, step)
        )
        assert gap <= 1e-13

    def test_kernel_holds_one_vector(self):
        # the generator steps two floats, not even one 2^n vector: the peak
        # is the 16 running sums of _mean and a little more
        inst = GroverInstance(18, 3)
        tracemalloc.start()
        try:
            steps = kernel_steps(inst)
            for _ in range(50):
                next(steps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 1024

    def test_sixteen_state_probability_after_three_steps(self):
        inst = GroverInstance(4, 11)
        state = kernel_state(inst, 3)
        p = measurement_probability(state, 11)
        assert abs(p - P3_N16) < 1e-9

    def test_invalid_inputs(self):
        inst = GroverInstance(2, 1)
        with pytest.raises(ValueError):
            kernel_state(inst, -1)

    def test_closed_form_at_zero_is_uniform(self):
        for n in (1, 2, 4, 6):
            inst = GroverInstance(n, 1)
            got = closed_form_state(inst, 0).amplitudes
            assert np.abs(got - 1.0 / math.sqrt(1 << n)).max() < 1e-12

    def test_closed_form_is_always_normalized(self):
        inst = GroverInstance(5, 9)
        for t in range(0, 50, 7):
            amps = closed_form_state(inst, t).amplitudes
            assert abs(np.vdot(amps, amps).real - 1.0) < 1e-12


def _at_step(steps, t):
    return next(itertools.islice(steps, t, None))


class TestTwoValueKernel:
    """``kernel_steps`` against the vector loop it replaced, bit for bit."""

    @staticmethod
    def assert_every_step_matches(inst, t_max):
        for t, (other, tau), amps in zip(
            range(t_max + 1), kernel_steps(inst), vector_kernel_steps(inst)
        ):
            assert np.array_equal(two_valued_state(inst, other, tau).amplitudes, amps), t

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_every_step_matches_the_vector_loop(self, data):
        n = data.draw(st.integers(min_value=1, max_value=12))
        inst = GroverInstance(n, data.draw(st.integers(min_value=1, max_value=1 << n)))
        self.assert_every_step_matches(inst, max_t_in_period(grover_angles(inst.n_states)))

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8])
    def test_targets_at_the_summation_leaf_boundary(self, n):
        # numpy's pairwise sum has 128-element leaves of 8 lanes: n=7 is one
        # leaf, n=8 two, so every target puts tau in each lane and row of
        # both; n=1, 2 add a leaf in order, and n=3 has a single row
        for target in range(1, (1 << n) + 1):
            inst = GroverInstance(n, target)
            self.assert_every_step_matches(inst, max_t_in_period(grover_angles(inst.n_states)))

    def test_twenty_qubits_at_the_optimum(self):
        inst = GroverInstance(20, 777_777)
        amps = _at_step(vector_kernel_steps(inst), 804)
        assert np.array_equal(kernel_state(inst, 804).amplitudes, amps)

    @pytest.mark.slow
    def test_the_qubit_cap_at_the_optimum(self):
        # about 110 s: the vector loop reads the 128 MB vector 3 times a step
        inst = GroverInstance(24, 12345)
        amps = _at_step(vector_kernel_steps(inst), 3216)
        assert np.array_equal(kernel_state(inst, 3216).amplitudes, amps)


class TestTargetProbability:
    """``target_probability`` reads the kernel's pair as the 2^n state would be read."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_every_step_of_a_period_matches_the_state_read(self, data):
        n = data.draw(st.integers(min_value=1, max_value=12))
        inst = GroverInstance(n, data.draw(st.integers(min_value=1, max_value=1 << n)))
        t_max = max_t_in_period(grover_angles(inst.n_states))
        for other, tau in itertools.islice(kernel_steps(inst), t_max + 1):
            state = two_valued_state(inst, other, tau)
            assert target_probability(inst, other, tau) == measurement_probability(state, inst.target)

    @pytest.mark.parametrize("other, tau", [
        (0.25, 0.25 + 1e-9),  # squared norm off by 5e-10
        (0.25 - 1e-9, 0.25),  # off by 7.5e-9
        (0.0, 0.0),
        (math.nan, 0.25),
        (0.25, math.nan),
        (math.inf, 0.25),
        (0.25, -math.inf),
    ])
    def test_pair_gate_rejects_what_the_state_gate_rejects(self, other, tau):
        inst = GroverInstance(4, 11)
        with pytest.raises(NormalizationError):
            target_probability(inst, other, tau)
        with pytest.raises(NormalizationError):
            two_valued_state(inst, other, tau)

    def test_pair_gate_accepts_a_unit_pair(self):
        assert target_probability(GroverInstance(4, 11), 0.25, -0.25) == 0.0625
        assert target_probability(GroverInstance(3, 2), 0.0, -1.0) == 1.0


class TestPlaneRotation:
    """The simulated state stays in the {|tau_perp>, |tau>} plane and turns by 2 theta per step."""

    def test_single_step_triples_the_angle(self):
        inst = GroverInstance(4, 6)
        theta = grover_angles(inst.n_states).theta
        c_perp, c_tau = plane_coordinates(inst, 1)
        assert abs(c_perp - math.cos(3.0 * theta)) < 1e-12
        assert abs(c_tau - math.sin(3.0 * theta)) < 1e-12

    def test_many_steps_match_angle_formula(self):
        inst = GroverInstance(6, 40)
        theta = grover_angles(inst.n_states).theta
        for t in range(1, 101):
            c_perp, c_tau = plane_coordinates(inst, t)
            assert abs(c_perp - math.cos((2 * t + 1) * theta)) < 1e-12
            assert abs(c_tau - math.sin((2 * t + 1) * theta)) < 1e-12

    def test_projection_matches_full_simulation(self):
        inst = GroverInstance(3, 6)
        ang = grover_angles(inst.n_states)
        for t in range(0, 6):
            full = kernel_state(inst, t)
            c_tau = math.sin((2 * t + 1) * ang.theta)
            assert abs(c_tau**2 - measurement_probability(full, 6)) < 1e-9


class TestSuccessProbability:
    def test_sixteen_states_no_iterations(self):
        assert abs(success_probability(grover_angles(16), 0) - 0.0625) < 1e-15

    def test_four_states_one_iteration_is_certain(self):
        assert abs(success_probability(grover_angles(4), 1) - 1.0) < 1e-12

    def test_sixteen_states_three_iterations(self):
        assert abs(success_probability(grover_angles(16), 3) - P3_N16) < 1e-12

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError):
            success_probability(grover_angles(4), -1)

    def test_period_pi(self):
        rng = np.random.default_rng(41)
        xs = rng.uniform(0.0, 10.0 * math.pi, 200)
        assert np.abs(np.sin(xs + math.pi) ** 2 - np.sin(xs) ** 2).max() < 1e-12


class TestOptimalIterations:
    def test_four_states_exact_optimum(self):
        opt = optimal_iterations(grover_angles(4))
        assert opt.t_real == 1.0
        assert opt.t_floor == opt.t_ceil == opt.t_best == 1
        assert abs(opt.p_best - 1.0) < 1e-12

    def test_sixteen_states(self):
        opt = optimal_iterations(grover_angles(16))
        assert (opt.t_floor, opt.t_ceil, opt.t_best) == (2, 3, 3)
        assert abs(opt.p_best - P3_N16) < 1e-12

    def test_two_states_tie_goes_to_floor(self):
        opt = optimal_iterations(grover_angles(2))
        assert abs(opt.t_real - 0.5) < 1e-12
        assert (opt.t_floor, opt.t_ceil) == (0, 1)
        assert opt.t_best == 0
        assert abs(opt.p_best - 0.5) < 1e-12

    def test_best_candidate_wins_for_all_sizes(self):
        for n in range(1, 13):
            ang = grover_angles(1 << n)
            opt = optimal_iterations(ang)
            p_floor = success_probability(ang, opt.t_floor)
            p_ceil = success_probability(ang, opt.t_ceil)
            assert opt.p_best >= max(p_floor, p_ceil) - 1e-12


class TestHighPrecisionReference:
    """Every qubit count ``optimal --n`` accepts, against 80-digit arithmetic."""

    @staticmethod
    def _snapped(mp, x, rounding):
        # only N=4 has an exactly integral bound (t_real = 1); 80 digits
        # leave it a hair off, and floor/ceil must see the integer
        nearest = mp.nint(x)
        return int(nearest) if abs(x - nearest) < mp.mpf("1e-60") else int(rounding(x))

    def test_optimal_count_and_ranges_up_to_sixty_qubits(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(80):
            for n in range(1, 61):
                self._compare(mpmath.mp, n)

    def _compare(self, mp, n):
        ang = grover_angles(1 << n)
        theta = mp.asin(1 / mp.sqrt(mp.mpf(2) ** n))
        t_real = mp.pi / (4 * theta) - mp.mpf(1) / 2
        t_floor = max(0, self._snapped(mp, t_real, mp.floor))
        t_ceil = self._snapped(mp, t_real, mp.ceil)
        p_floor = mp.sin((2 * t_floor + 1) * theta) ** 2
        p_ceil = mp.sin((2 * t_ceil + 1) * theta) ** 2
        # the floor wins a tie; N=2 (p_0 = p_1 = 1/2) is the only one
        best = t_ceil if p_ceil - p_floor > mp.mpf("1e-60") else t_floor
        assert optimal_iterations(ang).t_best == best, n

        inc_hi = self._snapped(mp, t_real - 1, mp.floor)
        assert monotonic_increase_range(ang) == range(1, inc_hi + 1), n
        dec_hi = self._snapped(mp, mp.pi / (2 * theta) - mp.mpf(3) / 2, mp.floor)
        assert monotonic_decrease_range(ang) == range(t_ceil, dec_hi + 1), n
        period = self._snapped(mp, (mp.pi / theta - 1) / 2, mp.floor)
        assert max_t_in_period(ang) == period, n


class TestMonotonicRanges:
    def test_sixteen_states_ranges(self):
        ang = grover_angles(16)
        assert list(monotonic_increase_range(ang)) == [1]
        assert list(monotonic_decrease_range(ang)) == [3, 4]

    def test_four_states_ranges(self):
        ang = grover_angles(4)
        assert list(monotonic_increase_range(ang)) == []
        assert list(monotonic_decrease_range(ang)) == [1]

    def test_two_states_ranges_are_empty(self):
        ang = grover_angles(2)
        assert list(monotonic_increase_range(ang)) == []
        assert list(monotonic_decrease_range(ang)) == []

    def test_inequalities_hold_on_ranges(self):
        for n in range(2, 13):
            ang = grover_angles(1 << n)
            for t in monotonic_increase_range(ang):
                assert success_probability(ang, t + 1) > success_probability(ang, t)
            for t in monotonic_decrease_range(ang):
                assert success_probability(ang, t) > success_probability(ang, t + 1)

    def test_ranges_bracket_the_best_iteration(self):
        for n in range(2, 13):
            ang = grover_angles(1 << n)
            inc = monotonic_increase_range(ang)
            dec = monotonic_decrease_range(ang)
            best = optimal_iterations(ang).t_best
            if len(inc) and len(dec):
                assert max(inc) + 1 <= best <= min(dec)

    def test_period_bounds(self):
        assert max_t_in_period(grover_angles(16)) == 5
        assert max_t_in_period(grover_angles(4)) == 2
