"""Tests for states, gates, evolution, projectors and measurement.

Evolution is an operator applied to the amplitudes and re-gated by
``adopt_qstate``; |0...0> is ``basis_state(n, 1)``.
"""

import math

import numpy as np
import pytest

from groversim.grover import (
    GroverInstance,
    NormalizationError,
    grover_angles,
    max_t_in_period,
    optimal_iterations,
    pair_after_iterations,
)
from groversim.linalg import (
    QState,
    adopt_qstate,
    basis_state,
    completeness_residual,
    hadamard,
    projector,
    random_qstate,
    tensor_product_list,
    uniform_superposition,
    unitarity_residual,
)
from groversim.states import sample_measurement

from oracles import kron_fold, measurement_probability, random_structured_unitary

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def norm2(v) -> float:
    return float(np.vdot(v, v).real)


class TestMakeQState:
    """``adopt_qstate``, the one gate every QState passes."""

    def test_basis_vector_accepted(self):
        q = adopt_qstate(np.array([1.0, 0.0]))
        assert q.n_qubits == 1
        assert np.array_equal(q.amplitudes, np.array([1.0, 0.0], dtype=complex))

    def test_uniform_pair_accepted(self):
        q = adopt_qstate(np.array([INV_SQRT2, INV_SQRT2]))
        assert abs(norm2(q.amplitudes) - 1.0) < 1e-15

    def test_unnormalized_rejected(self):
        with pytest.raises(NormalizationError):
            adopt_qstate(np.array([1.0, 1.0]))

    def test_no_silent_renormalization(self):
        # norm off by more than the tolerance in either direction
        with pytest.raises(NormalizationError):
            adopt_qstate(np.array([1.0 + 1e-5, 0.0]))

    def test_norm_within_tolerance_accepted(self):
        adopt_qstate(np.array([math.sqrt(1.0 + 5e-11), 0.0]))

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            adopt_qstate(np.array([1.0, 0.0, 0.0]))

    def test_dimension_one_rejected(self):
        with pytest.raises(ValueError):
            adopt_qstate(np.array([1.0]))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            adopt_qstate(np.array([np.nan, 0.0]))

    def test_non_finite_entries_fail_the_norm_gate(self):
        nan, inf = float("nan"), float("inf")
        for bad in ([nan, 0], [0, complex(0, nan)], [inf, 0], [-inf, 0], [complex(0, inf), 0]):
            with pytest.raises(NormalizationError):
                adopt_qstate(np.array(bad))

    def test_non_vector_rejected(self):
        for bad in (np.eye(2), []):
            with pytest.raises(ValueError):
                adopt_qstate(np.array(bad))

    def test_roundtrip_is_identity(self):
        q = random_qstate(3, np.random.default_rng(5))
        again = adopt_qstate(q.amplitudes.copy())
        assert np.array_equal(again.amplitudes, q.amplitudes)

    def test_amplitudes_read_only(self):
        q = adopt_qstate(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            q.amplitudes[0] = 0.5

    def test_the_handed_array_becomes_the_read_only_amplitudes(self):
        v = np.array([INV_SQRT2, INV_SQRT2])
        q = adopt_qstate(v)
        assert q.amplitudes is v
        assert not v.flags.writeable
        with pytest.raises(ValueError):
            v[0] = 1.0


class TestZeroAndBasisStates:
    def test_one_qubit_zero_state(self):
        assert np.array_equal(basis_state(1, 1).amplitudes, np.array([1.0, 0.0], dtype=complex))

    def test_three_qubit_zero_state(self):
        q = basis_state(3, 1)
        assert len(q.amplitudes) == 8
        assert q.amplitudes[0] == 1.0
        assert np.all(q.amplitudes[1:] == 0.0)

    def test_zero_qubits_rejected(self):
        with pytest.raises(ValueError):
            basis_state(0, 1)

    def test_basis_state_labels_are_one_based(self):
        q = basis_state(2, 3)
        assert q.amplitudes[2] == 1.0
        assert norm2(q.amplitudes) == 1.0

    def test_basis_label_out_of_range(self):
        with pytest.raises(ValueError):
            basis_state(2, 5)
        with pytest.raises(ValueError):
            basis_state(2, 0)


class TestHadamard:
    def test_entries(self):
        h = hadamard()
        assert h[0, 0] == INV_SQRT2
        assert h[0, 1] == INV_SQRT2
        assert h[1, 0] == INV_SQRT2
        assert h[1, 1] == -INV_SQRT2

    def test_unitary(self):
        assert unitarity_residual(hadamard()) < 1e-10

    def test_n_hadamard_single_is_hadamard(self):
        assert np.array_equal(tensor_product_list([hadamard()]), hadamard())

    def test_two_qubits_give_uniform_amplitudes(self):
        q = adopt_qstate(tensor_product_list([hadamard()] * 2) @ basis_state(2, 1).amplitudes)
        assert np.abs(q.amplitudes - 0.5).max() < 1e-15

    def test_four_qubits_give_uniform_amplitudes(self):
        q = adopt_qstate(tensor_product_list([hadamard()] * 4) @ basis_state(4, 1).amplitudes)
        assert np.abs(q.amplitudes - 0.25).max() < 1e-15

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_kronecker_oracle(self, n):
        factors = [hadamard()] * n
        assert np.abs(tensor_product_list(factors) - kron_fold(factors)).max() < 1e-14

    def test_zero_qubits_rejected(self):
        with pytest.raises(ValueError):
            uniform_superposition(0)


class TestEvolve:
    """``adopt_qstate(U @ q.amplitudes)``: apply an operator, then re-check the norm."""

    def test_identity_preserves_state(self):
        q = random_qstate(2, np.random.default_rng(1))
        out = adopt_qstate(np.eye(4, dtype=complex) @ q.amplitudes)
        assert np.array_equal(out.amplitudes, q.amplitudes)

    def test_hadamard_on_zero(self):
        out = adopt_qstate(hadamard() @ basis_state(1, 1).amplitudes)
        assert np.abs(out.amplitudes - INV_SQRT2).max() < 1e-15

    def test_norm_conserved_for_random_unitaries(self):
        rng = np.random.default_rng(2)
        for n in (1, 2, 3, 4, 5, 6):
            for _ in range(10):
                u = random_structured_unitary(n, rng)
                q = random_qstate(n, rng)
                out = adopt_qstate(u @ q.amplitudes)
                assert abs(norm2(out.amplitudes) - 1.0) < 1e-9

    def test_non_unitary_operator_rejected(self):
        # the norm gate refuses what a non-unitary operator makes
        with pytest.raises(NormalizationError):
            adopt_qstate(2.0 * np.eye(2) @ basis_state(1, 1).amplitudes)


class TestProjector:
    def test_projector_of_zero_state(self):
        p = projector(basis_state(1, 1))
        assert np.array_equal(p, np.diag([1.0, 0.0]).astype(complex))

    def test_self_adjoint(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 4, 8):
            q = random_qstate(n, rng)
            p = projector(q)
            assert np.abs(p - p.conj().T).max() < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 4, 8):
            q = random_qstate(n, rng)
            p = projector(q)
            assert np.abs(p @ p - p).max() < 1e-12

    def test_completeness_small(self):
        assert completeness_residual(1) == 0.0
        assert completeness_residual(4) < 1e-10

    def test_partial_sum_is_incomplete(self):
        dim = 8
        acc = np.zeros((dim, dim), dtype=complex)
        for label in range(1, dim // 2 + 1):
            acc += projector(basis_state(3, label))
        assert np.abs(acc - np.eye(dim)).max() >= 1.0


class TestMeasurementProbability:
    """The Born-rule reference the kernel's pair read is checked against."""

    def test_same_state_gives_one(self):
        for label in range(1, 9):
            assert abs(measurement_probability(basis_state(3, label), label) - 1.0) < 1e-12

    def test_orthogonal_basis_states_give_zero(self):
        assert measurement_probability(basis_state(2, 2), 1) == 0.0

    def test_basis_against_uniform_sixteen(self):
        uniform = adopt_qstate(np.full(16, 0.25, dtype=complex))
        assert abs(measurement_probability(uniform, 7) - 1.0 / 16.0) < 1e-15

    def test_qubit_count_mismatch(self):
        # a label outside 1..2^n names no outcome of an n-qubit state
        for label in (0, 3, -1):
            with pytest.raises(ValueError):
                measurement_probability(basis_state(1, 1), label)

    def test_matches_projector_route(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 3, 4):
            y = random_qstate(n, rng)
            for label in range(1, (1 << n) + 1):
                projected = projector(basis_state(n, label)) @ y.amplitudes
                assert abs(measurement_probability(y, label) - norm2(projected)) < 1e-12

    def test_outcome_probabilities_sum_to_one(self):
        rng = np.random.default_rng(9)
        for n in (1, 3, 6):
            q = random_qstate(n, rng)
            total = sum(
                measurement_probability(q, label)
                for label in range(1, len(q.amplitudes) + 1)
            )
            assert abs(total - 1.0) < 1e-9

    def test_born_rule_equals_the_basis_inner_product(self):
        # |<label|q>|^2 is the two-state formula this function replaced
        rng = np.random.default_rng(12)
        for n in range(1, 9):
            for _ in range(20):
                q = random_qstate(n, rng)
                vectorized = np.abs(q.amplitudes) ** 2
                for label in range(1, (1 << n) + 1):
                    p = measurement_probability(q, label)
                    assert p == abs(np.vdot(basis_state(n, label).amplitudes, q.amplitudes)) ** 2
                    # numpy's vectorized abs may differ by 1 ulp on complex entries
                    assert abs(p - vectorized[label - 1]) <= 2.3e-16


class TestSampling:
    """``sample_measurement`` on the two-valued states the Grover kernel steps."""

    def test_deterministic_state_yields_single_outcome(self):
        # N=4 after one step: all the amplitude sits on the target
        pair = pair_after_iterations(GroverInstance(2, 1), 1)
        assert pair == (0.0, 1.0)
        hist = sample_measurement((GroverInstance(2, 1), *pair), rng_seed=123, shots=500)
        assert hist == {1: 500}

    def test_uniform_state_concentrates(self):
        pair = pair_after_iterations(GroverInstance(2, 3), 0)
        assert pair == (0.5, 0.5)
        shots = 100_000
        hist = sample_measurement((GroverInstance(2, 3), *pair), rng_seed=77, shots=shots)
        assert sorted(hist) == [1, 2, 3, 4]
        for count in hist.values():
            assert abs(count / shots - 0.25) < 0.01

    def test_same_seed_same_histogram(self):
        inst = GroverInstance(4, 5)
        state = (inst, *pair_after_iterations(inst, 2))
        a = sample_measurement(state, rng_seed=42, shots=1000)
        b = sample_measurement(state, rng_seed=42, shots=1000)
        assert a == b

    def test_shots_must_be_positive(self):
        with pytest.raises(ValueError):
            sample_measurement((GroverInstance(1, 1), INV_SQRT2, INV_SQRT2), rng_seed=1, shots=0)

    @pytest.mark.parametrize(
        "state",
        [
            (GroverInstance(2, 1), 0.5, 0.5 + 1e-9),
            (GroverInstance(2, 4), 0.5 - 1e-9, 0.5),
            (GroverInstance(1, 1), float("nan"), 1.0),
        ],
        ids=["tau-high", "other-low", "nan"],
    )
    def test_a_pair_off_the_unit_norm_is_refused(self, state):
        # no 2^n vector and no adopt_qstate stand in front of the draws
        with pytest.raises(NormalizationError):
            sample_measurement(state, rng_seed=1, shots=10)

    @pytest.mark.parametrize(
        "state, label",
        [
            ((GroverInstance(2, 1), 0.0, math.nextafter(1.0, 2.0)), 1),
            ((GroverInstance(1, 2), 0.0, 1.0), 2),
            ((GroverInstance(1, 1), 1.0, 0.0), 2),
        ],
        ids=["tau-above-1", "target-certain", "target-impossible"],
    )
    def test_a_certain_outcome_takes_every_shot(self, state, label):
        # tau**2 above 1 still passes the gate; p = tau**2 / norm2 keeps the binomial's p <= 1
        assert sample_measurement(state, rng_seed=3, shots=1000) == {label: 1000}


BORN_SHOTS = 200_000


def born_cases():
    """n 1..12 at targets 1, N/2+1 and N over t 0, 1, t_best and the period's end;
    n=22 at t_best, where other**2 is 4.9e-18; n=24 at t 1 and t_best."""
    for n in range(1, 13):
        n_states = 1 << n
        angles = grover_angles(n_states)
        ts = sorted({0, 1, optimal_iterations(angles).t_best, max_t_in_period(angles)})
        for target in sorted({1, n_states // 2 + 1, n_states}):
            for t in ts:
                yield n, target, t
    yield 22, 1, optimal_iterations(grover_angles(1 << 22)).t_best
    yield 24, 1, 1
    yield 24, 1, optimal_iterations(grover_angles(1 << 24)).t_best


def assert_fits_the_born_probabilities(n, target, t, shots=BORN_SHOTS):
    """The histogram of the kernel's pair against its exact Born probabilities.

    The target's count is Binomial(shots, p) with p = tau**2 / norm2; its
    z-score must stay under 5.  Given the misses, the other labels' counts,
    pooled by rank into min(N - 1, 32) bins of N - 1 labels as equal as they
    divide, are multinomial; when every bin expects at least 5, the
    chi-square must stay under dof + 5 * sqrt(2 * dof), its mean plus five
    standard deviations.
    """
    n_states = 1 << n
    other, tau = pair_after_iterations(GroverInstance(n, target), t)
    p = tau * tau / ((n_states - 1) * other * other + tau * tau)
    rng_seed = 10**12 * n + 10**8 * t + target  # a stream of its own per case
    hist = sample_measurement((GroverInstance(n, target), other, tau), rng_seed, shots)
    assert list(hist) == sorted(hist) and 1 <= min(hist) and max(hist) <= n_states
    assert sum(hist.values()) == shots
    hits = hist.pop(target, 0)
    assert abs(hits - shots * p) <= 5.0 * math.sqrt(shots * p * (1.0 - p))
    bins = min(n_states - 1, 32)
    starts = -(-np.arange(bins + 1) * (n_states - 1) // bins)  # first rank of each bin
    labels = np.array(list(hist), dtype=np.int64)
    ranks = labels - 1 - (labels > target)  # 0 .. N-2 over the other labels
    observed = np.bincount(
        np.searchsorted(starts, ranks, side="right") - 1,
        weights=list(hist.values()), minlength=bins,
    )
    expected = (shots - hits) * np.diff(starts) / (n_states - 1)
    if bins > 1 and expected.min() >= 5.0:
        dof = bins - 1
        assert ((observed - expected) ** 2 / expected).sum() < dof + 5.0 * math.sqrt(2.0 * dof)


class TestSamplingFromThePair:
    """The Born distribution of the kernel's pair: the target's binomial count,
    and the misses uniform over the other labels."""

    @pytest.mark.parametrize("n, target, t", list(born_cases()))
    def test_histogram_fits_the_born_probabilities(self, n, target, t):
        assert_fits_the_born_probabilities(n, target, t)

    def test_n4_at_t1_is_the_exact_pair(self):
        # other is 0: every shot lands on the target, wherever it sits
        for target in (1, 2, 4):
            other, tau = pair_after_iterations(GroverInstance(2, target), 1)
            assert (other, tau) == (0.0, 1.0)
            assert sample_measurement((GroverInstance(2, target), other, tau), 6, 1000) == {
                target: 1000
            }

    @pytest.mark.parametrize("rng_seed", range(5))
    def test_one_shot(self, rng_seed):
        inst = GroverInstance(6, 17)
        other, tau = pair_after_iterations(inst, 0)
        [(label, count)] = sample_measurement((inst, other, tau), rng_seed, 1).items()
        assert count == 1 and 1 <= label <= 64

    @pytest.mark.parametrize("n, target, t", [(20, 349526, 0), (20, 349526, 804)])
    def test_histograms_at_scale(self, n, target, t):
        # between the grid and the cap, at a target away from either end
        assert_fits_the_born_probabilities(n, target, t)


def test_random_qstate_is_normalized():
    rng = np.random.default_rng(11)
    for n in (1, 4, 8):
        q = random_qstate(n, rng)
        assert abs(norm2(q.amplitudes) - 1.0) < 1e-12
        assert isinstance(q, QState)
