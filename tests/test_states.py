"""Tests for states, gates, evolution, projectors and measurement.

Evolution is an operator applied to the amplitudes and re-gated by
``make_qstate``; |0...0> is ``basis_state(n, 1)``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groversim.grover import uniform_superposition
from groversim.linalg import DimensionMismatchError, is_unitary, matmul, tensor_product_list
from groversim.states import (
    NormalizationError,
    QState,
    basis_state,
    completeness_residual,
    hadamard,
    make_qstate,
    measurement_probability,
    projector,
    random_qstate,
    sample_measurement,
)

from oracles import counter_histogram, kron_fold, random_structured_unitary

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def norm2(v) -> float:
    return float(np.vdot(v, v).real)


class TestMakeQState:
    def test_basis_vector_accepted(self):
        q = make_qstate([1.0, 0.0])
        assert q.n_qubits == 1
        assert np.array_equal(q.amplitudes, np.array([1.0, 0.0], dtype=complex))

    def test_uniform_pair_accepted(self):
        q = make_qstate([INV_SQRT2, INV_SQRT2])
        assert abs(norm2(q.amplitudes) - 1.0) < 1e-15

    def test_unnormalized_rejected(self):
        with pytest.raises(NormalizationError):
            make_qstate([1.0, 1.0])

    def test_no_silent_renormalization(self):
        # norm off by more than the tolerance in either direction
        with pytest.raises(NormalizationError):
            make_qstate([1.0 + 1e-5, 0.0])

    def test_norm_within_tolerance_accepted(self):
        make_qstate([math.sqrt(1.0 + 5e-11), 0.0])

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            make_qstate([1.0, 0.0, 0.0])

    def test_dimension_one_rejected(self):
        with pytest.raises(ValueError):
            make_qstate([1.0])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            make_qstate([np.nan, 0.0])

    def test_non_finite_entries_fail_the_norm_gate(self):
        nan, inf = float("nan"), float("inf")
        for bad in ([nan, 0], [0, complex(0, nan)], [inf, 0], [-inf, 0], [complex(0, inf), 0]):
            with pytest.raises(NormalizationError):
                make_qstate(bad)

    def test_non_vector_rejected(self):
        for bad in (np.eye(2), []):
            with pytest.raises(ValueError):
                make_qstate(bad)

    def test_roundtrip_is_identity(self):
        q = random_qstate(3, np.random.default_rng(5))
        again = make_qstate(q.amplitudes)
        assert np.array_equal(again.amplitudes, q.amplitudes)

    def test_amplitudes_read_only(self):
        q = make_qstate([1.0, 0.0])
        with pytest.raises(ValueError):
            q.amplitudes[0] = 0.5


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
        assert is_unitary(hadamard())

    def test_n_hadamard_single_is_hadamard(self):
        assert np.array_equal(tensor_product_list([hadamard()]), hadamard())

    def test_two_qubits_give_uniform_amplitudes(self):
        q = make_qstate(tensor_product_list([hadamard()] * 2) @ basis_state(2, 1).amplitudes)
        assert np.abs(q.amplitudes - 0.5).max() < 1e-15

    def test_four_qubits_give_uniform_amplitudes(self):
        q = make_qstate(tensor_product_list([hadamard()] * 4) @ basis_state(4, 1).amplitudes)
        assert np.abs(q.amplitudes - 0.25).max() < 1e-15

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_kronecker_oracle(self, n):
        factors = [hadamard()] * n
        assert np.abs(tensor_product_list(factors) - kron_fold(factors)).max() < 1e-14

    def test_zero_qubits_rejected(self):
        with pytest.raises(ValueError):
            uniform_superposition(0)


class TestEvolve:
    """``make_qstate(U @ q.amplitudes)``: apply an operator, then re-check the norm."""

    def test_identity_preserves_state(self):
        q = random_qstate(2, np.random.default_rng(1))
        out = make_qstate(np.eye(4, dtype=complex) @ q.amplitudes)
        assert np.array_equal(out.amplitudes, q.amplitudes)

    def test_hadamard_on_zero(self):
        out = make_qstate(hadamard() @ basis_state(1, 1).amplitudes)
        assert np.abs(out.amplitudes - INV_SQRT2).max() < 1e-15

    def test_norm_conserved_for_random_unitaries(self):
        rng = np.random.default_rng(2)
        for n in (1, 2, 3, 4, 5, 6):
            for _ in range(10):
                u = random_structured_unitary(n, rng)
                q = random_qstate(n, rng)
                out = make_qstate(u @ q.amplitudes)
                assert abs(norm2(out.amplitudes) - 1.0) < 1e-9

    def test_non_unitary_operator_rejected(self):
        # the norm gate refuses what a non-unitary operator makes
        with pytest.raises(NormalizationError):
            make_qstate(2.0 * np.eye(2) @ basis_state(1, 1).amplitudes)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            matmul(np.eye(4, dtype=complex), hadamard())


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
    def test_same_state_gives_one(self):
        for label in range(1, 9):
            assert abs(measurement_probability(basis_state(3, label), label) - 1.0) < 1e-12

    def test_orthogonal_basis_states_give_zero(self):
        assert measurement_probability(basis_state(2, 2), 1) == 0.0

    def test_basis_against_uniform_sixteen(self):
        uniform = make_qstate(np.full(16, 0.25, dtype=complex))
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
    def test_deterministic_state_yields_single_outcome(self):
        hist = sample_measurement(basis_state(3, 1), rng_seed=123, shots=500)
        assert hist == {1: 500}

    def test_uniform_state_concentrates(self):
        uniform = make_qstate(np.full(4, 0.5, dtype=complex))
        shots = 100_000
        hist = sample_measurement(uniform, rng_seed=77, shots=shots)
        assert sorted(hist) == [1, 2, 3, 4]
        for count in hist.values():
            assert abs(count / shots - 0.25) < 0.01

    def test_same_seed_same_histogram(self):
        q = random_qstate(4, np.random.default_rng(10))
        a = sample_measurement(q, rng_seed=42, shots=1000)
        b = sample_measurement(q, rng_seed=42, shots=1000)
        assert a == b

    def test_shots_must_be_positive(self):
        with pytest.raises(ValueError):
            sample_measurement(basis_state(1, 1), rng_seed=1, shots=0)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 10),
        state_seed=st.integers(0, 2**32 - 1),
        sparse=st.booleans(),
        rng_seed=st.integers(0, 2**64),
        shots=st.integers(1, 5000),
    )
    def test_histogram_matches_the_counter_reference_in_label_order(
        self, n, state_seed, sparse, rng_seed, shots
    ):
        rng = np.random.default_rng(state_seed)
        v = random_qstate(n, rng).amplitudes.copy()
        if sparse:  # zeros make flat CDF steps, which both samplers must skip alike
            v[rng.random(v.shape[0]) < 0.7] = 0.0
            v[rng.integers(v.shape[0])] += 1.0
            v /= np.linalg.norm(v)
        q = make_qstate(v)
        hist = sample_measurement(q, rng_seed, shots)
        assert hist == counter_histogram(q.amplitudes, rng_seed, shots)
        assert list(hist) == sorted(hist)


def test_random_qstate_is_normalized():
    rng = np.random.default_rng(11)
    for n in (1, 4, 8):
        q = random_qstate(n, rng)
        assert abs(norm2(q.amplitudes) - 1.0) < 1e-12
        assert isinstance(q, QState)
