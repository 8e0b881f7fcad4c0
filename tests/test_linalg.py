"""Tests for the dense complex linear-algebra layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groversim.grover import GroverInstance, NormalizationError
from groversim.linalg import (
    adopt_qstate,
    basis_state,
    column_orthonormality_residual,
    diffusion,
    hadamard,
    oracle,
    tensor_product_list,
    uniform_superposition,
    unitarity_residual,
)

from oracles import (
    bit_index_product, kernel_state, kron_fold, random_2x2,
    random_structured_unitary,
)

RNG = np.random.default_rng(20260810)


def random_matrix(dim, rng=RNG):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


class TestHermitianConjugate:
    """The conjugate transpose inside ``unitarity_residual``."""

    def test_pure_imaginary_1x1(self):
        # unitary only if the adjoint conjugates: a plain transpose gives 1j * 1j = -1
        assert unitarity_residual([[1j]]) == 0.0

    def test_entrywise_definition(self):
        a = random_matrix(5)
        worst = 0.0
        for i in range(5):
            for j in range(5):
                delta = 1.0 if i == j else 0.0
                adj_a = sum(np.conj(a[k, i]) * a[k, j] for k in range(5))
                a_adj = sum(a[i, k] * np.conj(a[j, k]) for k in range(5))
                worst = max(worst, abs(adj_a - delta), abs(a_adj - delta))
        assert abs(unitarity_residual(a) - worst) < 1e-12 * worst

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
    def test_involution(self, dim, seed):
        # the worse of A'A - I and AA' - I is the same for A and A'
        a = random_matrix(dim, np.random.default_rng(seed))
        assert unitarity_residual(a.conj().T) == pytest.approx(unitarity_residual(a), rel=1e-12)

    def test_hadamard_is_self_adjoint(self):
        h = hadamard()
        assert np.array_equal(h.conj().T, h)

    def test_identity_is_self_adjoint(self):
        assert unitarity_residual(np.eye(6, dtype=complex)) == 0.0


class TestMatmul:
    def test_hadamard_squares_to_identity(self):
        h = hadamard()
        assert np.abs(h @ h - np.eye(2)).max() < 1e-15

    def test_diagonal_symmetry(self):
        d = np.diag(RNG.standard_normal(5)).astype(complex)
        assert np.array_equal(d, d.T)


class TestUnitarity:
    def test_hadamard(self):
        assert unitarity_residual(hadamard()) < 1e-10

    def test_identity(self):
        assert unitarity_residual(np.eye(7)) < 1e-10

    def test_scaled_identity_is_not(self):
        assert unitarity_residual(2.0 * np.eye(2)) == 3.0

    def test_closure_under_product(self):
        rng = np.random.default_rng(7)
        for n_qubits in (1, 2, 3, 4):  # dims up to 16
            for _ in range(10):
                a = random_structured_unitary(n_qubits, rng)
                b = random_structured_unitary(n_qubits, rng)
                assert unitarity_residual(a @ b) < 1e-10


class TestColumnOrthonormality:
    def test_hadamard(self):
        assert column_orthonormality_residual(hadamard()) < 1e-12

    def test_identity(self):
        assert column_orthonormality_residual(np.eye(5)) < 1e-12

    def test_duplicated_columns_fail(self):
        m = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
        assert not column_orthonormality_residual(m) < 1e-6
        assert column_orthonormality_residual(m) >= 1.0

    def test_unitarity_implies_orthonormal_columns(self):
        rng = np.random.default_rng(11)
        tol = 1e-10
        for n_qubits in (1, 2, 3, 4):
            for _ in range(10):
                u = random_structured_unitary(n_qubits, rng)
                assert unitarity_residual(u) < 1e-10
                assert column_orthonormality_residual(u) < 10.0 * tol


class TestTensorProductList:
    def test_single_identity(self):
        eye = np.eye(2, dtype=complex)
        assert np.array_equal(tensor_product_list([eye]), eye)

    def test_single_factor_is_itself(self):
        m = random_2x2(RNG)
        assert np.array_equal(tensor_product_list([m]), m)

    def test_hh_entries(self):
        t = tensor_product_list([hadamard(), hadamard()])
        assert np.abs(np.abs(t) - 0.5).max() < 1e-15
        # bottom-right entry is the product of the two (2,2) entries: (-1/sqrt2)^2
        assert abs(t[3, 3] - 0.5) < 1e-15

    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5])
    def test_matches_kronecker_oracle(self, length):
        rng = np.random.default_rng(100 + length)
        for _ in range(20):
            ms = [random_2x2(rng) for _ in range(length)]
            got = tensor_product_list(ms)
            want = kron_fold(ms)
            assert got.shape == (2**length, 2**length)
            assert np.abs(got - want).max() < 1e-14

    def test_matches_bit_index_formula_bit_for_bit(self):
        # same multiplication order per entry, so equal to the last bit
        rng = np.random.default_rng(7)
        for length in range(1, 11):
            for _ in range(2):
                ms = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                      for _ in range(length)]
                assert np.array_equal(tensor_product_list(ms), bit_index_product(ms))

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            tensor_product_list([])

    def test_non_2x2_factor_rejected(self):
        with pytest.raises(ValueError):
            tensor_product_list([np.eye(4)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_factor_rejected(self, bad):
        factor = np.eye(2, dtype=complex)
        factor[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            tensor_product_list([hadamard(), factor])

    def test_two_by_three_factor_rejected(self):
        with pytest.raises(ValueError, match="2x2"):
            tensor_product_list([np.ones((2, 3))])

    def test_ragged_list_rejected(self):
        with pytest.raises(ValueError, match="2x2"):
            tensor_product_list([hadamard(), np.eye(4)])


class TestMatrixListGen:
    """Lists of 2x2 gates handed to ``tensor_product_list``."""

    def test_constant_generator(self):
        # every entry of H (x) H (x) H is +-(1/sqrt 2)^3
        got = tensor_product_list([hadamard()] * 3)
        assert np.abs(np.abs(got) - 2.0**-1.5).max() < 1e-15

    def test_index_dependent_generator(self):
        # the first factor acts on the most significant bit
        h = hadamard()
        eye = np.eye(2, dtype=complex)
        got = tensor_product_list([h, eye])
        for i in range(4):
            for j in range(4):
                assert got[i, j] == h[i >> 1, j >> 1] * eye[i & 1, j & 1]

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            tensor_product_list([])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_hadamard_tensor_power_matches_oracle(self, n):
        # H^(x)n |0...0> is the uniform superposition the search starts from
        got = tensor_product_list([hadamard()] * n) @ basis_state(n, 1).amplitudes
        assert np.abs(got - uniform_superposition(n).amplitudes).max() < 1e-14


class TestMatrixPow:
    """G^t |phi0> for small t, exact at N = 4 where every amplitude is dyadic."""

    INST = GroverInstance(2, 3)

    def test_zeroth_power_is_identity(self):
        got = kernel_state(self.INST, 0).amplitudes
        assert np.array_equal(got, uniform_superposition(2).amplitudes)

    def test_first_power_is_itself(self):
        want = diffusion(2) @ oracle(self.INST) @ uniform_superposition(2).amplitudes
        assert np.array_equal(kernel_state(self.INST, 1).amplitudes, want)

    def test_square_matches_matmul(self):
        g = diffusion(2) @ oracle(self.INST)
        assert np.array_equal(np.linalg.matrix_power(g, 2), g @ g)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            kernel_state(self.INST, -1)


class TestValidation:
    def test_nan_entries_rejected(self):
        bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            unitarity_residual(bad)

    def test_inf_entries_rejected(self):
        with pytest.raises(ValueError):
            unitarity_residual(np.array([[1.0, np.inf], [0.0, 1.0]]))
        # vectors are validated where they become states, by the norm gate
        with pytest.raises(NormalizationError):
            adopt_qstate(np.array([1.0, np.inf]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            unitarity_residual(np.ones((2, 3)))

    def test_unitarity_residual_of_hadamard(self):
        assert unitarity_residual(hadamard()) < 1e-15
