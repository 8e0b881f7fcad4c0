"""Tests for the dense complex linear-algebra layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groversim.grover import (
    GroverInstance,
    grover_operator,
    state_after_iterations,
    uniform_superposition,
)
from groversim.linalg import (
    DimensionMismatchError,
    column_orthonormality_residual,
    is_unitary,
    matmul,
    tensor_product_list,
    unitarity_residual,
)
from groversim.states import NormalizationError, basis_state, hadamard, make_qstate

from oracles import (
    bit_index_product, kron_fold, naive_matvec, random_2x2, random_structured_unitary
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
    def test_identity_left_and_right_exact(self):
        a = random_matrix(4)
        eye = np.eye(4, dtype=complex)
        assert np.array_equal(matmul(eye, a), a)
        assert np.array_equal(matmul(a, eye), a)

    def test_real_diagonal_product_exact(self):
        # real diagonals avoid the rounding of complex scalar products
        d1 = np.diag(RNG.standard_normal(6)).astype(complex)
        d2 = np.diag(RNG.standard_normal(6)).astype(complex)
        expected = np.diag(np.diag(d1) * np.diag(d2))
        assert np.array_equal(matmul(d1, d2), expected)

    def test_complex_diagonal_product(self):
        v1 = RNG.standard_normal(6) + 1j * RNG.standard_normal(6)
        v2 = RNG.standard_normal(6) + 1j * RNG.standard_normal(6)
        out = matmul(np.diag(v1), np.diag(v2))
        assert np.abs(out - np.diag(v1 * v2)).max() < 1e-14

    def test_hadamard_squares_to_identity(self):
        h = hadamard()
        assert np.abs(matmul(h, h) - np.eye(2)).max() < 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            matmul(np.eye(2), np.eye(4))

    def test_diagonal_symmetry(self):
        d = np.diag(RNG.standard_normal(5)).astype(complex)
        assert np.array_equal(d, d.T)


class TestMatvec:
    """Column j of ``matmul(a, b)`` is ``a`` applied to column j of ``b``."""

    def test_identity(self):
        a = random_matrix(8)
        assert np.array_equal(matmul(np.eye(8, dtype=complex), a)[:, 3], a[:, 3])

    def test_hadamard_first_column(self):
        out = matmul(hadamard(), np.eye(2))[:, 0]
        expected = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert np.array_equal(out, expected.astype(complex))

    @pytest.mark.parametrize("dim", [2, 3, 5, 16, 64])
    def test_matches_naive_double_loop(self, dim):
        a = random_matrix(dim)
        b = random_matrix(dim)
        got = matmul(a, b)
        for j in range(dim):
            assert np.abs(got[:, j] - naive_matvec(a, b[:, j])).max() < 1e-13

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            matmul(np.eye(4), np.ones((3, 3)))


class TestUnitarity:
    def test_hadamard(self):
        assert is_unitary(hadamard())

    def test_identity(self):
        assert is_unitary(np.eye(7))

    def test_scaled_identity_is_not(self):
        assert not is_unitary(2.0 * np.eye(2))

    def test_closure_under_product(self):
        rng = np.random.default_rng(7)
        for n_qubits in (1, 2, 3, 4):  # dims up to 16
            for _ in range(10):
                a = random_structured_unitary(n_qubits, rng)
                b = random_structured_unitary(n_qubits, rng)
                assert is_unitary(matmul(a, b))


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
                assert is_unitary(u)
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
        got = state_after_iterations(self.INST, 0).amplitudes
        assert np.array_equal(got, uniform_superposition(2).amplitudes)

    def test_first_power_is_itself(self):
        want = grover_operator(self.INST) @ uniform_superposition(2).amplitudes
        assert np.array_equal(state_after_iterations(self.INST, 1).amplitudes, want)

    def test_square_matches_matmul(self):
        g = grover_operator(self.INST)
        assert np.array_equal(np.linalg.matrix_power(g, 2), matmul(g, g))

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            state_after_iterations(self.INST, -1)


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
            make_qstate(np.array([1.0, np.inf]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            unitarity_residual(np.ones((2, 3)))

    def test_unitarity_residual_of_hadamard(self):
        assert unitarity_residual(hadamard()) < 1e-15
