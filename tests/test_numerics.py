"""Tests for the dense matrix helpers and the state-vector container."""

import numpy as np
import pytest

from qudit_qft import (
    StateVector,
    adjoint,
    build_qft_circuit,
    chrestenson_gate,
    circuit_to_matrix,
    is_unitary,
    kron,
    matmul,
    max_entry_distance,
    walsh_hadamard_gate,
)
from qudit_qft import numerics
from qudit_qft.numerics import check_params, unitarity_residual

RNG = np.random.default_rng(20250810)


def random_matrix(n: int) -> np.ndarray:
    return RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))


class TestAdjoint:
    def test_base3_numerator_pattern(self):
        # conjugating the base-3 root swaps a and a**2 off the first row/column
        a = np.exp(-2j * np.pi / 3)
        numerator = np.array([[1, 1, 1], [1, a, a**2], [1, a**2, a]])
        expected = np.array(
            [[1, 1, 1], [1, np.conj(a), a], [1, a, np.conj(a)]]
        )
        np.testing.assert_allclose(adjoint(numerator), expected, atol=1e-15)

    def test_identity_fixed(self):
        eye = np.eye(5, dtype=complex)
        np.testing.assert_array_equal(adjoint(eye), eye)

    def test_involution(self):
        m = random_matrix(4)
        np.testing.assert_array_equal(adjoint(adjoint(m)), m)

    def test_transposes_dimensions(self):
        m = RNG.normal(size=(2, 3)) + 0j
        assert adjoint(m).shape == (3, 2)


class TestKron:
    def test_identity_blocks(self):
        np.testing.assert_array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_chrestenson_square_matches_block_form(self):
        gate = chrestenson_gate(3)
        a = np.exp(-2j * np.pi / 3)
        blocks = np.block(
            [
                [gate, gate, gate],
                [gate, a * gate, a**2 * gate],
                [gate, a**2 * gate, a * gate],
            ]
        ) / np.sqrt(3)
        np.testing.assert_allclose(kron(gate, gate), blocks, atol=1e-14)

    def test_walsh_pair_on_basis_zero_is_uniform(self):
        w = walsh_hadamard_gate()
        basis0 = np.zeros(4, dtype=complex)
        basis0[0] = 1.0
        np.testing.assert_allclose(kron(w, w) @ basis0, np.full(4, 0.5), atol=1e-15)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            kron(np.ones((2, 3)), np.eye(2))

    def test_associative(self):
        a, b, c = random_matrix(2), random_matrix(3), random_matrix(2)
        left = kron(kron(a, b), c)
        right = kron(a, kron(b, c))
        assert max_entry_distance(left, right) < 1e-12


class TestMatmul:
    def test_chrestenson_times_adjoint_is_identity(self):
        gate = chrestenson_gate(3)
        assert max_entry_distance(matmul(gate, adjoint(gate)), np.eye(3)) < 1e-12

    def test_identity_neutral(self):
        m = random_matrix(4)
        np.testing.assert_allclose(matmul(m, np.eye(4)), m, atol=1e-15)

    def test_walsh_is_involutory(self):
        w = walsh_hadamard_gate()
        assert max_entry_distance(matmul(w, w), np.eye(2)) < 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            matmul(np.eye(2), np.eye(3))


class TestIsUnitary:
    def test_chrestenson(self):
        assert is_unitary(chrestenson_gate(3), 1e-10)

    def test_identity_tight_tolerance(self):
        assert is_unitary(np.eye(4), 1e-12)

    def test_all_ones_is_not(self):
        assert not is_unitary(np.ones((2, 2)), 1e-10)

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError):
            is_unitary(np.eye(2), 0.0)


def full_product_residual(a: np.ndarray) -> float:
    return float(np.abs(a @ a.conj().T - np.eye(len(a))).max())


class TestUnitarityResidual:
    # One-row blocks are left out here: BLAS forms their 1 x 1 products as
    # dot products, rounded differently, and at (3, 4) that moves the
    # residual itself (2.3e-15) to 4.4e-16.  They are covered below.
    @pytest.mark.parametrize("q,n", [(2, 6), (3, 4), (5, 3)])
    @pytest.mark.parametrize("block_rows", [7, 16, 256])
    def test_equals_the_full_product_residual(self, q, n, block_rows, monkeypatch):
        monkeypatch.setattr(numerics, "BLOCK_ROWS", block_rows)
        matrix = circuit_to_matrix(build_qft_circuit(q, n))
        blocked = unitarity_residual(matrix)
        assert abs(blocked - full_product_residual(matrix)) <= 1e-15

    @pytest.mark.parametrize("block_rows", [1, 7, 16, 256])
    def test_finds_the_largest_entry_in_any_block(self, block_rows, monkeypatch):
        # a non-unitary matrix, so every Gram entry counts; each row of
        # G = a a^H below the diagonal mirrors one above it
        monkeypatch.setattr(numerics, "BLOCK_ROWS", block_rows)
        a = random_matrix(45)
        assert abs(unitarity_residual(a) - full_product_residual(a)) <= (
            1e-12 * full_product_residual(a))

    @pytest.mark.parametrize("index", [0, 1, 2, 3])
    def test_nan_in_any_block_is_not_unitary(self, index, monkeypatch):
        # one-row blocks: the NaN sits in the first block or a later one
        monkeypatch.setattr(numerics, "BLOCK_ROWS", 1)
        a = np.eye(2, dtype=complex)
        a.flat[index] = np.nan
        assert np.isnan(unitarity_residual(a))
        assert not is_unitary(a)

    def test_nan_in_the_last_default_block_is_not_unitary(self):
        a = np.eye(2 * numerics.BLOCK_ROWS, dtype=complex)
        a[-1, -1] = np.nan
        assert not is_unitary(a)


class TestMaxEntryDistance:
    def test_self_distance_zero(self):
        m = random_matrix(3)
        assert max_entry_distance(m, m) == 0.0

    def test_unpruned_build_is_bitwise_exact(self):
        # keep_depth >= digits keeps every gate, so the two compilations run
        # the identical arithmetic
        exact = circuit_to_matrix(build_qft_circuit(3, 3))
        kept = circuit_to_matrix(build_qft_circuit(3, 3, keep_depth=3))
        assert max_entry_distance(exact, kept) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            max_entry_distance(chrestenson_gate(3), walsh_hadamard_gate())


class TestCheckParams:
    @pytest.mark.parametrize("params,message", [
        ({"radix": 1, "digits": 0}, "radix must be at least 2, got 1"),
        ({"radix": 2, "digits": 0}, "digits must be at least 1, got 0"),
        ({"radix": 3, "digits": 2, "keep_depth": 0}, "keep_depth must be at least 1, got 0"),
        ({"dropped_count": -1}, "dropped_count must be at least 0, got -1"),
        ({"tolerance": float("nan")}, "tolerance must be at least 0, got nan"),
    ])
    def test_names_the_first_parameter_out_of_range(self, params, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_params(**params)

    def test_least_values_and_none_pass(self):
        check_params(radix=2, digits=1, keep_depth=None, dropped_count=0, tolerance=0.0)


class TestStateVector:
    def test_basis_state(self):
        state = StateVector.basis(3, 2, 5)
        assert state.dim == 9
        assert state.amplitudes[5] == 1.0
        assert np.count_nonzero(state.amplitudes) == 1

    def test_norm_enforced(self):
        with pytest.raises(ValueError, match="norm"):
            StateVector(2, 1, np.array([1.0, 1.0]))

    def test_length_enforced(self):
        with pytest.raises(ValueError):
            StateVector(2, 2, np.array([1.0, 0.0]))

    def test_finiteness_enforced(self):
        with pytest.raises(ValueError, match="finite"):
            StateVector(2, 1, np.array([np.nan, 0.0]))

    def test_basis_index_range(self):
        with pytest.raises(ValueError):
            StateVector.basis(2, 2, 4)

    def test_amplitudes_read_only(self):
        state = StateVector.basis(2, 1, 0)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    def test_radix_and_digits_validated(self):
        with pytest.raises(ValueError):
            StateVector.basis(1, 2, 0)
        with pytest.raises(ValueError):
            StateVector.basis(2, 0, 0)
