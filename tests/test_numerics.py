"""Tests for the dense matrix helpers and the state-vector container."""

import numpy as np
import pytest

from qudit_qft import (
    StateVector,
    build_qft_circuit,
    build_walsh_hadamard_transform_circuit,
    chrestenson_gate,
    chrestenson_transform_matrix,
    circuit_to_matrix,
    max_entry_distance,
    walsh_hadamard_gate,
)
from qudit_qft import numerics
from qudit_qft.circuit import _product_halves
from qudit_qft.numerics import check_params, product_unitarity_residual, unitarity_residual

RNG = np.random.default_rng(20250810)


def random_matrix(n: int) -> np.ndarray:
    return RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))


class TestAdjoint:
    """The positive-sign variants of the gates, their adjoints."""

    def test_base3_numerator_pattern(self):
        # conjugating the base-3 root swaps a and a**2 off the first row/column
        a = np.exp(-2j * np.pi / 3)
        expected = np.array(
            [[1, 1, 1], [1, np.conj(a), a], [1, a, np.conj(a)]]
        )
        numerator = chrestenson_gate(3) * np.sqrt(3)
        np.testing.assert_allclose(numerator.conj().T, expected, atol=1e-15)


class TestKron:
    """Kronecker products of the gates: the multi-digit transforms."""

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
        np.testing.assert_allclose(chrestenson_transform_matrix(3, 2), blocks, atol=1e-14)

    def test_walsh_pair_on_basis_zero_is_uniform(self):
        w = walsh_hadamard_gate()
        basis0 = np.zeros(4, dtype=complex)
        basis0[0] = 1.0
        np.testing.assert_allclose(np.kron(w, w) @ basis0, np.full(4, 0.5), atol=1e-15)


class TestMatmul:
    """Products of the gates."""

    def test_chrestenson_times_adjoint_is_identity(self):
        gate = chrestenson_gate(3)
        assert max_entry_distance(gate @ gate.conj().T, np.eye(3)) < 1e-12

    def test_walsh_is_involutory(self):
        w = walsh_hadamard_gate()
        assert max_entry_distance(w @ w, np.eye(2)) < 1e-15


class TestIsUnitary:
    """Unitarity as ``unitarity_residual(a) <= tol``."""

    def test_chrestenson(self):
        assert unitarity_residual(chrestenson_gate(3)) <= 1e-10

    def test_identity_tight_tolerance(self):
        assert unitarity_residual(np.eye(4)) <= 1e-12

    def test_all_ones_is_not(self):
        assert not unitarity_residual(np.ones((2, 2))) <= 1e-10


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
        assert not unitarity_residual(a) <= 1e-10

    def test_nan_in_the_last_default_block_is_not_unitary(self):
        a = np.eye(2 * numerics.BLOCK_ROWS, dtype=complex)
        a[-1, -1] = np.nan
        assert not unitarity_residual(a) <= 1e-10


def periodic_product(p: int, r: int):
    """Random ``(left, right)`` halves of a ``(p*r, p*r)`` product matrix
    whose left columns repeat with period p, and that matrix."""
    left = np.tile(random_matrix(p), r)
    right = RNG.normal(size=(r, p * r)) + 1j * RNG.normal(size=(r, p * r))
    return left, right, (left[:, np.newaxis] * right).reshape(p * r, p * r)


class TestProductUnitarityResidual:
    @pytest.mark.parametrize("q,n", [(q, n) for n in range(2, 11) for q in range(2, 33)
                                     if q ** n <= 1024])
    def test_within_1e14_of_the_compiled_residual(self, q, n):
        circuit = build_qft_circuit(q, n)
        left, right = _product_halves(circuit, np.arange(q ** n))
        compiled = unitarity_residual(circuit_to_matrix(circuit))
        assert abs(product_unitarity_residual(left, right) - compiled) <= 1e-14

    @pytest.mark.parametrize("p,r", [(1, 3), (3, 1), (4, 5), (6, 6)])
    def test_finds_the_largest_entry_of_any_row(self, p, r):
        # a non-unitary matrix, so every Gram entry counts
        left, right, matrix = periodic_product(p, r)
        full = full_product_residual(matrix)
        assert abs(product_unitarity_residual(left, right) - full) <= 1e-12 * full

    @pytest.mark.parametrize("half,index", [("left", (0, 1)), ("left", (3, 0)),
                                            ("right", (0, 0)), ("right", (4, 19))])
    def test_nan_anywhere_is_nan(self, half, index):
        left, right, _ = periodic_product(4, 5)
        if half == "left":
            left[index[0], index[1]::4] = np.nan  # in every period
        else:
            right[index] = np.nan
        assert np.isnan(product_unitarity_residual(left, right))

    def test_refuses_left_columns_that_do_not_repeat(self):
        # the Walsh-Hadamard circuit does not reverse its digits, so its
        # left half holds the slots of the most significant input digits
        circuit = build_walsh_hadamard_transform_circuit(2, 4)
        left, right = _product_halves(circuit, np.arange(16))
        with pytest.raises(ValueError, match="do not repeat with period 4"):
            product_unitarity_residual(left, right)
        # a NaN in one period only breaks the repetition too
        left, right, _ = periodic_product(4, 5)
        left[0, 1] = np.nan
        with pytest.raises(ValueError, match="do not repeat"):
            product_unitarity_residual(left, right)


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


def frozen_state_array(dim: int) -> np.ndarray:
    amps = np.zeros(dim, dtype=np.complex128)
    amps[1] = 1.0
    amps.setflags(write=False)
    return amps


class TestStateVectorSharing:
    """An array nothing can write to is shared; anything else is copied."""

    def test_frozen_complex_array_is_shared(self):
        amps = frozen_state_array(4)
        state = StateVector(2, 2, amps)
        assert np.shares_memory(state.amplitudes, amps)

    def test_frozen_view_of_frozen_base_is_shared(self):
        base = np.zeros((4, 2), dtype=np.complex128)
        base[1, 0] = 1.0
        base.setflags(write=False)
        state = StateVector(2, 2, base[:, 0])
        assert np.shares_memory(state.amplitudes, base)

    def test_writable_array_is_copied(self):
        amps = np.zeros(4, dtype=np.complex128)
        amps[1] = 1.0
        state = StateVector(2, 2, amps)
        assert not np.shares_memory(state.amplitudes, amps)
        amps[1], amps[2] = 0.0, 1.0
        assert state.amplitudes[1] == 1.0 and state.amplitudes[2] == 0.0

    def test_read_only_view_of_writable_base_is_copied(self):
        base = np.zeros(4, dtype=np.complex128)
        base[1] = 1.0
        view = base[:]
        view.setflags(write=False)
        state = StateVector(2, 2, view)
        assert not np.shares_memory(state.amplitudes, base)
        base[1], base[2] = 0.0, 1.0
        assert state.amplitudes[1] == 1.0 and state.amplitudes[2] == 0.0

    @pytest.mark.parametrize("amps", [
        np.array([0.0, 1.0, 0.0, 0.0]),  # real
        np.array([0, 1, 0, 0], dtype=np.complex64),
        [0, 1, 0, 0],
    ], ids=["float64", "complex64", "list"])
    def test_other_inputs_are_copied_to_frozen_complex128(self, amps):
        if isinstance(amps, np.ndarray):
            amps.setflags(write=False)
        state = StateVector(2, 2, amps)
        assert state.amplitudes.dtype == np.complex128
        assert not state.amplitudes.flags.writeable
        assert not np.shares_memory(state.amplitudes, np.asarray(amps))
        assert np.array_equal(state.amplitudes, [0, 1, 0, 0])


class TestStateVectorChecks:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan),
                                     complex(0, np.inf), complex(0, -np.inf)],
                             ids=["nan", "inf", "-inf", "nan-imag", "inf-imag", "-inf-imag"])
    def test_non_finite_entry_is_named(self, bad):
        amps = np.array([1.0, 0.0, bad, 0.0], dtype=np.complex128)
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            StateVector(2, 2, amps)

    def test_huge_finite_entry_gets_the_norm_message(self):
        # 1e200 squared overflows, but the entry itself is finite
        with pytest.raises(ValueError, match=r"state norm\*\*2 is inf, expected 1"):
            StateVector(2, 1, np.array([1e200, 0.0]))

    def test_wrong_length_gets_the_shape_message(self):
        with pytest.raises(ValueError, match=r"expected 4 amplitudes, got shape \(3,\)"):
            StateVector(2, 2, frozen_state_array(3))

    def test_two_dimensional_input_gets_the_shape_message(self):
        with pytest.raises(ValueError, match=r"expected 4 amplitudes, got shape \(2, 2\)"):
            StateVector(2, 2, np.eye(2, dtype=np.complex128))

    def test_norm_tolerance_is_unchanged(self):
        amps = np.array([np.sqrt(1 + 0.5e-10), 0.0])
        StateVector(2, 1, amps)
        with pytest.raises(ValueError, match="norm"):
            StateVector(2, 1, np.array([np.sqrt(1 + 2e-10), 0.0]))
