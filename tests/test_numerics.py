"""Tests for the dense matrix helpers and the state-vector container."""

import pickle
import threading

import numpy as np
import pytest

from qudit_qft import (
    StateVector,
    build_qft_circuit,
    chrestenson_gate,
    chrestenson_transform_matrix,
    circuit_to_matrix,
    max_entry_distance,
    walsh_hadamard_gate,
)
from qudit_qft import checks
from qudit_qft.checks import product_unitarity_residual, unitarity_residual
from qudit_qft.circuit import _product_halves, _right_shape
from qudit_qft.numerics import check_params

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
        monkeypatch.setattr(checks, "BLOCK_ROWS", block_rows)
        matrix = circuit_to_matrix(build_qft_circuit(q, n))
        blocked = unitarity_residual(matrix)
        assert abs(blocked - full_product_residual(matrix)) <= 1e-15

    @pytest.mark.parametrize("block_rows", [1, 7, 16, 256])
    def test_finds_the_largest_entry_in_any_block(self, block_rows, monkeypatch):
        # a non-unitary matrix, so every Gram entry counts; each row of
        # G = a a^H below the diagonal mirrors one above it
        monkeypatch.setattr(checks, "BLOCK_ROWS", block_rows)
        a = random_matrix(45)
        assert abs(unitarity_residual(a) - full_product_residual(a)) <= (
            1e-12 * full_product_residual(a))

    @pytest.mark.parametrize("index", [0, 1, 2, 3])
    def test_nan_in_any_block_is_not_unitary(self, index, monkeypatch):
        # one-row blocks: the NaN sits in the first block or a later one
        monkeypatch.setattr(checks, "BLOCK_ROWS", 1)
        a = np.eye(2, dtype=complex)
        a.flat[index] = np.nan
        assert np.isnan(unitarity_residual(a))
        assert not unitarity_residual(a) <= 1e-10

    def test_nan_in_the_last_default_block_is_not_unitary(self):
        a = np.eye(2 * checks.BLOCK_ROWS, dtype=complex)
        a[-1, -1] = np.nan
        assert not unitarity_residual(a) <= 1e-10

    def test_refuses_an_empty_matrix(self):
        # it has no block to deal, where it once died in _parallel_max
        for residual in (unitarity_residual,
                         lambda a: product_unitarity_residual(a, (np.eye(2),))):
            with pytest.raises(ValueError, match=r"at least one row, got shape \(0, 0\)"):
                residual(np.zeros((0, 0), dtype=complex))

    @pytest.mark.parametrize("workers", [0, -1])
    def test_takes_at_least_one_worker(self, workers):
        matrix = circuit_to_matrix(build_qft_circuit(3, 3))
        assert same_bits(unitarity_residual(matrix, workers), unitarity_residual(matrix))


def periodic_product(p: int, r: int):
    """Random ``(left, right)`` halves of a ``(p*r, p*r)`` product matrix,
    ``left`` the ``(p, p)`` period block of a left half whose columns
    repeat with period p, and that matrix."""
    left = random_matrix(p)
    right = RNG.normal(size=(r, p * r)) + 1j * RNG.normal(size=(r, p * r))
    return left, right, (np.tile(left, r)[:, np.newaxis] * right).reshape(p * r, p * r)


def all_columns_residual(left, right) -> float:
    """``product_unitarity_residual`` over every Gram column: one GEMM per
    row of ``left`` against all ``r**2`` columns ``(j, l)``, none skipped
    by a bound, with ``right`` the materialized right half.  The form the
    pruned residual must equal bit for bit."""
    p, r = len(left), len(right)
    low = left[:, :p]
    # each R_s a contiguous copy of the residue columns s::p, as the
    # residual forms it: numpy 1.24's matmul takes another loop for an
    # operand without unit stride
    gram = np.empty((p, r * r), np.complex128)
    for s in range(p):
        part = np.ascontiguousarray(right[:, s::p])
        gram[s] = (part @ part.conj().T).ravel()
    maxima = []
    for i in range(p):
        block = ((low[i] * low[i:].conj()) @ gram).reshape(p - i, r, r)
        block[0][np.diag_indices(r)] -= 1
        maxima.append(np.abs(block).max())
    return float(np.max(maxima))


def same_bits(a: float, b: float) -> bool:
    return np.float64(a).view(np.uint64) == np.float64(b).view(np.uint64)


QFT_SIZES = [(q, n) for n in range(2, 11) for q in range(2, 33) if q ** n <= 1024]
# the splits verify runs at the cap: p = r = 64 three ways, the largest
# right half at (16, 3), and the uneven p = 27, r = 81 at (3, 7)
LARGE_SIZES = [(2, 12), (16, 3), (4, 6), (64, 2), (3, 7)]


@pytest.fixture
def column_passes(monkeypatch):
    """The number of Gram columns of each pass of the residual, in order."""
    passes = []
    deviation = checks._gram_deviation

    def recording(low, gram, cols, r):
        passes.append(len(cols))
        return deviation(low, gram, cols, r)

    monkeypatch.setattr(checks, "_gram_deviation", recording)
    return passes


def qft_halves(q: int, n: int):
    return _product_halves(build_qft_circuit(q, n), np.arange(q ** n))


def whole_right(full_halves, q: int, n: int) -> np.ndarray:
    """The QFT's right half materialized, as the compile builds it."""
    return full_halves(build_qft_circuit(q, n), np.arange(q ** n))[1]


class TestProductUnitarityResidual:
    @pytest.mark.parametrize("q,n", QFT_SIZES)
    def test_within_1e14_of_the_compiled_residual(self, q, n):
        circuit = build_qft_circuit(q, n)
        left, right = _product_halves(circuit, np.arange(q ** n))
        compiled = unitarity_residual(circuit_to_matrix(circuit))
        assert abs(product_unitarity_residual(left, right) - compiled) <= 1e-14

    @pytest.mark.parametrize("q,n", QFT_SIZES + LARGE_SIZES)
    def test_qft_halves_equal_all_columns_bit_for_bit(self, q, n, full_halves):
        # the right half's residue columns are multiplied out from its
        # operands; the reference reads them from the materialized half
        left, right = qft_halves(q, n)
        residual = product_unitarity_residual(left, right)
        assert same_bits(residual, all_columns_residual(left, whole_right(full_halves, q, n)))

    @pytest.mark.parametrize("q,n", [(2, 5), (3, 4), (5, 3), (5, 5), *LARGE_SIZES])
    def test_operands_give_the_materialized_halfs_residual(self, q, n, full_halves):
        # R_s multiplied out from the operands, against R_s read from the
        # materialized half, as a right half of one factor
        left, right = qft_halves(q, n)
        whole = (whole_right(full_halves, q, n),)
        for workers in (1, 2):
            assert same_bits(product_unitarity_residual(left, right, workers),
                             product_unitarity_residual(left, whole, workers))

    @pytest.mark.parametrize("q,n", LARGE_SIZES)
    def test_large_qft_halves_skip_every_off_diagonal_column(self, q, n, column_passes):
        # the bound of a Gram column (j, l) with j != l reads at most 0.41 of
        # the largest entry of the columns (j, j) at these sizes
        left, right = qft_halves(q, n)
        product_unitarity_residual(left, right)
        assert column_passes == [_right_shape(right)[0], 0]

    @pytest.mark.parametrize("change,kept", [
        # a modulus: the largest entry is on a diagonal column (j, j)
        ("nudge", 0),
        # a phase leaves every H_s[j, j] but moves H_s[5, l] and H_s[l, 5]
        ("twist", 2 * 63),
        ("noise", 64 * 63),
        ("nan", 64 * 63),
    ])
    def test_changed_halves_keep_the_columns_that_can_hold_the_maximum(
            self, change, kept, column_passes, full_halves):
        # the materialized right half, changed, as a right half of one factor
        left, _ = qft_halves(2, 12)
        right = whole_right(full_halves, 2, 12)
        if change == "nudge":
            right[5, 100] *= 1 + 1e-9
        elif change == "twist":
            right[5, 100] *= np.exp(1e-9j)
        elif change == "noise":
            rng = np.random.default_rng(7)
            right += 1e-12 * (rng.normal(size=right.shape) + 1j * rng.normal(size=right.shape))
        else:
            right[7, 33] = np.nan
        residual = product_unitarity_residual(left, (right,))
        assert column_passes == [64, kept]
        expected = all_columns_residual(left, right)
        if change == "nan":
            assert np.isnan(residual) and np.isnan(expected)
        else:
            assert same_bits(residual, expected)
            # far above the QFT's 2e-15, so the change is what is measured
            assert residual > 1e-13

    def test_peak_memory_holds_the_gram_matrices_and_one_slice(self, traced_peak):
        # at (16, 3), p = 16 and r = 256: the 16 Gram matrices took 16 MiB
        # together; one at a time, one buffer holds each (1 MiB).  A
        # conjugate copy of all of right would take 16 MiB more, and the
        # GEMM blocks (p - i, r**2) of every column peaked at 47 MiB
        left, right = qft_halves(16, 3)
        _, peak = traced_peak(product_unitarity_residual, left, right)
        assert peak <= 4 * 2 ** 20

    @pytest.mark.parametrize("q,n", [(3, 7), (5, 5), (6, 4), (7, 3), (2, 12), (16, 3)])
    def test_period_block_equals_the_whole_left_half(self, q, n, full_halves, monkeypatch):
        # the old form read the whole left half's first p columns; the
        # Gram matrices are formed once each, as no off-diagonal column is
        # kept
        circuit = build_qft_circuit(q, n)
        whole, right = full_halves(circuit, np.arange(q ** n))
        left, operands = qft_halves(q, n)
        passes = []
        gram_columns = checks._gram_columns
        monkeypatch.setattr(checks, "_gram_columns",
                            lambda *args: passes.append(len(args[2])) or gram_columns(*args))
        residual = product_unitarity_residual(left, operands)
        assert same_bits(residual, all_columns_residual(whole, right))
        assert passes == [len(right)]

    def test_perturbed_right_forms_the_gram_matrices_again(self, full_halves, monkeypatch):
        # at the uneven period p = 27 (3, 7), a phase moves H_s[5, l] and
        # H_s[l, 5], so the second pass keeps columns and forms every H_s
        # again by the same product: the all-columns result, bit for bit
        circuit = build_qft_circuit(3, 7)
        whole, right = full_halves(circuit, np.arange(3 ** 7))
        right[5, 100] *= np.exp(1e-9j)
        left, _ = qft_halves(3, 7)
        products = []
        matmul = np.matmul

        def counted(*args, **kwargs):
            products.append(args[0].shape)
            return matmul(*args, **kwargs)

        monkeypatch.setattr(checks.np, "matmul", counted)
        residual = product_unitarity_residual(left, (right,))
        monkeypatch.undo()
        assert products == [(81, 81)] * 54  # 27 per pass
        assert same_bits(residual, all_columns_residual(whole, right))
        assert residual > 1e-13

    def test_single_factor_left_is_one_ones_entry(self, monkeypatch):
        # at (4096, 1) the period block is 1 x 1, and the residual is the
        # blocked one of the right half's one factor, called on its rows
        # themselves, not on a copy
        left, right = qft_halves(4096, 1)
        assert left.shape == (1, 1) and left[0, 0] == 1 and len(right) == 1
        calls = []
        monkeypatch.setattr(checks, "unitarity_residual",
                            lambda a, workers: calls.append(a) or 0.5)
        assert product_unitarity_residual(left, right) == 0.5
        assert len(calls) == 1 and calls[0].base is right[0].base
        assert calls[0].shape == right[0].shape

    @pytest.mark.parametrize("p,r", [(1, 3), (3, 1), (4, 5), (6, 6)])
    def test_finds_the_largest_entry_of_any_row(self, p, r):
        # a non-unitary matrix, so every Gram entry counts
        left, right, matrix = periodic_product(p, r)
        full = full_product_residual(matrix)
        assert abs(product_unitarity_residual(left, (right,)) - full) <= 1e-12 * full

    @pytest.mark.parametrize("half,index", [("left", (0, 1)), ("left", (3, 0)),
                                            ("right", (0, 0)), ("right", (4, 19))])
    def test_nan_anywhere_is_nan(self, half, index):
        left, right, _ = periodic_product(4, 5)
        if half == "left":
            left[index] = np.nan  # in every period of the whole left half
        else:
            right[index] = np.nan
        assert np.isnan(product_unitarity_residual(left, (right,)))

    @pytest.mark.parametrize("q", [2, 7, 600])
    def test_ones_row_takes_the_blocked_residual_of_right(self, q, monkeypatch):
        # at n = 1 the left half is one row of ones, so M is the right
        # half's one factor itself
        left, right = _product_halves(build_qft_circuit(q, 1), np.arange(q))
        blocked = unitarity_residual(right[0])
        calls = []

        def recording(a, workers):
            calls.append(a)
            return unitarity_residual(a)

        monkeypatch.setattr(checks, "unitarity_residual", recording)
        residual = product_unitarity_residual(left, right)
        assert len(calls) == 1 and calls[0].base is right[0].base
        assert np.float64(residual).view(np.uint64) == np.float64(blocked).view(np.uint64)

    def test_one_row_that_is_not_ones_keeps_the_kronecker_form(self, monkeypatch):
        left, right = _product_halves(build_qft_circuit(7, 1), np.arange(7))
        left = np.exp(0.3j) * left
        expected = unitarity_residual(left[0] * right[0])
        monkeypatch.setattr(checks, "unitarity_residual", None)  # never called
        assert abs(product_unitarity_residual(left, right) - expected) <= 1e-15

    def test_refuses_a_left_half_that_is_not_its_period_block(self):
        # the repetition itself is checked where the period block is taken,
        # in circuit._product_halves; the residual reads the block
        left, right, _ = periodic_product(4, 5)
        with pytest.raises(ValueError, match="expected a square matrix"):
            product_unitarity_residual(np.tile(left, 5), (right,))


class TestResidualWorkers:
    """The residual's row blocks dealt to 1, 2 and 3 threads: the same bits."""

    # 300 and 1000 end in a partial block, 600 in two whole ones and a part
    @pytest.mark.parametrize("q", [300, 600, 1000])
    def test_blocked_residual_of_the_right_half(self, q):
        _, (right,) = qft_halves(q, 1)
        one = unitarity_residual(right, 1)
        assert all(same_bits(unitarity_residual(right, w), one) for w in (2, 3))

    def test_workers_hold_at_most_the_block_budget(self, monkeypatch):
        # each worker holds one conjugated row block, 16 MiB at the cap, and
        # RESIDUAL_BLOCK_BYTES holds four
        _, (right,) = qft_halves(4096, 1)
        dealt = []
        monkeypatch.setattr(checks, "_parallel_max",
                            lambda work, items, workers: dealt.append(workers) or 0.0)
        for workers in (1, 2, 4, 16):
            unitarity_residual(right, workers)
        assert dealt == [1, 2, 4, 4]

    @pytest.mark.parametrize("q,n", [(3, 7), (16, 3)])
    def test_product_residual(self, q, n):
        left, right = qft_halves(q, n)
        one = product_unitarity_residual(left, right, 1)
        assert all(same_bits(product_unitarity_residual(left, right, w), one)
                   for w in (2, 3))


class TestParallelMax:
    def test_deals_items_round_robin_with_the_caller_as_worker_0(self):
        caller, parts = threading.current_thread(), []

        def work(part):
            parts.append((threading.current_thread() is caller, list(part)))
            return max(part)

        assert checks._parallel_max(work, range(7), 3) == 6
        assert sorted(parts) == [(False, [1, 4]), (False, [2, 5]), (True, [0, 3, 6])]
        parts.clear()
        assert checks._parallel_max(work, range(2), 8) == 1
        assert sorted(parts) == [(False, [1]), (True, [0])]

    @pytest.mark.parametrize("worker", [0, 1, 2])
    def test_a_nan_from_any_worker_is_nan(self, worker):
        assert np.isnan(checks._parallel_max(
            lambda part: np.nan if worker in part else 1.0, range(3), 3))

    @pytest.mark.parametrize("worker", [0, 1, 2])
    def test_a_workers_exception_is_raised_after_every_worker_ended(self, worker):
        threads = threading.active_count()

        def work(part):
            if worker in part:
                raise RuntimeError(f"worker {worker} failed")
            return 0.0

        with pytest.raises(RuntimeError, match=f"worker {worker} failed"):
            checks._parallel_max(work, range(3), 3)
        assert threading.active_count() == threads


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
        # every parameter but the tolerance is an integer: 2.5 >= 2 is refused
        ({"radix": 2.5}, r"radix must be an integer, got 2\.5"),
        ({"radix": 3, "digits": 2.0}, r"digits must be an integer, got 2\.0"),
        ({"keep_depth": 1.5}, r"keep_depth must be an integer, got 1\.5"),
        ({"denom_exp": 2.5}, r"denom_exp must be an integer, got 2\.5"),
        ({"terms": 3.0}, r"terms must be an integer, got 3\.0"),
        ({"dropped_count": 0.5}, r"dropped_count must be an integer, got 0\.5"),
        ({"target": 1.5}, r"target must be an integer, got 1\.5"),
        ({"control": float("nan")}, "control must be an integer, got nan"),
    ])
    def test_names_the_first_parameter_out_of_range(self, params, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_params(**params)

    def test_least_values_and_none_pass(self):
        check_params(radix=2, digits=1, keep_depth=None, dropped_count=0, tolerance=0.0)
        # Python and numpy integers pass, and a float tolerance
        check_params(radix=np.int64(2), digits=np.int32(1), keep_depth=np.uint8(1),
                     denom_exp=np.int16(1), terms=1, dropped_count=np.int64(0), target=0,
                     control=np.intp(0), tolerance=1e-10)


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

    def test_an_immutable_value_of_its_fields(self):
        amps = frozen_state_array(4)
        state = StateVector(radix=2, digits=2, amplitudes=amps)
        assert repr(state) == ("StateVector(radix=2, digits=2, "
                               "amplitudes=array([0.+0.j, 1.+0.j, 0.+0.j, 0.+0.j]))")
        # field-tuple equality: the shared array compares by identity
        assert state == StateVector(2, 2, amps)
        assert state != (2, 2, amps)
        with pytest.raises(TypeError, match="unhashable"):
            hash(state)
        with pytest.raises(AttributeError, match="cannot assign to field 'amplitudes'"):
            state.amplitudes = amps
        with pytest.raises(AttributeError):
            state.extra = 1

    def test_a_pickled_state_is_checked_again(self):
        state = pickle.loads(pickle.dumps(StateVector.basis(3, 2, 5)))
        assert state.amplitudes[5] == 1.0
        assert not state.amplitudes.flags.writeable


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
