"""Tests for the circuit IR, the builders, the simulators, and compilation."""

import re
from functools import reduce

import numpy as np
import pytest

from qudit_qft import (
    CHRESTENSON,
    DEFAULT_DIM_CAP,
    CONTROLLED_PHASE,
    Circuit,
    GateOp,
    StateVector,
    apply_circuit,
    build_qft_circuit,
    build_walsh_hadamard_transform_circuit,
    chrestenson_gate,
    chrestenson_transform_matrix,
    circuit_to_matrix,
    controlled_phase_matrix,
    dft_matrix,
    digit_reversal_perm,
    max_entry_distance,
    walsh_hadamard_gate,
)
from qudit_qft import circuit as circuit_module, kernels
from qudit_qft.circuit import (
    _along_digit,
    _basis_columns,
    _breaks_product,
    _product_halves,
    _row_blocks,
    _run_batch,
    _run_exponent,
    _run_product,
)
from qudit_qft.numerics import unitarity_residual

RNG = np.random.default_rng(55021)


class TestGateOpValidation:
    def test_control_equal_target_rejected(self):
        with pytest.raises(ValueError):
            GateOp.controlled_phase(1, 1, 2)

    def test_denominator_exponent_floor(self):
        with pytest.raises(ValueError):
            GateOp.controlled_phase(0, 1, 1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            GateOp("swap", 0)

    def test_chrestenson_carries_no_control(self):
        with pytest.raises(ValueError):
            GateOp(CHRESTENSON, 0, control=1)

    def test_circuit_rejects_out_of_range_digits(self):
        with pytest.raises(ValueError):
            Circuit(3, 2, (GateOp.chrestenson(2),))
        with pytest.raises(ValueError):
            Circuit(3, 2, (GateOp.controlled_phase(2, 0, 3),))

    def test_circuit_rejects_phase_exponents_beyond_int64(self):
        op = GateOp.controlled_phase(0, 2, 70)
        with pytest.raises(ValueError, match=r"denom_exp=70"):
            Circuit(2, 3, (op,))
        # the fused exponent sums stay below 2 * q**s, so q**s may reach 2**62
        with pytest.raises(ValueError):
            Circuit(2, 3, (GateOp.controlled_phase(0, 2, 63),))
        Circuit(2, 3, (GateOp.controlled_phase(0, 2, 62),))
        with pytest.raises(ValueError):
            Circuit(7, 3, (GateOp.controlled_phase(0, 2, 23),))
        Circuit(7, 3, (GateOp.controlled_phase(0, 2, 22),))
        # a huge exponent is refused without building radix**denom_exp
        with pytest.raises(ValueError, match=r"denom_exp=1000000000"):
            Circuit(2, 3, (GateOp.controlled_phase(0, 2, 10 ** 9),))

    def test_circuit_parameter_floors(self):
        with pytest.raises(ValueError):
            Circuit(1, 2)
        with pytest.raises(ValueError):
            Circuit(2, 0)


class TestQftBuilder:
    def test_single_digit_is_one_chrestenson(self):
        circuit = build_qft_circuit(3, 1)
        assert circuit.ops == (GateOp.chrestenson(0),)
        matrix = circuit_to_matrix(circuit)
        assert max_entry_distance(matrix, chrestenson_gate(3)) < 1e-12

    def test_three_digit_gate_sequence(self):
        circuit = build_qft_circuit(3, 3)
        assert circuit.ops == (
            GateOp.chrestenson(2),
            GateOp.controlled_phase(1, 2, 2),
            GateOp.controlled_phase(0, 2, 3),
            GateOp.chrestenson(1),
            GateOp.controlled_phase(0, 1, 2),
            GateOp.chrestenson(0),
        )
        assert circuit.reverse_output_digits

    def test_keep_depth_two_drops_one_gate(self):
        circuit = build_qft_circuit(3, 3, keep_depth=2)
        assert circuit.gate_count == 5
        assert GateOp.controlled_phase(0, 2, 3) not in circuit.ops
        assert GateOp.controlled_phase(1, 2, 2) in circuit.ops

    @pytest.mark.parametrize("q,n", [(2, 4), (3, 3), (5, 2), (7, 1)])
    def test_gate_counts(self, q, n):
        circuit = build_qft_circuit(q, n)
        assert circuit.gate_count == n * (n + 1) // 2
        assert sum(op.kind == CHRESTENSON for op in circuit.ops) == n

    def test_pruning_monotone(self):
        full = set(build_qft_circuit(3, 5).ops)
        previous = set()
        for depth in range(1, 6):
            current = set(build_qft_circuit(3, 5, keep_depth=depth).ops)
            assert previous <= current
            previous = current
        assert previous == full

    def test_keep_depth_at_width_is_exact(self):
        assert build_qft_circuit(2, 4, keep_depth=4).ops == build_qft_circuit(2, 4).ops

    def test_no_controlled_phase_ever_targets_digit_zero(self):
        for depth in (None, 1, 2, 3):
            for op in build_qft_circuit(3, 4, keep_depth=depth).ops:
                if op.kind == CONTROLLED_PHASE:
                    assert op.target != 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            build_qft_circuit(1, 2)
        with pytest.raises(ValueError):
            build_qft_circuit(2, 0)
        with pytest.raises(ValueError):
            build_qft_circuit(2, 2, keep_depth=0)


class TestWalshHadamardBuilder:
    def test_no_controlled_phases(self):
        circuit = build_walsh_hadamard_transform_circuit(2, 3)
        assert circuit.gate_count == 3
        assert all(op.kind == CHRESTENSON for op in circuit.ops)
        assert not circuit.reverse_output_digits

    def test_single_digit_matches_qft_build(self):
        assert (
            build_walsh_hadamard_transform_circuit(3, 1).ops
            == build_qft_circuit(3, 1).ops
        )

    def test_compiles_to_kron_power(self):
        matrix = circuit_to_matrix(build_walsh_hadamard_transform_circuit(3, 2))
        gate = chrestenson_gate(3)
        assert max_entry_distance(matrix, np.kron(gate, gate)) < 1e-12

    @pytest.mark.parametrize("q,n", [(2, 2), (2, 4), (3, 3), (4, 2)])
    def test_matches_transform_matrix(self, q, n):
        compiled = circuit_to_matrix(build_walsh_hadamard_transform_circuit(q, n))
        assert max_entry_distance(compiled, chrestenson_transform_matrix(q, n)) < 1e-12

    @pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (2, 3)])
    def test_differs_from_cyclic_transform(self, q, n):
        # the parallel-gate transform and the DFT over Z_{q**n} agree only at n=1
        gap = max_entry_distance(
            chrestenson_transform_matrix(q, n), dft_matrix(q ** n)
        )
        assert gap > 0.1


class TestDftMatrix:
    def test_base2_is_walsh(self):
        assert max_entry_distance(dft_matrix(2), walsh_hadamard_gate()) < 1e-15

    def test_base3_is_chrestenson(self):
        assert max_entry_distance(dft_matrix(3), chrestenson_gate(3)) < 1e-15

    def test_nine_point_row_one(self):
        w = np.exp(-2j * np.pi / 9)
        expected = w ** np.arange(9) / 3.0
        np.testing.assert_allclose(dft_matrix(9)[1], expected, atol=1e-14)

    def test_rejects_small_sizes(self):
        with pytest.raises(ValueError):
            dft_matrix(1)

    @pytest.mark.parametrize("rows", [slice(0, 16), slice(16, 32), slice(64, 96)])
    def test_row_blocks_are_bit_identical(self, rows):
        # the last block runs past row 80 and is cut there, as a slice is
        np.testing.assert_array_equal(dft_matrix(81, rows), dft_matrix(81)[rows])

    @pytest.mark.parametrize("t,rows", [
        (7, None), (81, None), (625, None),
        *((t, rows) for t in (2187, 3125, 4096)
          for rows in (slice(0, 64), slice(t // 2, t // 2 + 64), slice(t - 64, t))),
    ])
    def test_scaled_table_equals_the_scaled_gather(self, t, rows):
        # dft_matrix scales its t roots once; the reference scales the
        # gathered entries, as dft_matrix once did
        x = np.arange(t, dtype=np.int64)
        exponents = np.outer(x if rows is None else x[rows], x) % t
        expected = np.exp(-2j * np.pi * np.arange(t) / t)[exponents] / np.sqrt(t)
        assert np.array_equal(dft_matrix(t, rows).view(np.uint64), expected.view(np.uint64))


class TestChrestensonTransform:
    def test_single_digit(self):
        np.testing.assert_array_equal(
            chrestenson_transform_matrix(3, 1), chrestenson_gate(3)
        )

    @pytest.mark.parametrize("n", [2, 3])
    def test_recursive_block_form(self, n):
        a = np.exp(-2j * np.pi / 3)
        sub = chrestenson_transform_matrix(3, n - 1)
        expected = np.block(
            [
                [sub, sub, sub],
                [sub, a * sub, a**2 * sub],
                [sub, a**2 * sub, a * sub],
            ]
        ) / np.sqrt(3)
        assert max_entry_distance(chrestenson_transform_matrix(3, n), expected) < 1e-12

    def test_base2_two_digit_corner_entry(self):
        assert abs(chrestenson_transform_matrix(2, 2)[3, 3] - 0.5) < 1e-14

    def test_dimension_cap(self, monkeypatch):
        # sizes above the cap are refused before the gate is built
        def refuse(*args):
            raise AssertionError("the gate was built")

        monkeypatch.setattr(circuit_module, "chrestenson_gate", refuse)
        for q, n in [(2, 13), (4096, 2)]:
            with pytest.raises(ValueError, match=f"dimension {q ** n} exceeds cap"):
                chrestenson_transform_matrix(q, n)


class TestDigitReversal:
    def test_single_digit_identity(self):
        np.testing.assert_array_equal(digit_reversal_perm(5, 1), np.arange(5))

    def test_base3_two_digit_example(self):
        assert digit_reversal_perm(3, 2)[5] == 7

    @pytest.mark.parametrize("q,n", [(2, 4), (3, 3), (5, 2)])
    def test_involution(self, q, n):
        mapping = digit_reversal_perm(q, n)
        np.testing.assert_array_equal(mapping[mapping], np.arange(q ** n))

    @pytest.mark.parametrize("q,n", [(2, 1), (2, 6), (3, 4), (5, 3), (7, 2)])
    def test_matches_digit_formula(self, q, n):
        index = np.arange(q ** n)
        expected = sum(((index // q ** j) % q) * q ** (n - 1 - j) for j in range(n))
        np.testing.assert_array_equal(digit_reversal_perm(q, n), expected)

    def test_index_array_is_read_only_int64(self):
        perm = digit_reversal_perm(3, 2)
        assert perm.dtype == np.int64 and not perm.flags.writeable


class TestApplyCircuit:
    def test_walsh_on_basis_zero(self):
        out = apply_circuit(build_qft_circuit(2, 1), StateVector.basis(2, 1, 0))
        np.testing.assert_allclose(
            out.amplitudes, np.full(2, 1 / np.sqrt(2)), atol=1e-15
        )

    def test_chrestenson_on_basis_one(self):
        out = apply_circuit(build_qft_circuit(3, 1), StateVector.basis(3, 1, 1))
        a = np.exp(-2j * np.pi / 3)
        np.testing.assert_allclose(
            out.amplitudes, np.array([1.0, a, a**2]) / np.sqrt(3), atol=1e-14
        )

    def test_matches_dft_columns(self):
        circuit = build_qft_circuit(3, 2)
        oracle = dft_matrix(9)
        for x in range(9):
            out = apply_circuit(circuit, StateVector.basis(3, 2, x))
            np.testing.assert_allclose(out.amplitudes, oracle[:, x], atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_circuit(build_qft_circuit(3, 2), StateVector.basis(3, 3, 0))
        with pytest.raises(ValueError):
            apply_circuit(build_qft_circuit(3, 2), StateVector.basis(2, 2, 0))

    @pytest.mark.parametrize("q,n", [(2, 16), (3, 10), (5, 7)])
    def test_matches_fft_beyond_dense_cap(self, q, n):
        dim = q ** n
        assert dim > DEFAULT_DIM_CAP
        rng = np.random.default_rng(dim)
        raw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        state = StateVector(q, n, raw / np.linalg.norm(raw))
        out = apply_circuit(build_qft_circuit(q, n), state)
        expected = np.fft.fft(state.amplitudes, norm="ortho")
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-12

    def test_preserves_norm_on_random_state(self):
        raw = RNG.normal(size=81) + 1j * RNG.normal(size=81)
        state = StateVector(3, 4, raw / np.linalg.norm(raw))
        out = apply_circuit(build_qft_circuit(3, 4, keep_depth=2), state)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10

    def test_input_state_untouched(self):
        state = StateVector.basis(2, 2, 1)
        before = state.amplitudes.copy()
        apply_circuit(build_qft_circuit(2, 2), state)
        np.testing.assert_array_equal(state.amplitudes, before)

    def test_peak_memory_is_bounded(self, traced_peak):
        # the two simulator buffers, the largest fused phase table and its
        # lookup; the output state holds one of the buffers, not a copy
        state = StateVector.basis(2, 18, 5)
        apply_circuit(build_qft_circuit(2, 2), StateVector.basis(2, 2, 1))
        out, peak = traced_peak(apply_circuit, build_qft_circuit(2, 18), state)
        assert not out.amplitudes.flags.writeable
        assert peak <= 5 * state.amplitudes.nbytes


class TestCircuitToMatrix:
    @pytest.mark.parametrize(
        "q,n", [(2, 1), (2, 3), (2, 6), (3, 2), (3, 4), (4, 3), (5, 2)]
    )
    def test_qft_matches_dft_oracle(self, q, n):
        matrix = circuit_to_matrix(build_qft_circuit(q, n))
        assert max_entry_distance(matrix, dft_matrix(q ** n)) < 1e-10

    def test_empty_circuit_is_identity(self):
        matrix = circuit_to_matrix(Circuit(3, 2))
        np.testing.assert_array_equal(matrix, np.eye(9))

    def test_walsh_pair(self):
        matrix = circuit_to_matrix(build_walsh_hadamard_transform_circuit(2, 2))
        w = walsh_hadamard_gate()
        assert max_entry_distance(matrix, np.kron(w, w)) < 1e-12

    def test_two_digit_controlled_phase_block(self):
        circuit = Circuit(3, 2, (GateOp.controlled_phase(0, 1, 2),))
        assert max_entry_distance(
            circuit_to_matrix(circuit), controlled_phase_matrix(3, 2)
        ) < 1e-14

    @pytest.mark.parametrize(
        "q,ops",
        [
            # denom_exp far above the register width
            (2, ((0, 2, 40), (1, 2, 2))),
            # the largest modulus a base-2 circuit accepts
            (2, ((0, 2, 62), (1, 2, 2))),
            # four shifts of up to 36 * 7**20 each: unreduced, their sum
            # would overflow int64
            (7, ((1, 2, 2), (1, 2, 2), (0, 2, 22), (1, 2, 2), (1, 2, 2))),
        ],
    )
    def test_fine_phases_match_dense_gates(self, q, ops):
        circuit = Circuit(q, 3, tuple(GateOp.controlled_phase(*op) for op in ops))
        x = np.arange(q ** 3)
        digit = [(x // q ** k) % q for k in range(3)]
        expected = np.ones(q ** 3, dtype=complex)
        for control, target, denom_exp in ops:
            dense = np.diag(controlled_phase_matrix(q, denom_exp))
            expected *= dense[digit[control] * q + digit[target]]
        np.testing.assert_allclose(
            circuit_to_matrix(circuit), np.diag(expected), rtol=0, atol=1e-14
        )

    def test_fine_phase_angle(self):
        circuit = Circuit(2, 3, (GateOp.controlled_phase(0, 2, 40),))
        angle = np.angle(circuit_to_matrix(circuit)[5, 5])
        assert angle == pytest.approx(-2 * np.pi / 2 ** 40, rel=1e-12)

    @pytest.mark.parametrize("q,n,depth", [(2, 4, None), (3, 3, 2), (5, 2, 1)])
    def test_compiled_circuits_unitary(self, q, n, depth):
        assert unitarity_residual(circuit_to_matrix(build_qft_circuit(q, n, depth))) <= 1e-10

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            circuit_to_matrix(build_qft_circuit(2, 3), dim_cap=4)


def product_to_dense(slots, reverse):
    """Kronecker product of each input's ``_run_product`` slots in output
    order: the leftmost factor is the most significant output digit."""
    n = len(slots)
    order = range(n) if reverse else range(n - 1, -1, -1)
    return np.array([reduce(np.kron, [slots[l, :, i] for l in order])
                     for i in range(slots.shape[2])])


# Hand-built runs over several targets: a phase on a target that is still a
# basis digit, targets phased before and after their Chrestenson gates, and
# denominator exponents above the register width.
MIXED_OPS = (
    GateOp.controlled_phase(0, 1, 2),
    GateOp.chrestenson(3),
    GateOp.chrestenson(2),
    GateOp.controlled_phase(1, 3, 2),
    GateOp.controlled_phase(0, 2, 3),
    GateOp.controlled_phase(0, 3, 6),
    GateOp.controlled_phase(1, 2, 2),
    GateOp.chrestenson(1),
    GateOp.controlled_phase(0, 1, 4),
    GateOp.controlled_phase(0, 3, 2),
    GateOp.chrestenson(0),
)


# Four shifts of up to 36 * 7**20 each and one of up to 36, with m = 22:
# unreduced, their sum would overflow int64.
FINE_RUN = tuple(GateOp.controlled_phase(*op) for op in
                 ((1, 2, 2), (1, 2, 2), (0, 2, 22), (1, 2, 2), (1, 2, 2)))


class TestRunExponent:
    q, n, m = 7, 3, 22

    def python_sum(self, digit_of):
        """The run's exponent for one index, in Python ints."""
        return sum(digit_of(op.control) * self.q ** (self.m - op.denom_exp)
                   * digit_of(op.target) for op in FINE_RUN) % self.q ** self.m

    def dense(self):
        values = np.arange(self.q, dtype=np.int64)
        exponent = _run_exponent(self.q, self.m, FINE_RUN,
                                 lambda d: _along_digit(self.q, self.n, d, values))
        assert exponent.dtype == np.int64
        return np.broadcast_to(exponent, (self.q,) * self.n).reshape(-1)

    def product(self, x):
        digits = [(x // self.q ** k) % self.q for k in range(self.n)]
        component = np.arange(1, self.q, dtype=np.int64)[:, np.newaxis]
        exponent = _run_exponent(self.q, self.m, FINE_RUN,
                                 lambda d: component if d == 2 else digits[d])
        assert exponent.dtype == np.int64 and exponent.shape == (self.q - 1, len(x))
        return exponent

    def test_the_unreduced_sum_leaves_int64(self):
        # attained where the control digit 1 and the target digit 2 are q - 1
        largest = sum((self.q - 1) ** 2 * self.q ** (self.m - op.denom_exp) for op in FINE_RUN)
        assert largest > 2 ** 63 - 1

    def test_dense_digit_view_is_exact(self):
        q = self.q
        expected = [self.python_sum(lambda d: i // q ** d % q) for i in range(q ** self.n)]
        assert self.dense().tolist() == expected

    def test_product_digit_arrays_are_exact(self):
        q = self.q
        x = np.arange(q ** self.n, dtype=np.int64)
        expected = [[self.python_sum(lambda d: t if d == 2 else int(i) // q ** d % q)
                     for i in x] for t in range(1, q)]
        assert self.product(x).tolist() == expected

    def test_product_exponent_is_the_dense_one(self):
        # component t of target digit 2 for input x is dense index
        # t*q**2 + (x mod q**2)
        q = self.q
        x = np.arange(q ** self.n, dtype=np.int64)
        t = np.arange(1, q)[:, np.newaxis]
        assert np.array_equal(self.product(x), self.dense()[t * q ** 2 + x % q ** 2])


class TestRunProduct:
    def assert_matches_dense(self, circuit):
        dim = circuit.radix ** circuit.digits
        slots = _run_product(circuit, np.arange(dim), {}, dim)
        assert slots.shape == (circuit.digits, circuit.radix, dim)
        assert slots.dtype == np.complex128 and slots.flags.c_contiguous
        np.testing.assert_allclose(
            product_to_dense(slots, circuit.reverse_output_digits),
            _run_batch(circuit, np.eye(dim)),
            rtol=0, atol=1e-12,
        )

    @pytest.mark.parametrize("keep_depth", [None, 1, 2])
    @pytest.mark.parametrize("q,n", [(2, 5), (3, 4), (4, 3), (5, 3)])
    def test_qft_matches_dense(self, q, n, keep_depth):
        self.assert_matches_dense(build_qft_circuit(q, n, keep_depth))

    @pytest.mark.parametrize("q,n", [(2, 4), (3, 3), (5, 2)])
    def test_walsh_hadamard_matches_dense(self, q, n):
        self.assert_matches_dense(build_walsh_hadamard_transform_circuit(q, n))

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("q", [2, 3])
    def test_mixed_target_runs_match_dense(self, q, reverse):
        self.assert_matches_dense(Circuit(q, 4, MIXED_OPS, reverse_output_digits=reverse))

    def test_fine_phases_match_dense(self):
        circuit = Circuit(7, 3, FINE_RUN + (GateOp.chrestenson(2),))
        self.assert_matches_dense(circuit)

    def test_first_chrestenson_writes_no_full_size_temporary(self, traced_peak):
        # the selected gate rows are written into the slots in place; a
        # product of the gathered rows would take two more slot-sized arrays
        q = 512
        cache = {("chrestenson", q): chrestenson_gate(q)}
        x = np.arange(q)
        slots, peak = traced_peak(_run_product, build_qft_circuit(q, 1), x, cache, q)
        assert peak <= slots.nbytes + 2 ** 18  # one more slot array is 2 ** 22
        # each input's basis digit carries amplitude 1, which scales its column
        expected = chrestenson_gate(q) * np.ones(q, dtype=complex)
        assert np.array_equal(slots[0].view(np.uint64), expected.view(np.uint64))

    def test_refuses_a_control_after_its_chrestenson(self):
        op = GateOp.controlled_phase(0, 1, 2)
        circuit = Circuit(3, 2, (GateOp.chrestenson(0), GateOp.chrestenson(1), op))
        with pytest.raises(ValueError, match=re.escape(f"{op} reads control digit 0")):
            _run_product(circuit, np.arange(9), {}, 9)


def dense_reference(circuit):
    """The circuit's matrix from the dense simulator on the identity."""
    dim = circuit.radix ** circuit.digits
    return _run_batch(circuit, np.eye(dim)).T


def embedded(q, n, digit, gate):
    """A q x q gate on one digit of an n-digit register, by Kronecker products."""
    factors = [np.eye(q)] * n
    factors[n - 1 - digit] = gate
    return reduce(np.kron, factors)


@pytest.fixture
def no_dense_simulation(monkeypatch):
    """Make the dense simulator and both kernels raise when called."""
    def refuse(*args, **kwargs):
        raise AssertionError("the dense simulator ran")

    monkeypatch.setattr(circuit_module, "_run_batch", refuse)
    monkeypatch.setattr(kernels, "apply_single_qudit", refuse)
    monkeypatch.setattr(kernels, "apply_diagonal", refuse)


PRODUCT_CIRCUITS = [
    *(pytest.param(build_qft_circuit(q, n, depth), id=f"qft-{q}-{n}-{depth}")
      for q, n in [(2, 5), (3, 4), (4, 3), (5, 3)] for depth in (None, 1, 2)),
    *(pytest.param(build_walsh_hadamard_transform_circuit(q, n), id=f"walsh-{q}-{n}")
      for q, n in [(2, 4), (3, 3), (5, 2)]),
    *(pytest.param(Circuit(q, 4, MIXED_OPS, reverse_output_digits=reverse),
                   id=f"mixed-{q}-{reverse}")
      for q in (2, 3) for reverse in (False, True)),
]


class TestBasisColumns:
    @pytest.mark.parametrize("circuit", PRODUCT_CIRCUITS)
    def test_compile_matches_dense_simulator(self, circuit):
        expected = dense_reference(circuit)
        dim = len(expected)
        columns = _basis_columns(circuit, np.arange(dim))
        assert columns.shape == (dim, dim) and columns.dtype == np.complex128
        assert columns.flags.c_contiguous
        np.testing.assert_allclose(columns, expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(circuit_to_matrix(circuit), expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("circuit", PRODUCT_CIRCUITS[:3] + PRODUCT_CIRCUITS[-2:])
    def test_selected_inputs_are_their_columns(self, circuit):
        expected = dense_reference(circuit)
        x = [len(expected) - 1, 0, 5, 5]
        np.testing.assert_allclose(_basis_columns(circuit, x), expected[:, x],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(_basis_columns(circuit, [7])[:, 0], expected[:, 7],
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("circuit", [
        *PRODUCT_CIRCUITS,
        *(pytest.param(build_qft_circuit(q, n), id=f"qft-{q}-{n}")
          for q, n in [(2, 1), (7, 1), (600, 1), (7, 2), (2, 9), (3, 7)]),
    ])
    def test_row_blocks_are_the_compiled_rows(self, circuit):
        # verify's blocks hold the compiled matrix's entries bit for bit
        dim = circuit.radix ** circuit.digits
        left, right = _product_halves(circuit, np.arange(dim))
        assert (left is None) == (circuit.digits == 1)
        rows, blocks = zip(*_row_blocks(left, right))
        assert [r.start for r in rows] == [0, *(r.stop for r in rows[:-1])]
        assert min(rows[-1].stop, dim) == dim
        matrix = circuit_to_matrix(circuit)
        assert np.array_equal(np.concatenate(blocks).view(np.uint64), matrix.view(np.uint64))

    @pytest.mark.parametrize("q,n", [(2, 2), (2, 9), (3, 4), (5, 3), (7, 2), (16, 3)])
    def test_qft_left_half_repeats_with_its_height(self, q, n):
        # left holds slots 0..h-1, which read input digits 0..h-1 only
        left, _ = _product_halves(build_qft_circuit(q, n), np.arange(q ** n))
        period = q ** (n // 2)
        assert len(left) == period
        assert np.array_equal(left.view(np.uint64),
                              np.tile(left[:, :period], q ** n // period).view(np.uint64))

    @pytest.mark.parametrize("q,n,depth", [(2, 10, None), (3, 6, None), (4, 4, 3),
                                           (32, 2, None)])
    def test_qft_compile_runs_no_dense_simulation(self, q, n, depth, no_dense_simulation):
        matrix = circuit_to_matrix(build_qft_circuit(q, n, depth))
        if depth is None:
            assert max_entry_distance(matrix, dft_matrix(q ** n)) < 1e-13
        assert unitarity_residual(matrix) <= 1e-12

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_slot_with_two_chrestenson_gates_is_exact(self, q):
        # digit 0 is transformed, phased by the still-basis digit 1, and
        # transformed again: its second gate is a dense product
        ops = (GateOp.chrestenson(0), GateOp.controlled_phase(1, 0, 2),
               GateOp.chrestenson(0), GateOp.chrestenson(1))
        circuit = Circuit(q, 2, ops)
        assert _breaks_product(circuit) is None
        gate = chrestenson_gate(q)
        expected = (embedded(q, 2, 1, gate) @ embedded(q, 2, 0, gate)
                    @ controlled_phase_matrix(q, 2) @ embedded(q, 2, 0, gate))
        np.testing.assert_allclose(circuit_to_matrix(circuit), expected, rtol=0, atol=1e-14)
        np.testing.assert_allclose(dense_reference(circuit), expected, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("q", [2, 3])
    def test_non_product_circuit_compiles_through_the_dense_path(self, q, monkeypatch):
        # the phase reads digit 0 after its Chrestenson gate
        ops = (GateOp.chrestenson(0), GateOp.controlled_phase(0, 1, 2),
               GateOp.chrestenson(1), GateOp.controlled_phase(1, 2, 3))
        circuit = Circuit(q, 3, ops, reverse_output_digits=True)
        assert _breaks_product(circuit) == ops[1]
        dense_calls = []
        dense = circuit_module._run_batch

        def recording(circuit, amplitude_rows):
            dense_calls.append(len(amplitude_rows))
            return dense(circuit, amplitude_rows)

        monkeypatch.setattr(circuit_module, "_run_batch", recording)
        matrix = circuit_to_matrix(circuit)
        assert dense_calls == [q ** 3]
        gate = chrestenson_gate(q)
        # controlled phases are diagonal in the digits they read
        x = np.arange(q ** 3)
        digit = [(x // q ** k) % q for k in range(3)]
        phase_01 = np.exp(-2j * np.pi * digit[0] * digit[1] / q ** 2)
        phase_12 = np.exp(-2j * np.pi * digit[1] * digit[2] / q ** 3)
        expected = (np.diag(phase_12) @ embedded(q, 3, 1, gate) @ np.diag(phase_01)
                    @ embedded(q, 3, 0, gate))
        expected = expected[digit_reversal_perm(q, 3)]
        np.testing.assert_allclose(matrix, expected, rtol=0, atol=1e-14)
        with pytest.raises(ValueError, match="reads control digit 0"):
            _basis_columns(circuit, [0])
