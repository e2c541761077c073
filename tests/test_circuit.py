"""Tests for the circuit IR, the builders, the simulators, and compilation."""

import copy
import pickle
import re
import sys
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
    qft_slots,
    walsh_hadamard_gate,
)
from qudit_qft import checks as checks_module, circuit as circuit_module
from qudit_qft import dense as dense_module, gates as gates_module, kernels
from qudit_qft.checks import (
    _TILE_ROWS,
    _dft_rows,
    _oracle_distance,
    _tiles,
    unitarity_residual,
)
from qudit_qft.circuit import (
    _breaks_product,
    _outer_rows,
    _output_factors,
    _product_halves,
    _right_columns,
    _right_rows,
    _right_shape,
    _run_exponent,
    _run_product,
)
from qudit_qft.cli import main
from qudit_qft.dense import _along_digit, _run_batch

RNG = np.random.default_rng(55021)


class TestGateOpValidation:
    def test_control_equal_target_rejected(self):
        with pytest.raises(ValueError):
            GateOp.controlled_phase(1, 1, 2)

    def test_denominator_exponent_floor(self):
        with pytest.raises(ValueError):
            GateOp.controlled_phase(0, 1, 1)

    def test_non_integer_digits_and_exponents_rejected(self):
        # 2.5 >= 2 and 1.5 >= 0: each is refused by name, before a circuit
        # or the engine reads it
        with pytest.raises(ValueError, match=r"^denom_exp must be an integer, got 2\.5$"):
            Circuit(2, 3, (GateOp.controlled_phase(0, 1, 2.5),))
        with pytest.raises(ValueError, match=r"^target must be an integer, got 1\.5$"):
            GateOp.chrestenson(1.5)
        with pytest.raises(ValueError, match=r"^control must be an integer, got 0\.0$"):
            GateOp.controlled_phase(0.0, 1, 2)
        with pytest.raises(ValueError, match=r"^radix must be an integer, got 2\.5$"):
            Circuit(2.5, 3)
        with pytest.raises(ValueError, match=r"^keep_depth must be an integer, got 2\.5$"):
            build_qft_circuit(3, 4, 2.5)
        # numpy integers pass
        op = GateOp.controlled_phase(np.int64(0), np.int32(1), np.int64(2))
        assert Circuit(np.int64(2), np.int64(3), (op,)).ops == (op,)

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


class TestValueObjects:
    """GateOp and Circuit are immutable values: shown, compared and hashed
    by their fields, against their own type only."""

    def test_repr_names_every_field(self):
        # error messages embed it
        op = GateOp.controlled_phase(0, 2, 3)
        assert repr(op) == "GateOp(kind='controlled_phase', target=2, control=0, denom_exp=3)"
        assert repr(Circuit(2, 3, [op])) == (
            "Circuit(radix=2, digits=3, ops=(GateOp(kind='controlled_phase', target=2, "
            "control=0, denom_exp=3),), reverse_output_digits=False)")

    def test_keyword_defaults(self):
        assert GateOp(kind=CHRESTENSON, target=1) == GateOp(CHRESTENSON, 1, None, None)
        assert Circuit(radix=3, digits=2) == Circuit(3, 2, (), False)
        assert Circuit(2, 3, [GateOp.chrestenson(0)]).ops == (GateOp.chrestenson(0),)

    def test_equal_and_hashed_by_fields_within_their_type(self):
        a, b = build_qft_circuit(3, 4, 2), build_qft_circuit(3, 4, 2)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != build_qft_circuit(3, 4)
        op = GateOp.chrestenson(1)
        assert op == GateOp(CHRESTENSON, 1) and hash(op) == hash(GateOp(CHRESTENSON, 1))

        class Sub(GateOp):
            __slots__ = ()

        assert op != (CHRESTENSON, 1, None, None)
        assert op != Sub(CHRESTENSON, 1)
        assert op != Circuit(2, 2)
        # a subclass keeps the fields
        assert Sub(CHRESTENSON, 1) != Sub(CHRESTENSON, 2)
        assert repr(Sub(CHRESTENSON, 1)).endswith(
            "Sub(kind='chrestenson', target=1, control=None, denom_exp=None)")

    @pytest.mark.parametrize("value,field", [(GateOp.chrestenson(1), "target"),
                                             (Circuit(2, 2), "ops")])
    def test_fields_cannot_change(self, value, field):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(value, field, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1

    def test_copies_and_pickles_are_equal(self):
        circuit = build_qft_circuit(5, 3)
        assert pickle.loads(pickle.dumps(circuit)) == circuit
        assert copy.deepcopy(circuit) == circuit


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


# Every size with q**n <= 1024 and n >= 2, and at n = 1 every radix to 64
# and the larger ones around powers of 2 and 3: the whole n = 1 range (1023
# radices) takes about 13 s, as the oracle and the compile each touch q**2
# entries; it gave a largest distance of 3.8e-16 over all 1076 sizes.  The
# oracle's DFT row indices are checked at the same sizes: over the whole
# range they take about 11 s, and held at every size.
QFT_SLOT_SIZES = [
    *((q, 1) for q in [*range(2, 65), 127, 128, 243, 255, 256, 257, 500, 729, 1000, 1024]),
    *((q, n) for n in range(2, 11) for q in range(2, 33) if q ** n <= 1024),
]


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

    @pytest.mark.parametrize("q,n,which", [
        *((q, n, which) for q, n in [(3, 7), (5, 5), (2, 12)]
          for which in ("first", "middle", "last")),
        # the tiles of a block of 9 and of 25 right rows are 3 and 4 rows high
        (3, 7, "short"), (5, 5, "short"),
    ])
    def test_tile_gather_equals_the_dft_rows(self, q, n, which):
        # verify gathers each tile's DFT rows into buffers it reuses; they
        # are dft_matrix's bit for bit
        t = q ** n
        left, right = _product_halves(build_qft_circuit(q, n), np.arange(t))
        tiles = [(i, j, rows) for j, rows in _tiles(right) for i in range(len(left))]
        if which == "short":
            i, s, rows = next(tile for tile in tiles if tile[2] < _TILE_ROWS)
        else:
            i, s, rows = {"first": tiles[0], "middle": tiles[len(tiles) // 2],
                          "last": tiles[-1]}[which]
        r = _right_shape(right)[0]
        y0 = i * r + s
        dft_tile = _dft_rows(t, len(left))
        table = np.full((_TILE_ROWS, t), -1, dtype=np.intp)
        index = np.full((_TILE_ROWS, t), -1, dtype=np.intp)
        out = np.full((_TILE_ROWS, t), np.nan, dtype=np.complex128)
        # the buffers hold another tile's values first: rows t - _TILE_ROWS on
        dft_tile(r - _TILE_ROWS, table, index, out)(len(left) - 1)
        got = dft_tile(s, table[:rows], index[:rows], out[:rows])(i)
        assert np.shares_memory(got, out)
        expected = dft_matrix(t, slice(y0, y0 + rows))
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


    @pytest.mark.parametrize("q,n", [*QFT_SLOT_SIZES, (2, 12), (16, 3), (3, 7), (4096, 1)])
    def test_tile_index_is_the_exponent_mod_t(self, q, n):
        # every tile with every left row: the tile's table plus the left
        # row's period row, below 2t, is x*y mod t, up to a multiple of t.
        # One input's halves have every row of all inputs' halves
        t = q ** n
        left, right = _product_halves(build_qft_circuit(q, n), [0])
        p, r = len(left), _right_shape(right)[0]
        assert p * r == t
        dft_tile = _dft_rows(t, p)
        table, index = (np.empty((_TILE_ROWS, t), np.intp) for _ in range(2))
        out = np.empty((_TILE_ROWS, t), np.complex128)
        x = np.arange(t)
        for j, rows in _tiles(right):
            gather = dft_tile(j, table[:rows], index[:rows], out[:rows])
            for i in range(p):
                gather(i)
                y = np.arange(i * r + j, i * r + j + rows)
                assert 0 <= index[:rows].min() and index[:rows].max() < 2 * t, (i, j)
                assert np.array_equal(index[:rows] % t, np.outer(y, x) % t), (i, j)


class TestQftSlots:
    @pytest.mark.parametrize("q,n", QFT_SLOT_SIZES)
    def test_multiplied_out_equals_the_compiled_matrix(self, q, n):
        # the QFT reverses its output digits, so slot l is output digit
        # n-1-l and the slots are the factors most significant first
        slots = qft_slots(q, n, np.arange(q ** n))
        assert slots.shape == (n, q, q ** n)
        compiled = circuit_to_matrix(build_qft_circuit(q, n))
        assert np.abs(_outer_rows(list(slots)) - compiled).max() <= 1e-14

    def test_reads_neither_gates_nor_simulators(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle read a gate or a simulator")

        # circuit holds no chrestenson_gate: its engine builds no q x q gate
        assert not hasattr(circuit_module, "chrestenson_gate")
        for name in ("chrestenson_roots", "roots_of_unity", "_run_product"):
            monkeypatch.setattr(circuit_module, name, refuse)
        monkeypatch.setattr(dense_module, "_run_batch", refuse)
        for name in ("chrestenson_gate", "chrestenson_roots", "roots_of_unity",
                     "_scaled_roots"):
            monkeypatch.setattr(gates_module, name, refuse)
        assert qft_slots(3, 4, np.arange(81)).shape == (4, 3, 81)

    @pytest.mark.parametrize("q,n", [(2, 62), (3, 39), (2048, 4)])
    def test_exact_at_the_largest_exponents(self, q, n):
        # the exponent t*(x mod q**(l+1)) is exact in int64 up to (q-1)*q**n
        x = np.array([0, 1, q ** n // 3, q ** n - 2, q ** n - 1])
        slots = _run_product(build_qft_circuit(q, n), x)
        assert np.abs(qft_slots(q, n, x) - slots).max() <= 1e-14

    @pytest.mark.parametrize("q,n", [(2, 63), (3, 40), (7, 22), (2, 10 ** 6)])
    def test_refuses_exponents_beyond_int64(self, q, n):
        with pytest.raises(ValueError, match=r"\(q-1\)\*q\*\*n in int64"):
            qft_slots(q, n, [0])


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

        monkeypatch.setattr(dense_module, "chrestenson_gate", refuse)
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

    def test_dimension_cap(self, monkeypatch):
        # sizes above the fixed cap are refused before either simulator runs
        def refuse(*args):
            raise AssertionError("a simulator ran")

        monkeypatch.setattr(circuit_module, "_run_product", refuse)
        monkeypatch.setattr(dense_module, "_run_batch", refuse)
        for q, n in [(2, 13), (4096, 2)]:
            with pytest.raises(ValueError, match=f"dimension {q ** n} exceeds cap"):
                circuit_to_matrix(build_qft_circuit(q, n))


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
        slots = _run_product(circuit, np.arange(dim))
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
        x = np.arange(q)
        slots, peak = traced_peak(_run_product, build_qft_circuit(q, 1), x)
        assert peak <= slots.nbytes + 2 ** 18  # one more slot array is 2 ** 22
        # each input's basis digit carries amplitude 1, which scales its column
        expected = chrestenson_gate(q) * np.ones(q, dtype=complex)
        assert np.array_equal(slots[0].view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("q", [512, 1024])
    def test_builds_no_gate(self, q, traced_peak):
        # the first gate's columns are gathered from the q scaled roots in
        # blocks of at most 2**12 entries; the q x q gate alone would take
        # slots.nbytes more (4 and 16 MiB)
        x = np.arange(q)
        slots, peak = traced_peak(_run_product, build_qft_circuit(q, 1), x)
        assert peak <= slots.nbytes + 2 ** 18
        # each input's basis digit carries amplitude 1, which scales its column
        expected = chrestenson_gate(q) * np.ones(q, dtype=complex)
        assert np.array_equal(slots[0].view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("q", [2, 3, 4, 7, 16])
    def test_first_gate_scale_clears_negative_zero_parts(self, q):
        # the gate stores -0.0 imaginary parts (exponent 0); the first
        # gate's multiply by the input's scale 1+0j turns them into +0.0,
        # which is why documents print 0 there and not -0
        gate = chrestenson_gate(q).imag
        assert np.signbit(gate[gate == 0]).any()
        slots = _run_product(build_qft_circuit(q, 2), np.arange(q * q)).imag
        assert (slots == 0).any() and not np.signbit(slots[slots == 0]).any()

    def test_gen_matrix_prints_positive_zero_parts(self, capsys):
        assert main(["gen-matrix", "--radix", "4", "--digits", "1", "--format", "csv"]) == 0
        assert "0,0,0.5,0" in capsys.readouterr().out.splitlines()

    def test_refuses_a_control_after_its_chrestenson(self):
        op = GateOp.controlled_phase(0, 1, 2)
        circuit = Circuit(3, 2, (GateOp.chrestenson(0), GateOp.chrestenson(1), op))
        with pytest.raises(ValueError, match=re.escape(f"{op} reads control digit 0")):
            _run_product(circuit, np.arange(9))


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

    monkeypatch.setattr(dense_module, "_run_batch", refuse)
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
        columns = _outer_rows(_output_factors(circuit, np.arange(dim)))
        assert columns.shape == (dim, dim) and columns.dtype == np.complex128
        assert columns.flags.c_contiguous
        np.testing.assert_allclose(columns, expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(circuit_to_matrix(circuit), expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("circuit", PRODUCT_CIRCUITS[:3] + PRODUCT_CIRCUITS[-2:])
    def test_selected_inputs_are_their_columns(self, circuit):
        expected = dense_reference(circuit)
        x = [len(expected) - 1, 0, 5, 5]
        np.testing.assert_allclose(_outer_rows(_output_factors(circuit, x)), expected[:, x],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(_outer_rows(_output_factors(circuit, [7]))[:, 0],
                                   expected[:, 7], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("circuit", [
        *PRODUCT_CIRCUITS,
        *(pytest.param(build_qft_circuit(q, n), id=f"qft-{q}-{n}")
          for q, n in [(2, 1), (7, 1), (600, 1), (7, 2), (2, 9), (3, 7)]),
    ])
    def test_row_blocks_are_the_compiled_rows(self, circuit, monkeypatch, full_halves):
        # verify's tiles cover every row once, in order, and hold the
        # compiled matrix's entries: against the compiled rows themselves
        # in place of the DFT's, the oracle distance is 0.  The whole left
        # half is checked for every circuit, and the period form wherever
        # the left columns repeat with the left half's height, as the QFT's
        # do; elsewhere _product_halves refuses the circuit
        # the materialized right half, as a right half of one factor, beside
        # the whole left half, and the operands of its last product beside
        # the period block
        dim = circuit.radix ** circuit.digits
        whole, right = full_halves(circuit, np.arange(dim))
        # at n = 1 the left half is the product of no factors: one row of ones
        assert (len(whole) == 1) == (circuit.digits == 1)
        p, r = len(whole), len(right)
        repeats = np.array_equal(whole.view(np.uint64),
                                 np.tile(whole[:, :p], dim // p).view(np.uint64))
        forms = [(whole, (right,))]
        if repeats:
            left, operands = _product_halves(circuit, np.arange(dim))
            assert left.shape == (p, p)
            assert len(operands) == (1 if circuit.digits <= 2 else 2)
            assert np.array_equal(_right_rows(operands, 0, r).view(np.uint64),
                                  right.view(np.uint64))
            forms.append((left, operands))
        else:
            with pytest.raises(ValueError, match=f"do not repeat with period {p}"):
                _product_halves(circuit, np.arange(dim))
        if circuit.digits == 1:
            ones = np.ones((1, 1), np.complex128)
            assert np.array_equal(forms[-1][0].view(np.uint64), ones.view(np.uint64))
        matrix = circuit_to_matrix(circuit)
        for left, halves in forms:
            block = len(halves[-1])
            tiles = _tiles(halves)
            # the tiles cover the right half's rows once, in order, and none
            # crosses a block of len(B) rows
            tile_starts = np.cumsum([0, *(rows for _, rows in tiles[:-1])]).tolist()
            assert [j for j, _ in tiles] == tile_starts
            assert sum(rows for _, rows in tiles) == r
            assert all(0 < rows <= _TILE_ROWS and j // block == (j + rows - 1) // block
                       for j, rows in tiles)
            starts = sorted(i * r + j for j, _ in tiles for i in range(p))
            seen = []

            def compiled_rows(t, left_rows):
                assert left_rows == p

                def tile(j, table, index, out):
                    def gather(i):
                        y0 = i * r + j
                        seen.append(y0)
                        out[:] = matrix[y0:y0 + len(out)]
                        return out
                    return gather
                return tile

            monkeypatch.setattr(checks_module, "_dft_rows", compiled_rows)
            assert _oracle_distance(left, halves, 3) == 0.0
            assert sorted(seen) == starts

    def test_many_oracle_threads_check_every_tile_once(self, monkeypatch):
        # more workers than CPUs, switching threads as often as the
        # interpreter allows: the same distance, every tile checked once
        left, right = _product_halves(build_qft_circuit(3, 5), np.arange(3 ** 5))
        one = _oracle_distance(left, right, 1)
        dft_rows = checks_module._dft_rows
        r = _right_shape(right)[0]
        seen = []

        def counted(t, p):
            dft_tile = dft_rows(t, p)

            def tile(j, table, index, out):
                gather = dft_tile(j, table, index, out)

                def gather_counted(i):
                    seen.append(i * r + j)
                    return gather(i)
                return gather_counted
            return tile

        monkeypatch.setattr(checks_module, "_dft_rows", counted)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = _oracle_distance(left, right, 8)
        finally:
            sys.setswitchinterval(interval)
        assert np.float64(many).view(np.uint64) == np.float64(one).view(np.uint64)
        assert sorted(seen) == sorted(i * r + j for j, _ in _tiles(right)
                                      for i in range(len(left)))

    def test_oracle_scratch_per_worker(self, traced_peak):
        # a worker holds a tile of the right half, the DFT rows, the
        # product rows, the tile's index table and the index buffer, whose
        # float view takes the magnitudes, and one expanded left row:
        # 1.2 MiB at t = 4096.  8-row tiles and a magnitude buffer of its
        # own fail both bounds: 4.7 MiB on two workers, 2.2 MiB more on three
        left, right = _product_halves(build_qft_circuit(2, 12), np.arange(2 ** 12))
        _, two = traced_peak(_oracle_distance, left, right, 2)
        _, three = traced_peak(_oracle_distance, left, right, 3)
        assert two <= 3 * 2 ** 20
        assert three - two <= 1.5 * 2 ** 20

    @pytest.mark.parametrize("q,n,workers", [(2, 12, 3), (2, 12, 16), (16, 3, 5), (2, 3, 8)])
    def test_oracle_items_keep_every_worker_busy(self, q, n, workers, monkeypatch):
        # (2, 12) has 8 tiles: with one item per tile, 3 workers would
        # split them 3/3/2 and 16 would leave 8 idle.  Each tile with each
        # slice of the left rows is an item: every worker checks within
        # one left row of every tile of the others, and forms each of
        # its tiles once
        left, right = _product_halves(build_qft_circuit(q, n), np.arange(q ** n))
        dealt = []
        parallel_max = checks_module._parallel_max
        monkeypatch.setattr(checks_module, "_parallel_max",
                            lambda work, items, w: dealt.append(items) or parallel_max(work, items, w))
        _oracle_distance(left, right, workers)
        (items,) = dealt
        r, p = _right_shape(right)[0], len(left)
        count = min(workers, len(items))
        assert count == min(workers, p * len(_tiles(right)))
        loads = [sum((high - low) * rows for _, rows, low, high in items[w::count])
                 for w in range(count)]
        assert sum(loads) == p * r and max(loads) - min(loads) <= r
        for w in range(count):
            tiles = [j for j, *_ in items[w::count]]
            assert len(tiles) == len(set(tiles))

    @pytest.mark.parametrize("q", [2, 7, 600])
    def test_single_digit_columns_are_the_slot_itself(self, q, monkeypatch):
        # no product with the ones row is formed: the columns are a view
        # of the product engine's (1, q, q) slots
        products = []
        outer_rows = dense_module._outer_rows

        def recording(factors):
            products.append(len(factors))
            return outer_rows(factors)

        monkeypatch.setattr(dense_module, "_outer_rows", recording)
        columns = circuit_to_matrix(build_qft_circuit(q, 1))
        assert products == [1]
        assert columns.base.shape == (1, q, q)

    @pytest.mark.parametrize("q,n", [(2, 2), (2, 9), (3, 4), (5, 3), (7, 2), (16, 3)])
    def test_qft_left_half_repeats_with_its_height(self, q, n, full_halves):
        # the whole left half holds slots 0..h-1, which read input digits
        # 0..h-1 only; _product_halves returns its period block, bit for bit
        circuit = build_qft_circuit(q, n)
        whole, _ = full_halves(circuit, np.arange(q ** n))
        period = q ** (n // 2)
        assert len(whole) == period
        assert np.array_equal(whole.view(np.uint64),
                              np.tile(whole[:, :period], q ** n // period).view(np.uint64))
        left, _ = _product_halves(circuit, np.arange(q ** n))
        assert left.shape == (period, period) and left.flags.c_contiguous
        assert np.array_equal(left.view(np.uint64), whole[:, :period].view(np.uint64))

    def test_refuses_left_columns_that_do_not_repeat(self, monkeypatch):
        # the Walsh-Hadamard circuit does not reverse its digits, so its
        # left half holds the slots of the most significant input digits
        circuit = build_walsh_hadamard_transform_circuit(2, 4)
        with pytest.raises(ValueError, match="do not repeat with period 4"):
            _product_halves(circuit, np.arange(16))
        # a NaN in one period of a left factor only breaks the repetition too
        run_product = circuit_module._run_product

        def poisoned(*args):
            slots = run_product(*args)
            slots[0, 1, 5] = np.nan  # slot 0 is a factor of the left half
            return slots

        monkeypatch.setattr(circuit_module, "_run_product", poisoned)
        with pytest.raises(ValueError, match="do not repeat with period 4"):
            _product_halves(build_qft_circuit(2, 4), np.arange(16))

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
        # transformed again: the product engine refuses the second gate, and
        # the compile runs the dense path
        ops = (GateOp.chrestenson(0), GateOp.controlled_phase(1, 0, 2),
               GateOp.chrestenson(0), GateOp.chrestenson(1))
        circuit = Circuit(q, 2, ops)
        assert _breaks_product(circuit) == ops[2]
        with pytest.raises(ValueError, match="reads digit 0 after its Chrestenson gate"):
            _run_product(circuit, [0])
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
        dense = dense_module._run_batch

        def recording(circuit, amplitude_rows):
            dense_calls.append(len(amplitude_rows))
            return dense(circuit, amplitude_rows)

        monkeypatch.setattr(dense_module, "_run_batch", recording)
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
            _outer_rows(_output_factors(circuit, [0]))


# uneven periods p = 27, 25, 36 and 7, the Kronecker splits of the cap,
# and its single factor, where the left half is one 1 x 1 block of ones
PERIOD_SIZES = [(3, 7), (5, 5), (6, 4), (7, 3), (2, 12), (16, 3), (4096, 1)]


def whole_left_distance(whole: np.ndarray, right: np.ndarray) -> float:
    """``max |M - dft_matrix(t)|`` of the halves with the whole left half,
    by blocks of rows of ``M`` as the compile multiplies them out and
    ``dft_matrix``'s rows."""
    r, t = right.shape
    maxima = []
    for i in range(len(whole)):
        for s in range(0, r, 256):
            rows = whole[i] * right[s:s + 256]
            y0 = i * r + s
            maxima.append(np.abs(rows - dft_matrix(t, slice(y0, y0 + len(rows)))).max())
    return float(np.max(maxima))


class TestPeriodForm:
    @pytest.mark.parametrize("q,n", PERIOD_SIZES)
    def test_oracle_distance_is_the_whole_left_halfs(self, q, n, full_halves):
        # the period block, expanded a row at a time, gives the distance of
        # the whole left half bit for bit with 1, 2 and 3 workers
        circuit = build_qft_circuit(q, n)
        x = np.arange(q ** n)
        whole, right = full_halves(circuit, x)
        expected = whole_left_distance(whole, right)
        del right  # at (4096, 1) it is 256 MiB
        left, right = _product_halves(circuit, x)
        assert left.shape == (len(whole), min(len(whole), q ** n))
        for workers in (1, 2, 3):
            distance = _oracle_distance(left, right, workers)
            assert np.float64(distance).view(np.uint64) == np.float64(expected).view(np.uint64)


# every QFT size with q**n <= 1024, at n = 1 a sample (there the right half
# is the one slot, held as it is), and the splits of the cap: at (3, 7)
# blocks of len(B) = 9 rows, so 8-row windows cross them
RIGHT_HALF_SIZES = [
    *((q, 1) for q in (2, 3, 7, 64, 1024)),
    *((q, n) for n in range(2, 11) for q in range(2, 33) if q ** n <= 1024),
    (2, 12), (16, 3), (4, 6), (3, 7), (64, 2), (5, 5),
]


def bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


class TestRightHalf:
    """The right half held as the operands of its last product: what its
    helpers multiply out is the materialized half's, as the compile builds
    it (``full_halves``), bit for bit."""

    @pytest.mark.parametrize("q,n", RIGHT_HALF_SIZES)
    def test_rows_and_residue_columns_are_the_materialized_halfs(self, q, n, full_halves):
        circuit = build_qft_circuit(q, n)
        x = np.arange(q ** n)
        _, right = full_halves(circuit, x)
        left, operands = _product_halves(circuit, x)
        assert len(operands) == (1 if n <= 2 else 2)
        assert _right_shape(operands) == right.shape
        r, m = len(right), len(operands[-1])
        # the oracle's tiles, 8-row windows from every multiple of 8, the
        # rows at either end of a block, and all rows
        spans = {*_tiles(operands), *((j, min(8, r - j)) for j in range(0, r, 8)),
                 (m - 1, 1), (m - 1, min(2, r - m + 1)), (0, r)}
        for j, k in sorted(spans):
            assert np.array_equal(bits(_right_rows(operands, j, k)), bits(right[j:j + k])), (j, k)
        p = len(left)
        for s in range(p):
            assert np.array_equal(bits(_right_columns(operands, s, p)), bits(right[:, s::p])), s

    @pytest.mark.parametrize("q,n,k", [(3, 12, 4242), (2, 19, 12345), (5, 6, 1234),
                                       (3, 7, 55), (7, 4, 100), (2, 3, 5)])
    def test_one_column_rows_are_the_materialized_halfs(self, q, n, k, full_halves):
        # a basis input's right half has one column, so a row is one entry;
        # multiplied out alone, the entry of row 458 at (3, 12) moved in its
        # last bit
        circuit = build_qft_circuit(q, n)
        _, right = full_halves(circuit, [k])
        _, operands = _product_halves(circuit, [k])
        r, m = len(right), len(operands[-1])
        for j in range(r):
            for count in {1, 2, m, r - j} & set(range(1, r - j + 1)):
                assert np.array_equal(bits(_right_rows(operands, j, count)),
                                      bits(right[j:j + count])), (j, count)

    def test_a_tile_within_a_block_is_one_product_of_its_rows(self):
        # one row of A times a slice of B: a fresh array of the tile's rows;
        # rows across a block boundary are cut from the blocks they touch
        _, operands = _product_halves(build_qft_circuit(3, 7), np.arange(3 ** 7))
        assert [len(a) for a in operands] == [9, 9]
        tile = _right_rows(operands, 13, 5)
        assert tile.shape == (5, 3 ** 7) and tile.base is None and tile.flags.c_contiguous
        assert _right_rows(operands, 16, 4).base.shape == (2, 9, 3 ** 7)

    @pytest.mark.parametrize("q,n", [(2, 5), (3, 4), (5, 3), (2, 12), (16, 3), (4, 6), (3, 7),
                                     (64, 2), (5, 5)])
    def test_oracle_distance_is_the_materialized_halfs(self, q, n, full_halves):
        # the materialized half, as a right half of one factor, is read in
        # tiles of 8 of its rows, as while verify held it
        circuit = build_qft_circuit(q, n)
        x = np.arange(q ** n)
        _, right = full_halves(circuit, x)
        left, operands = _product_halves(circuit, x)
        for workers in (1, 2):
            got = _oracle_distance(left, operands, workers)
            expected = _oracle_distance(left, (right,), workers)
            assert np.float64(got).view(np.uint64) == np.float64(expected).view(np.uint64)
