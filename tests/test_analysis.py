"""Tests for the error factors, the two bounds, and the brute-force measurement."""

import cmath
import math

import numpy as np
import pytest

from qudit_qft import (
    BoundRow,
    analysis,
    approximation_report,
    bound_coppersmith,
    bound_new,
    capacity_metrics,
    phase_error_factor,
    phase_error_series,
    phase_error_trig,
)
from qudit_qft import circuit as circuit_module
from qudit_qft.circuit import Circuit, GateOp, build_qft_circuit
from qudit_qft import dense as dense_module
from qudit_qft import gates as gates_module
from qudit_qft.numerics import CrossCheckError
from qudit_qft.cli import main
from qudit_qft.dense import circuit_to_matrix


def brute_force_maxima(q, n, keep_depth):
    """Worst dropped phase per bracket, by a plain loop over every input.

    Bracket l (fraction length l + 1) loses the controlled phase from every
    control digit k < l whose denominator exponent l - k + 1 exceeds the
    keep depth; input x then picks up ``2*pi * x_k / q**(l-k+1)`` from each.
    """
    maxima = []
    for l in range(n):
        dropped = [(k, l - k + 1) for k in range(l)
                   if keep_depth is not None and l - k + 1 > keep_depth]
        worst = 0.0
        for x in range(q ** n):
            shift = sum(
                2.0 * math.pi * ((x // q ** k) % q) / q ** s for k, s in dropped
            )
            worst = max(worst, shift)
        maxima.append(worst)
    return maxima


class TestPhaseErrorFactor:
    @pytest.mark.parametrize("l", [1, 2, 3, 6])
    def test_binary_form(self, l):
        expected = cmath.exp(-2j * cmath.pi / 2 ** l)
        assert abs(phase_error_factor(2, l) - expected) < 1e-15

    def test_base3_exponent_two(self):
        value = phase_error_factor(3, 2)
        assert abs(value - complex(0.1736, -0.9848)) < 5e-5

    def test_tends_to_one(self):
        assert abs(phase_error_factor(3, 20) - 1.0) < 1e-5

    @pytest.mark.parametrize("q,l", [(2, 1), (3, 2), (7, 4)])
    def test_unit_modulus(self, q, l):
        assert abs(abs(phase_error_factor(q, l)) - 1.0) < 1e-15

    def test_argument_floors(self):
        with pytest.raises(ValueError):
            phase_error_factor(1, 2)
        with pytest.raises(ValueError):
            phase_error_factor(3, 0)


class TestPhaseErrorSeries:
    def test_single_term_is_one(self):
        assert phase_error_series(3, 2, 1) == 1.0

    @pytest.mark.parametrize("l", [1, 2, 4])
    def test_two_terms_binary(self, l):
        expected = 1.0 - 2j * cmath.pi / 2 ** l
        assert abs(phase_error_series(2, l, 2) - expected) < 1e-15

    def test_twelve_terms_base3(self):
        assert abs(phase_error_series(3, 3, 12) - phase_error_factor(3, 3)) < 1e-12

    @pytest.mark.parametrize("q", range(2, 8))
    @pytest.mark.parametrize("l", range(2, 9))
    def test_converged_by_twenty_terms_beyond_first_exponent(self, q, l):
        assert abs(phase_error_series(q, l, 20) - phase_error_factor(q, l)) < 1e-10

    @pytest.mark.parametrize("q", range(2, 8))
    def test_largest_argument_converges_by_forty_terms(self, q):
        assert abs(phase_error_series(q, 1, 40) - phase_error_factor(q, 1)) < 1e-10

    @pytest.mark.parametrize("q,l", [(2, 1), (3, 1), (7, 1), (2, 2), (5, 3)])
    def test_error_shrinks_monotonically_past_argument_magnitude(self, q, l):
        magnitude = 2 * math.pi * (q - 1) / q ** l
        start = math.ceil(magnitude) + 1
        errors = [
            abs(phase_error_series(q, l, terms) - phase_error_factor(q, l))
            for terms in range(start, 41)
        ]
        for previous, current in zip(errors, errors[1:]):
            if previous > 1e-13:  # below that the float64 noise floor rules
                assert current <= previous

    def test_terms_floor(self):
        with pytest.raises(ValueError):
            phase_error_series(2, 1, 0)


class TestPhaseErrorTrig:
    @pytest.mark.parametrize("q", range(2, 8))
    @pytest.mark.parametrize("l", range(1, 13))
    def test_matches_exponential_form(self, q, l):
        assert abs(phase_error_trig(q, l) - phase_error_factor(q, l)) <= 1e-15

    def test_imaginary_part_vanishes_with_depth(self):
        # from l=2 on the argument is below pi/2, so the sine shrinks with l
        magnitudes = [abs(phase_error_trig(3, l).imag) for l in range(2, 12)]
        assert all(b < a for a, b in zip(magnitudes, magnitudes[1:]))
        assert magnitudes[-1] < 1e-4

    @pytest.mark.parametrize("l", range(3, 10))
    def test_base3_phase_smaller_than_binary(self, l):
        arg3 = abs(cmath.phase(phase_error_trig(3, l)))
        arg2 = abs(cmath.phase(phase_error_trig(2, l)))
        assert arg3 < arg2


class TestBounds:
    def test_zero_drops_mean_zero_bounds(self):
        assert bound_coppersmith(3, 4, 0) == 0.0
        assert bound_new(3, 4, 0) == 0.0

    def test_coppersmith_values(self):
        assert abs(bound_coppersmith(3, 4, 1) - 12 * math.pi / 81) < 1e-15
        assert abs(bound_coppersmith(2, 5, 2) - math.pi / 2) < 1e-15

    def test_new_bound_values(self):
        assert abs(bound_new(3, 4, 1) - 4 * math.pi / 81) < 1e-15

    def test_new_bound_tighter_example(self):
        assert bound_new(3, 4, 1) < bound_coppersmith(3, 4, 1)

    @pytest.mark.parametrize("q", range(2, 8))
    def test_strict_dominance_grid(self, q):
        for fraction_len in range(1, 13):
            for dropped in range(1, fraction_len + 1):
                tight = bound_new(q, fraction_len, dropped)
                loose = bound_coppersmith(q, fraction_len, dropped)
                assert tight < loose

    def test_over_long_drop_rejected(self):
        with pytest.raises(ValueError):
            bound_new(3, 2, 3)
        with pytest.raises(ValueError):
            bound_coppersmith(3, 2, 3)

    @pytest.mark.parametrize("gap", range(1, 9))
    def test_limit_decreases_with_radix(self, gap):
        limits = [2 * math.pi / q ** gap for q in range(2, 8)]
        assert all(b < a for a, b in zip(limits, limits[1:]))


def measured_t1(q, n, keep_depth, target_digit):
    """One bracket's worst dropped phase, from the whole report."""
    return approximation_report(q, n, keep_depth)[target_digit].measured_t1


class TestMeasurement:
    @pytest.mark.parametrize("target", range(3))
    def test_unpruned_circuit_has_no_error(self, target):
        assert measured_t1(3, 3, None, target) == 0.0
        assert measured_t1(3, 3, 3, target) == 0.0

    def test_base3_single_drop(self):
        measured = measured_t1(3, 3, 2, 2)
        assert abs(measured - 4 * math.pi / 27) < 1e-12
        assert abs(measured - bound_new(3, 3, 1)) < 1e-12

    @pytest.mark.parametrize("keep_depth", [1, 2, 3, None])
    def test_most_significant_bracket_exact(self, keep_depth):
        assert measured_t1(2, 4, keep_depth, 0) == 0.0
        assert measured_t1(3, 4, keep_depth, 0) == 0.0

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("fraction_len,dropped", [(2, 1), (3, 1), (3, 2), (4, 2)])
    def test_worst_case_input_attains_closed_form(self, q, fraction_len, dropped):
        # digits q-1 in every dropped position push the sum to (q**m - 1)
        n = fraction_len
        keep_depth = fraction_len - dropped
        measured = measured_t1(q, n, keep_depth, fraction_len - 1)
        expected = 2 * math.pi * (q ** dropped - 1) / q ** fraction_len
        assert abs(measured - expected) < 1e-12

    def test_largest_registers_in_int64(self):
        # the report runs the input q**n - 1, and its slot moduli reach
        # q**n: both are int64, and a larger register is refused
        for q, n in [(2, 62), (3, 39)]:
            row = approximation_report(q, n, 3)[-1]
            assert abs(row.measured_t1 - row.bound_new) < 1e-12
        for q, n in [(2, 63), (3, 40)]:
            with pytest.raises(ValueError, match=r"q\*\*n in int64"):
                approximation_report(q, n, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            approximation_report(3, 3, 0)
        with pytest.raises(ValueError):
            approximation_report(1, 3, 2)


class TestApproximationReport:
    def test_unbounded_rows_all_zero(self):
        for row in approximation_report(3, 3, None):
            assert row.dropped_count == 0
            assert row.measured_t1 == 0.0
            assert row.measured_max_t == 0.0
            assert row.bound_new == 0.0
            assert row.bound_coppersmith == 0.0

    def test_base3_depth_two(self):
        rows = approximation_report(3, 3, 2)
        assert [row.target_digit for row in rows] == [0, 1, 2]
        last = rows[2]
        assert last.fraction_len == 3
        assert last.dropped_count == 1
        assert abs(last.measured_t1 - 4 * math.pi / 27) < 1e-12
        assert abs(last.measured_t1 - last.bound_new) < 1e-12
        assert abs(last.measured_max_t - 8 * math.pi / 27) < 1e-12
        assert abs(last.bound_coppersmith - 4 * math.pi / 9) < 1e-12

    def test_binary_six_digits_sound(self):
        for row in approximation_report(2, 6, 3):
            assert row.measured_t1 <= row.bound_new + 1e-12
            if row.dropped_count >= 1:
                assert row.bound_new < row.bound_coppersmith
            else:
                assert row.bound_new == row.bound_coppersmith == 0.0

    def test_dropped_count_formula(self):
        for keep_depth in (1, 2, 3, 4):
            for row in approximation_report(2, 4, keep_depth):
                assert row.dropped_count == max(0, row.fraction_len - keep_depth)

    def test_phase_wrap_flag(self):
        row = BoundRow(2, 3, 2, 3, 3, 0.0, 0.0, 2 * math.pi * 7 / 8, 6 * math.pi)
        assert row.phase_wrapped
        row = BoundRow(2, 4, 1, 2, 1, 0.0, 0.0, math.pi / 2, math.pi)
        assert not row.phase_wrapped


def record_product_calls(monkeypatch):
    """Make the analysis record the circuit and inputs of every product run,
    and the inputs of every call of the closed-form reference."""
    calls, reference_inputs = [], []
    original, reference = analysis._run_product, analysis._expected_slots

    def recording(circuit, x):
        calls.append((circuit, x.copy()))
        return original(circuit, x)

    def recording_reference(q, n, x, shifts):
        reference_inputs.append(np.array(x, copy=True))
        return reference(q, n, x, shifts)

    monkeypatch.setattr(analysis, "_run_product", recording)
    monkeypatch.setattr(analysis, "_expected_slots", recording_reference)
    return calls, reference_inputs


def nudge_product(monkeypatch, q, n, keep_depth, nudges, factor=cmath.exp(1e-6j)):
    """Multiply the pruned circuit's product-run slots by ``factor`` at each
    ``(input, digit, component)`` of ``nudges``; a component of None
    nudges the whole slot."""
    pruned = analysis.build_qft_circuit(q, n, keep_depth)
    original = analysis._run_product

    def nudged(circuit, x):
        out = original(circuit, x)
        if circuit == pruned:
            for value, digit, component in nudges:
                out[digit, slice(None) if component is None else component,
                    x == value] *= factor
        return out

    monkeypatch.setattr(analysis, "_run_product", nudged)


def every_input_pass(q, n, keep_depth, rows):
    """The every-input comparison that the phase-table certificate and the
    one witness input stand in for: the pruned circuit on every basis input
    through ``_run_product``, ``rows`` inputs at a time in rising order,
    each input's slots held to ``_expected_slots`` with that input's own
    dropped phases, at unit modulus.  Returns the worst dropped phase of
    every bracket over all inputs; the first mismatch or NaN raises
    ``CrossCheckError`` naming the smallest failing input.  It reads the
    analysis's engine and reference at call time, so their nudges reach
    it."""
    dim = q ** n
    dropped = [analysis._dropped_gates(keep_depth, l) for l in range(n)]
    pruned = analysis.build_qft_circuit(q, n, keep_depth)
    maxima = np.zeros(n)
    for start in range(0, dim, rows):
        x = np.arange(start, min(start + rows, dim))
        digits = [(x // q ** k) % q for k in range(n)]
        shifts = np.zeros((n, len(x)))
        for l in range(n):
            for k, s in dropped[l]:
                shifts[l] += 2.0 * math.pi * digits[k] / q ** s
        distance = analysis._expected_slots(q, n, x, shifts)
        distance -= analysis._run_product(pruned, x)
        # (input, digit, component) order, so argmax finds the smallest input
        failed = ~(np.abs(distance.transpose(2, 0, 1)) * math.sqrt(q)
                   <= analysis._CROSS_CHECK_TOL)
        if failed.any():
            row, l, t = np.unravel_index(np.argmax(failed), failed.shape)
            raise CrossCheckError(f"input {x[row]}, component {t} (target digit {l})")
        maxima = np.maximum(maxima, shifts.max(axis=1))
    return [float(worst) for worst in maxima]


# every (q, n) with q**n <= 1024
SMALL_SIZES = [(q, n) for n in range(1, 11) for q in range(2, 1025) if q ** n <= 1024]


def distinct_keep_depths(n):
    """The keep depths that build distinct circuits of n digits: None and
    every depth below n (a depth of n or more keeps every gate)."""
    return [None, *range(1, n)]


class TestOneSimulationPerReport:
    @pytest.mark.parametrize("keep_depth", [None, 1, 2, 3])
    @pytest.mark.parametrize("q,n", [(2, 5), (3, 4), (4, 3), (5, 3)])
    def test_rows_equal_brute_force(self, q, n, keep_depth):
        expected = brute_force_maxima(q, n, keep_depth)
        rows = approximation_report(q, n, keep_depth)
        assert [row.measured_t1 for row in rows] == expected
        assert [row.measured_max_t for row in rows] == [(q - 1) * w for w in expected]

    def test_one_simulation_per_circuit(self, monkeypatch):
        # one run of the pruned circuit and of the reference, both at the
        # input 80, whose digits are all 2
        calls, reference_inputs = record_product_calls(monkeypatch)
        approximation_report(3, 4, 2)
        assert [(circuit, x.tolist()) for circuit, x in calls] == [
            (analysis.build_qft_circuit(3, 4, 2), [80])]
        assert [x.tolist() for x in reference_inputs] == [[80]]

    @pytest.mark.parametrize("q,n,keep_depth", [(3, 3, 2), (2, 5, 2), (3, 3, None)])
    @pytest.mark.parametrize("rows_per_chunk", [1, 7])
    def test_uneven_chunks_give_the_same_rows(self, q, n, keep_depth, rows_per_chunk):
        # the maxima over every input, in chunks of 1 and 7 inputs, are the
        # report's, taken at one input, bit for bit
        rows = approximation_report(q, n, keep_depth)
        assert every_input_pass(q, n, keep_depth, rows_per_chunk) == [
            row.measured_t1 for row in rows]

    def test_large_register_attains_the_closed_forms(self):
        # measured_t1 is a float sum of the dropped shifts, so it may sit
        # an ulp above the closed form (0.7838641826095627 at target 11)
        q, n = 2, 16
        for row in approximation_report(q, n, 3):
            assert row.measured_t1 <= row.bound_new + 1e-12
            assert row.bound_new <= row.bound_coppersmith
            m, fraction_len = row.dropped_count, row.fraction_len
            if m >= 1:
                witness = 2 * math.pi * (q ** m - 1) / q ** fraction_len
                assert abs(row.measured_t1 - witness) < 1e-12


class TestEveryInputOracle:
    """The every-input comparison that the certificate and the witness input
    replaced, kept as the reference: the engine agrees with the closed form
    at every input, and the report's maxima are the maxima over all
    inputs, bit for bit."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_small_size_and_keep_depth(self, n):
        for q, width in SMALL_SIZES:
            if width == n:
                for keep_depth in distinct_keep_depths(n):
                    rows = approximation_report(q, n, keep_depth)
                    assert every_input_pass(q, n, keep_depth, q ** n) == [
                        row.measured_t1 for row in rows], (q, n, keep_depth)

    def test_a_keep_depth_of_n_or_more_keeps_every_gate(self):
        for q, n in SMALL_SIZES:
            assert build_qft_circuit(q, n, n) == build_qft_circuit(q, n)


def dft_table(q, n, big):
    """The DFT's phase table at modulus ``q**big``, output digits reversed."""
    return [[q ** (big - 1 - l + a) if a <= l else 0 for l in range(n)] for a in range(n)]


def matrix_from_table(q, n, big, table):
    """The matrix that the phase table ``(big, table)`` describes: entry
    ``(y, x)`` is ``q**(-n/2) * exp(-2j*pi * sum E[a][l] x_a z_l / q**big)``,
    where ``z_l`` is digit ``n-1-l`` of ``y``."""
    dim, modulus = q ** n, q ** big
    index = np.arange(dim, dtype=np.int64)
    digits = [(index // q ** k) % q for k in range(n)]
    exponent = np.zeros((dim, dim), dtype=np.int64)
    for l in range(n):
        weight = sum(table[a][l] * digits[a] for a in range(n)) % modulus
        exponent += np.multiply.outer(digits[n - 1 - l], weight)
        exponent %= modulus
    roots = np.exp(-2j * np.pi * np.arange(modulus) / modulus) / math.sqrt(dim)
    return roots[exponent]


def nudged_circuit(circuit, index, op):
    """``circuit`` with its op ``index`` replaced by ``op`` (removed where
    ``op`` is None, or inserted before it where ``index`` is a 1-tuple)."""
    ops = list(circuit.ops)
    if isinstance(index, tuple):
        ops.insert(index[0], op)
    elif op is None:
        del ops[index]
    else:
        ops[index] = op
    return Circuit(circuit.radix, circuit.digits, ops, circuit.reverse_output_digits)


class TestPhaseTable:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_the_compiled_matrix(self, n):
        for q, width in SMALL_SIZES:
            if width == n:
                for keep_depth in distinct_keep_depths(n):
                    circuit = build_qft_circuit(q, n, keep_depth)
                    big, table = analysis._phase_table(circuit)
                    assert big == n
                    rebuilt = matrix_from_table(q, n, big, table)
                    assert np.abs(rebuilt - circuit_to_matrix(circuit)).max() <= 1e-13, (
                        q, n, keep_depth)

    @pytest.mark.parametrize("q,n", [(2, 62), (3, 39), (2, 12), (1024, 2), (4096, 1)])
    def test_exact_circuit_is_the_dft(self, q, n):
        assert analysis._phase_table(build_qft_circuit(q, n)) == (n, dft_table(q, n, n))

    @pytest.mark.parametrize("q,n,keep_depth", [(3, 7, 2), (2, 20, 3), (1024, 2, 1),
                                                (32, 4, 2), (7, 9, 3)])
    def test_pruned_circuit_is_the_dft_less_the_dropped_gates(self, q, n, keep_depth):
        expected = dft_table(q, n, n)
        for l in range(n):
            for k, s in analysis._dropped_gates(keep_depth, l):
                expected[k][l] -= q ** (n - s)
        table = analysis._phase_table(build_qft_circuit(q, n, keep_depth))
        assert table == (n, expected)

    # build_qft_circuit(3, 4): C3, P(2,3,2), P(1,3,3), P(0,3,4), C2, P(1,2,2),
    # P(0,2,3), C1, P(0,1,2), C0
    @pytest.mark.parametrize("index,op,none", [
        (2, GateOp.controlled_phase(0, 3, 3), False),  # control 1 swapped for 0
        (2, GateOp.controlled_phase(3, 1, 3), True),  # control and target swapped
        (5, GateOp.controlled_phase(1, 2, 3), False),  # denom_exp 2 -> 3
        (3, GateOp.controlled_phase(0, 3, 5), False),  # denom_exp past n: N = 5
        (5, None, False),  # a phase missing
        (4, None, True),  # a Chrestenson gate missing
        ((5,), GateOp.controlled_phase(1, 2, 2), False),  # a phase doubled
        ((0,), GateOp.controlled_phase(2, 3, 2), True),  # a phase before its gate
        ((5,), GateOp.chrestenson(3), True),  # a second Chrestenson gate on digit 3
        ((8,), GateOp.controlled_phase(2, 0, 2), True),  # a transformed control
    ])
    def test_a_nudged_circuit_has_another_table_or_none(self, index, op, none):
        exact = build_qft_circuit(3, 4)
        table = analysis._phase_table(nudged_circuit(exact, index, op))
        assert (table is None) == none
        assert table != analysis._phase_table(exact)

    def test_no_output_reversal_has_no_table(self):
        exact = build_qft_circuit(3, 4)
        assert analysis._phase_table(Circuit(3, 4, exact.ops)) is None

    @pytest.mark.parametrize("index,op,message", [
        (1, GateOp.controlled_phase(0, 2, 2), "control digit 0, target digit 2"),
        (1, GateOp.controlled_phase(1, 2, 3), "control digit 1, target digit 2"),
        (3, GateOp.controlled_phase(0, 1, 3), "control digit 0, target digit 1"),
        ((1,), GateOp.chrestenson(2), "the pruned circuit has no phase table"),
    ])
    def test_a_nudged_pruned_circuit_fails_bounds(self, monkeypatch, capsys, index, op,
                                                  message):
        # build_qft_circuit(3, 3, 2): C2, P(1,2,2), C1, P(0,1,2), C0
        build = analysis.build_qft_circuit
        monkeypatch.setattr(analysis, "build_qft_circuit",
                            lambda *args: nudged_circuit(build(*args), index, op))
        with pytest.raises(CrossCheckError, match=message):
            approximation_report(3, 3, 2)
        code = main(["bounds", "--radix", "3", "--digits", "3", "--keep-depth", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("verification failed: ") and message in captured.err


class TestCrossCheck:
    def test_catches_an_omitted_dropped_pair(self, monkeypatch, capsys):
        original = analysis._dropped_gates

        def missing_one(keep_depth, target_digit):
            return original(keep_depth, target_digit)[1:]

        monkeypatch.setattr(analysis, "_dropped_gates", missing_one)
        with pytest.raises(CrossCheckError, match="control digit 0, target digit 2"):
            approximation_report(3, 3, 2)
        code = main(["bounds", "--radix", "3", "--digits", "3", "--keep-depth", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("verification failed: ")

    @pytest.mark.parametrize("rows_per_chunk", [1, 7, 27])
    def test_names_the_first_failing_input_and_component(self, monkeypatch,
                                                         rows_per_chunk):
        # Nudge the reference's |2> component of bracket 1 at the last
        # input, the report's witness: the pruned circuit now disagrees with
        # it there, and only there, in the last chunk of the every-input pass.
        original = analysis._expected_slots

        def nudged(q, n, x, shifts):
            out = original(q, n, x, shifts)
            out[1, 2, x == 26] *= cmath.exp(1e-6j)
            return out

        monkeypatch.setattr(analysis, "_expected_slots", nudged)
        message = r"input 26, component 2 \(target digit 1\)"
        with pytest.raises(CrossCheckError, match=message):
            approximation_report(3, 3, 2)
        with pytest.raises(CrossCheckError, match=message):
            every_input_pass(3, 3, 2, rows_per_chunk)

    @pytest.mark.parametrize("rows_per_chunk", [1, 7, 27])
    def test_product_check_names_a_mid_range_input(self, monkeypatch, rows_per_chunk):
        # A nudge of input 13's |2> component of bracket 1, away from both
        # ends of the input range, is seen by the every-input pass.  In the
        # second case input 14 is nudged too, on a lower digit and
        # component, in the same chunk of 7 or 27 inputs: the smaller input
        # is still named, where a digit-first search would name 14.  The
        # report reads input 26 alone and comes out whole: a fault of the
        # engine at another input is the every-input pass's to find.
        whole = approximation_report(3, 3, 2)
        for nudges in ([(13, 1, 2)], [(13, 1, 2), (14, 0, 1)]):
            nudge_product(monkeypatch, 3, 3, 2, nudges)
            with pytest.raises(CrossCheckError,
                               match=r"input 13, component 2 \(target digit 1\)"):
                every_input_pass(3, 3, 2, rows_per_chunk)
            assert approximation_report(3, 3, 2) == whole

    @pytest.mark.parametrize("reference_input,message", [
        (0, r"input 0, component 1 \(target digit 2\)"),
        (26, r"input 13, component 2 \(target digit 1\)"),
    ])
    def test_names_the_smallest_input_over_both_checks(self, monkeypatch, reference_input,
                                                       message):
        # A fault in the reference (its bracket 2 |1> at input 0 or 26) and
        # one in the pruned run (at input 13), in chunks of 21 inputs: the
        # every-input pass names the smaller input, whichever side is at
        # fault.
        reference = analysis._expected_slots

        def reference_nudged(q, n, x, shifts):
            out = reference(q, n, x, shifts)
            out[2, 1, x == reference_input] *= cmath.exp(1e-6j)
            return out

        monkeypatch.setattr(analysis, "_expected_slots", reference_nudged)
        nudge_product(monkeypatch, 3, 3, 2, [(13, 1, 2)])
        with pytest.raises(CrossCheckError, match=message):
            every_input_pass(3, 3, 2, 21)

    def test_a_whole_slot_nudged_is_named_at_component_0(self, monkeypatch, capsys):
        # One common factor on every component of the pruned circuit's
        # slot 1 at the witness input 26: a ratio of components t and 0
        # would cancel it, but component 0 is held to the closed form too.
        nudge_product(monkeypatch, 3, 3, 2, [(26, 1, None)])
        with pytest.raises(CrossCheckError, match=r"input 26, component 0 \(target digit 1\)"):
            approximation_report(3, 3, 2)
        code = main(["bounds", "--radix", "3", "--digits", "3", "--keep-depth", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "input 26, component 0 (target digit 1)" in captured.err

    def test_sensitivity_does_not_fall_with_the_radix(self, monkeypatch):
        # At radix 64 a slot component has modulus 1/8, so exp(5e-9j) moves
        # it by 6.3e-10, below the tolerance; at unit modulus it moves 5e-9.
        q, n, keep_depth = 64, 2, 1
        nudge = cmath.exp(5e-9j)
        assert abs(nudge - 1) / math.sqrt(q) < analysis._CROSS_CHECK_TOL < abs(nudge - 1)
        nudge_product(monkeypatch, q, n, keep_depth, [(q ** n - 1, 1, 1)], nudge)
        with pytest.raises(CrossCheckError,
                           match=r"input 4095, component 1 \(target digit 1\)"):
            approximation_report(q, n, keep_depth)


class TestSlotOracle:
    @pytest.mark.parametrize("q,n,keep_depth", [(3, 3, 2), (5, 3, 2), (4, 2, 1), (3, 1, 1)])
    def test_conjugated_roots_fail(self, q, n, keep_depth, monkeypatch, capsys):
        # Conjugated Chrestenson roots turn the pruned circuit into a pruned
        # inverse QFT (at q = 2 the roots are real, and it is the QFT
        # itself).  Its phase table and dropped phases are still the ones
        # the report checks and sums, so only the closed form of the slots
        # at the witness input can see it: every digit q - 1 meets a root
        # that is not real.
        original = gates_module.chrestenson_roots
        for module in (gates_module, circuit_module):
            monkeypatch.setattr(module, "chrestenson_roots", lambda q: np.conj(original(q)))
        message = rf"input {q ** n - 1}, component 1 \(target digit 0\)"
        with pytest.raises(CrossCheckError, match=message):
            approximation_report(q, n, keep_depth)
        argv = ["bounds", "--radix", str(q), "--digits", str(n),
                "--keep-depth", str(keep_depth)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("verification failed: ")

    def test_a_simulation_fault_is_named_by_the_closed_form_only(self, monkeypatch):
        # exp(1e-6j) on the witness input's |2> component of bracket 1 of
        # the pruned run, whose phase table and dropped phases are still the
        # ones the report checks and sums
        whole = approximation_report(3, 3, 2)
        nudge_product(monkeypatch, 3, 3, 2, [(26, 1, 2)])
        with pytest.raises(CrossCheckError,
                           match=r"input 26, component 2 \(target digit 1\)"):
            approximation_report(3, 3, 2)
        # the closed form is the run's one reference: nudged the same way,
        # it agrees, and the report comes out whole
        reference = analysis._expected_slots

        def reference_nudged(q, n, x, shifts):
            out = reference(q, n, x, shifts)
            out[1, 2, x == 26] *= cmath.exp(1e-6j)
            return out

        monkeypatch.setattr(analysis, "_expected_slots", reference_nudged)
        assert approximation_report(3, 3, 2) == whole

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_a_nan_slot_fails(self, monkeypatch, capsys):
        # NaN passes a ``>`` test; the witness check fails it
        nudge_product(monkeypatch, 3, 3, 2, [(26, 0, 0)], np.nan)
        with pytest.raises(CrossCheckError, match=r"input 26, component 0 \(target digit 0\)"):
            approximation_report(3, 3, 2)
        code = main(["bounds", "--radix", "3", "--digits", "3", "--keep-depth", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "input 26" in captured.err

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_a_nan_slot_at_an_input_no_probe_reaches_fails(self, monkeypatch):
        # the every-input pass compares input 13 in the middle of the
        # range too
        nudge_product(monkeypatch, 3, 3, 2, [(13, 1, 2)], np.nan)
        with pytest.raises(CrossCheckError, match=r"input 13, component 2 \(target digit 1\)"):
            every_input_pass(3, 3, 2, 27)

    @pytest.mark.parametrize("q,n,keep_depth", [(3, 3, 2), (2, 7, 2), (2048, 1, 1)])
    def test_runs_no_dense_simulation(self, q, n, keep_depth, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the dense simulator ran")

        monkeypatch.setattr(dense_module, "_run_batch", refuse)
        monkeypatch.setattr(circuit_module, "chrestenson_gate", refuse)
        rows = approximation_report(q, n, keep_depth)
        assert [row.measured_t1 for row in rows] == brute_force_maxima(q, n, keep_depth)

    @pytest.mark.parametrize("q,n,keep_depth,limit_kib", [
        # 6, 3 and 8 MiB while every input ran in chunks of about 2**17
        # amplitudes; one input since, 211, 13, 25, 140 and 34 KiB (numpy
        # 2.4), most of it at radix 1024 and 2048 the long-double
        # temporaries of the q Chrestenson roots
        (2048, 1, 1, 224), (3, 7, 2, 16), (2, 16, 3, 32), (1024, 2, 1, 160), (2, 20, 3, 40),
    ])
    def test_peak_memory(self, q, n, keep_depth, limit_kib, traced_peak):
        _, peak = traced_peak(approximation_report, q, n, keep_depth)
        assert peak <= limit_kib * 2 ** 10


class TestCapacityMetrics:
    def test_binary_baseline(self):
        metrics = capacity_metrics(2, 7)
        assert metrics.state_space_ratio == 1.0
        assert metrics.qudit_savings_factor == 1.0

    def test_base3_four_digits(self):
        assert capacity_metrics(3, 4).state_space_ratio == 5.0625

    def test_base4_savings(self):
        assert capacity_metrics(4, 2).qudit_savings_factor == 2.0

    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_exact_closed_forms(self, q, n):
        metrics = capacity_metrics(q, n)
        assert metrics.state_space_ratio == (q / 2) ** n
        assert metrics.qudit_savings_factor == math.log2(q)

    def test_validation(self):
        with pytest.raises(ValueError):
            capacity_metrics(1, 3)
        with pytest.raises(ValueError):
            capacity_metrics(3, 0)

    @pytest.mark.parametrize("q,n", [(3, 2000), (3, 1751), (4, 1024)])
    def test_overflowing_ratio_raises_value_error(self, q, n):
        with pytest.raises(ValueError, match=rf"\({q}/2\)\*\*{n}"):
            capacity_metrics(q, n)

    def test_largest_finite_ratio(self):
        assert capacity_metrics(3, 1750).state_space_ratio == 1.5 ** 1750
