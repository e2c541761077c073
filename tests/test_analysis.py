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
from qudit_qft import dense as dense_module
from qudit_qft import gates as gates_module
from qudit_qft.numerics import CrossCheckError
from qudit_qft.cli import main


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

    def recording(circuit, x, cache, largest_table):
        calls.append((circuit, x.copy()))
        return original(circuit, x, cache, largest_table)

    def recording_reference(q, n, x, shifts):
        reference_inputs.append(np.array(x, copy=True))
        return reference(q, n, x, shifts)

    monkeypatch.setattr(analysis, "_run_product", recording)
    monkeypatch.setattr(analysis, "_expected_slots", recording_reference)
    return calls, reference_inputs


def assert_one_product_run_per_chunk(calls, reference_inputs, q, n, keep_depth):
    """One product run per chunk and no other: each chunk runs the pruned
    circuit once, the chunks cover every input once, in order, and every
    chunk but the last holds ``max(1, _CHUNK_AMPLITUDES // (n*q))`` inputs.
    The closed-form reference is built once per chunk, on the chunk's
    inputs."""
    pruned = analysis.build_qft_circuit(q, n, keep_depth)
    assert [circuit for circuit, _ in calls] == [pruned] * len(calls)
    chunks = [x for _, x in calls]
    assert [x.tolist() for x in chunks] == [x.tolist() for x in reference_inputs]
    dim = q ** n
    rows = max(1, analysis._CHUNK_AMPLITUDES // (n * q))
    assert all(len(x) == rows for x in chunks[:-1])
    assert np.array_equal(np.concatenate(chunks), np.arange(dim))


class TestOneSimulationPerReport:
    @pytest.mark.parametrize("keep_depth", [None, 1, 2, 3])
    @pytest.mark.parametrize("q,n", [(2, 5), (3, 4), (4, 3), (5, 3)])
    def test_rows_equal_brute_force(self, q, n, keep_depth):
        expected = brute_force_maxima(q, n, keep_depth)
        rows = approximation_report(q, n, keep_depth)
        assert [row.measured_t1 for row in rows] == expected
        assert [row.measured_max_t for row in rows] == [(q - 1) * w for w in expected]

    def test_one_simulation_per_circuit(self, monkeypatch):
        calls, reference_inputs = record_product_calls(monkeypatch)
        approximation_report(3, 4, 2)
        assert len(calls) == 1  # the one chunk of 81
        assert_one_product_run_per_chunk(calls, reference_inputs, 3, 4, 2)

    @pytest.mark.parametrize("q,n,keep_depth", [(3, 3, 2), (2, 5, 2), (3, 3, None)])
    @pytest.mark.parametrize("rows_per_chunk", [1, 7])
    def test_uneven_chunks_give_the_same_rows(self, monkeypatch, q, n, keep_depth,
                                              rows_per_chunk):
        dim = q ** n
        whole = approximation_report(q, n, keep_depth)
        calls, reference_inputs = record_product_calls(monkeypatch)
        monkeypatch.setattr(analysis, "_CHUNK_AMPLITUDES", rows_per_chunk * dim)
        assert approximation_report(q, n, keep_depth) == whole
        rows = max(1, rows_per_chunk * dim // (n * q))
        assert len(calls) == -(-dim // rows)
        assert_one_product_run_per_chunk(calls, reference_inputs, q, n, keep_depth)

    def test_gate_and_tables_are_built_once_per_report(self, monkeypatch):
        # 81 and 12 product chunks: the number of gates and root tables
        # built must not grow with chunks
        builds = []
        for name in ("chrestenson_gate", "roots_of_unity"):
            original = getattr(circuit_module, name)

            def counting(*args, original=original, name=name):
                builds.append(name)
                return original(*args)

            monkeypatch.setattr(circuit_module, name, counting)
        counts = []
        for inputs_per_chunk in (1, 7):
            monkeypatch.setattr(analysis, "_CHUNK_AMPLITUDES", inputs_per_chunk * 4 * 3)
            builds.clear()
            approximation_report(3, 4, 2)
            counts.append(sorted(builds))
        assert counts[0] == counts[1]

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


class TestCrossCheck:
    def test_catches_an_omitted_dropped_pair(self, monkeypatch, capsys):
        original = analysis._dropped_gates

        def missing_one(keep_depth, target_digit):
            return original(keep_depth, target_digit)[1:]

        monkeypatch.setattr(analysis, "_dropped_gates", missing_one)
        with pytest.raises(CrossCheckError):
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
        # input: the pruned circuit now disagrees with it there, and only
        # there, in the last chunk.
        original = analysis._expected_slots

        def nudged(q, n, x, shifts):
            out = original(q, n, x, shifts)
            out[1, 2, x == 26] *= cmath.exp(1e-6j)
            return out

        monkeypatch.setattr(analysis, "_expected_slots", nudged)
        monkeypatch.setattr(analysis, "_CHUNK_AMPLITUDES", rows_per_chunk * 27)
        with pytest.raises(CrossCheckError, match=r"input 26, component 2 \(target digit 1\)"):
            approximation_report(3, 3, 2)

    @pytest.mark.parametrize("rows_per_chunk", [1, 7, 27])
    def test_product_check_names_a_mid_range_input(self, monkeypatch, rows_per_chunk):
        # A nudge of input 13's |2> component of bracket 1, away from both
        # ends of the input range, is seen.  In the second case input 14 is
        # nudged too, on a lower digit and component, in the same product
        # chunk of 3, 21 or 81 inputs: the smaller input is still named,
        # where a digit-first search would name 14.
        pruned = analysis.build_qft_circuit(3, 3, 2)
        original = analysis._run_product
        monkeypatch.setattr(analysis, "_CHUNK_AMPLITUDES", rows_per_chunk * 27)
        for nudges in ([(13, 1, 2)], [(13, 1, 2), (14, 0, 1)]):
            def nudged(circuit, x, cache, largest_table, nudges=nudges):
                out = original(circuit, x, cache, largest_table)
                if circuit == pruned:
                    for value, digit, component in nudges:
                        out[digit, component, x == value] *= cmath.exp(1e-6j)
                return out

            monkeypatch.setattr(analysis, "_run_product", nudged)
            with pytest.raises(CrossCheckError,
                               match=r"input 13, component 2 \(target digit 1\)"):
                approximation_report(3, 3, 2)

    @pytest.mark.parametrize("reference_input,message", [
        (0, r"input 0, component 1 \(target digit 2\)"),
        (26, r"input 13, component 2 \(target digit 1\)"),
    ])
    def test_names_the_smallest_input_over_both_checks(self, monkeypatch, reference_input,
                                                       message):
        # A fault in the reference (its bracket 2 |1> at input 0 or 26) and
        # one in the pruned run (at input 13), in chunks of 21 inputs: the
        # smaller input is reported, whichever side is at fault.
        pruned = analysis.build_qft_circuit(3, 3, 2)
        reference, product = analysis._expected_slots, analysis._run_product

        def reference_nudged(q, n, x, shifts):
            out = reference(q, n, x, shifts)
            out[2, 1, x == reference_input] *= cmath.exp(1e-6j)
            return out

        def product_nudged(circuit, x, cache, largest_table):
            out = product(circuit, x, cache, largest_table)
            if circuit == pruned:
                out[1, 2, x == 13] *= cmath.exp(1e-6j)
            return out

        monkeypatch.setattr(analysis, "_expected_slots", reference_nudged)
        monkeypatch.setattr(analysis, "_run_product", product_nudged)
        monkeypatch.setattr(analysis, "_CHUNK_AMPLITUDES", 7 * 27)
        with pytest.raises(CrossCheckError, match=message):
            approximation_report(3, 3, 2)

    def test_a_whole_slot_nudged_is_named_at_component_0(self, monkeypatch, capsys):
        # One common factor on every component of the pruned circuit's
        # slot 1 at input 13: a ratio of components t and 0 would cancel
        # it, but component 0 is held to the closed form too.
        pruned = analysis.build_qft_circuit(3, 3, 2)
        original = analysis._run_product

        def nudged(circuit, x, cache, largest_table):
            out = original(circuit, x, cache, largest_table)
            if circuit == pruned:
                out[1, :, x == 13] *= cmath.exp(1e-6j)
            return out

        monkeypatch.setattr(analysis, "_run_product", nudged)
        with pytest.raises(CrossCheckError, match=r"input 13, component 0 \(target digit 1\)"):
            approximation_report(3, 3, 2)
        code = main(["bounds", "--radix", "3", "--digits", "3", "--keep-depth", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "input 13, component 0 (target digit 1)" in captured.err

    def test_sensitivity_does_not_fall_with_the_radix(self, monkeypatch):
        # At radix 64 a slot component has modulus 1/8, so exp(5e-9j) moves
        # it by 6.3e-10, below the tolerance; at unit modulus it moves 5e-9.
        q, n, keep_depth = 64, 2, 1
        nudge = cmath.exp(5e-9j)
        assert abs(nudge - 1) / math.sqrt(q) < analysis._CROSS_CHECK_TOL < abs(nudge - 1)
        pruned = analysis.build_qft_circuit(q, n, keep_depth)
        original = analysis._run_product

        def nudged(circuit, x, cache, largest_table):
            out = original(circuit, x, cache, largest_table)
            if circuit == pruned:
                out[1, 1, x == 1] *= nudge
            return out

        monkeypatch.setattr(analysis, "_run_product", nudged)
        with pytest.raises(CrossCheckError, match=r"input 1, component 1 \(target digit 1\)"):
            approximation_report(q, n, keep_depth)


class TestSlotOracle:
    @pytest.mark.parametrize("q,n,keep_depth", [(3, 3, 2), (5, 3, 2), (4, 2, 1), (3, 1, 1)])
    def test_conjugated_roots_fail(self, q, n, keep_depth, monkeypatch, capsys):
        # Conjugated Chrestenson roots turn the pruned circuit into a pruned
        # inverse QFT (at q = 2 the roots are real, and it is the QFT
        # itself).  Its dropped phases are still the ones the report sums,
        # so only the closed form of the slots can see it.
        original = gates_module.chrestenson_roots
        for module in (gates_module, circuit_module):
            monkeypatch.setattr(module, "chrestenson_roots", lambda q: np.conj(original(q)))
        with pytest.raises(CrossCheckError):
            approximation_report(q, n, keep_depth)
        argv = ["bounds", "--radix", str(q), "--digits", str(n),
                "--keep-depth", str(keep_depth)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("verification failed: ")

    def test_a_simulation_fault_is_named_by_the_closed_form_only(self, monkeypatch):
        # exp(1e-6j) on input 13's |2> component of bracket 1 of the pruned
        # run, whose dropped phases are still the ones the report sums
        whole = approximation_report(3, 3, 2)
        original = analysis._run_product

        def nudged(circuit, x, cache, largest_table):
            out = original(circuit, x, cache, largest_table)
            out[1, 2, x == 13] *= cmath.exp(1e-6j)
            return out

        monkeypatch.setattr(analysis, "_run_product", nudged)
        with pytest.raises(CrossCheckError,
                           match=r"input 13, component 2 \(target digit 1\)"):
            approximation_report(3, 3, 2)
        # the closed form is the run's one reference: nudged the same way,
        # it agrees, and the report comes out whole
        reference = analysis._expected_slots

        def reference_nudged(q, n, x, shifts):
            out = reference(q, n, x, shifts)
            out[1, 2, x == 13] *= cmath.exp(1e-6j)
            return out

        monkeypatch.setattr(analysis, "_expected_slots", reference_nudged)
        assert approximation_report(3, 3, 2) == whole

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_a_nan_slot_fails(self, monkeypatch):
        original = analysis._run_product

        def broken(circuit, x, cache, largest_table):
            out = original(circuit, x, cache, largest_table)
            out[0, 0, x == 0] = np.nan
            return out

        monkeypatch.setattr(analysis, "_run_product", broken)
        with pytest.raises(CrossCheckError, match=r"input 0, component 0 \(target digit 0\)"):
            approximation_report(3, 3, 2)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_a_nan_slot_at_an_input_no_probe_reaches_fails(self, monkeypatch, capsys):
        # every input is compared, input 13 in the middle of the range
        # too, and NaN passes a ``>`` test
        pruned = analysis.build_qft_circuit(3, 3, 2)
        original = analysis._run_product

        def broken(circuit, x, cache, largest_table):
            out = original(circuit, x, cache, largest_table)
            if circuit == pruned:
                out[1, 2, x == 13] = np.nan
            return out

        monkeypatch.setattr(analysis, "_run_product", broken)
        with pytest.raises(CrossCheckError, match=r"input 13, component 2 \(target digit 1\)"):
            approximation_report(3, 3, 2)
        code = main(["bounds", "--radix", "3", "--digits", "3", "--keep-depth", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "input 13" in captured.err

    @pytest.mark.parametrize("q,n,keep_depth", [(3, 3, 2), (2, 7, 2), (2048, 1, 1)])
    def test_runs_no_dense_simulation(self, q, n, keep_depth, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the dense simulator ran")

        monkeypatch.setattr(dense_module, "_run_batch", refuse)
        monkeypatch.setattr(circuit_module, "chrestenson_gate", refuse)
        rows = approximation_report(q, n, keep_depth)
        assert [row.measured_t1 for row in rows] == brute_force_maxima(q, n, keep_depth)

    @pytest.mark.parametrize("q,n,keep_depth,limit_mib", [
        # 108 and 6.1 MiB while two dense boundary chunks ran, at radix
        # 2048 with the 64 MiB q x q gate; 11 and 3.2 MiB without them,
        # while a probe run came before the pass; 7.2, 2.6 and 9.4 MiB
        # while the exact circuit ran beside the pruned one, its tables up
        # to q**n roots; 4.3, 1.9 and 5.5 MiB since (numpy 2.4)
        (2048, 1, 1, 6), (3, 7, 2, 3), (2, 16, 3, 8),
    ])
    def test_peak_memory(self, q, n, keep_depth, limit_mib, traced_peak):
        _, peak = traced_peak(approximation_report, q, n, keep_depth)
        assert peak <= limit_mib * 2 ** 20


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
