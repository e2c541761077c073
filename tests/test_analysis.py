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
    measure_bracket_phase_error,
    phase_error_factor,
    phase_error_series,
    phase_error_trig,
)
from qudit_qft import circuit as circuit_module
from qudit_qft.analysis import CrossCheckError
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


class TestMeasurement:
    @pytest.mark.parametrize("target", range(3))
    def test_unpruned_circuit_has_no_error(self, target):
        assert measure_bracket_phase_error(3, 3, None, target) == 0.0
        assert measure_bracket_phase_error(3, 3, 3, target) == 0.0

    def test_base3_single_drop(self):
        measured = measure_bracket_phase_error(3, 3, 2, 2)
        assert abs(measured - 4 * math.pi / 27) < 1e-12
        assert abs(measured - bound_new(3, 3, 1)) < 1e-12

    @pytest.mark.parametrize("keep_depth", [1, 2, 3, None])
    def test_most_significant_bracket_exact(self, keep_depth):
        assert measure_bracket_phase_error(2, 4, keep_depth, 0) == 0.0
        assert measure_bracket_phase_error(3, 4, keep_depth, 0) == 0.0

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("fraction_len,dropped", [(2, 1), (3, 1), (3, 2), (4, 2)])
    def test_worst_case_input_attains_closed_form(self, q, fraction_len, dropped):
        # digits q-1 in every dropped position push the sum to (q**m - 1)
        n = fraction_len
        keep_depth = fraction_len - dropped
        measured = measure_bracket_phase_error(q, n, keep_depth, fraction_len - 1)
        expected = 2 * math.pi * (q ** dropped - 1) / q ** fraction_len
        assert abs(measured - expected) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            measure_bracket_phase_error(3, 3, 0, 1)
        with pytest.raises(ValueError):
            measure_bracket_phase_error(3, 3, 2, 3)
        with pytest.raises(ValueError):
            measure_bracket_phase_error(1, 3, 2, 0)


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


def record_batch_sizes(monkeypatch):
    """Make the analysis record the row count of every batch it simulates."""
    sizes = []
    original = analysis._run_batch

    def recording(circuit, amplitude_rows):
        sizes.append(len(amplitude_rows))
        return original(circuit, amplitude_rows)

    monkeypatch.setattr(analysis, "_run_batch", recording)
    return sizes


def record_product_calls(monkeypatch):
    """Make the analysis record the circuit and inputs of every product run."""
    calls = []
    original = analysis._run_product

    def recording(circuit, x, cache, largest_table):
        calls.append((circuit, x.copy()))
        return original(circuit, x, cache, largest_table)

    monkeypatch.setattr(analysis, "_run_product", recording)
    return calls


def boundary_chunk_sizes(dim, rows_per_chunk):
    """Row counts of the dense chunks holding input 0 and input dim - 1."""
    starts = sorted({0, (dim - 1) // rows_per_chunk * rows_per_chunk})
    return [min(rows_per_chunk, dim - start) for start in starts]


def assert_one_product_run_per_chunk(calls, q, n, keep_depth):
    """Each product chunk runs the exact, then the pruned circuit, once each,
    and the chunks cover every input once, in order."""
    exact = analysis.build_qft_circuit(q, n)
    pruned = analysis.build_qft_circuit(q, n, keep_depth)
    assert [circuit for circuit, _ in calls] == [exact, pruned] * (len(calls) // 2)
    chunks = [x for _, x in calls[::2]]
    assert [x.tolist() for x in chunks] == [x.tolist() for _, x in calls[1::2]]
    rows = max(1, analysis._CHUNK_AMPLITUDES // (n * q))
    assert all(len(x) == rows for x in chunks[:-1])
    assert np.array_equal(np.concatenate(chunks), np.arange(q ** n))


class TestOneSimulationPerReport:
    @pytest.mark.parametrize("keep_depth", [None, 1, 2, 3])
    @pytest.mark.parametrize("q,n", [(2, 5), (3, 4), (4, 3), (5, 3)])
    def test_rows_equal_brute_force(self, q, n, keep_depth):
        expected = brute_force_maxima(q, n, keep_depth)
        rows = approximation_report(q, n, keep_depth)
        assert [row.measured_t1 for row in rows] == expected
        assert [row.measured_max_t for row in rows] == [(q - 1) * w for w in expected]
        assert [measure_bracket_phase_error(q, n, keep_depth, target)
                for target in range(n)] == expected

    def test_one_simulation_per_circuit(self, monkeypatch):
        sizes = record_batch_sizes(monkeypatch)
        calls = record_product_calls(monkeypatch)
        approximation_report(3, 4, 2)
        assert sizes == [81, 81]
        assert_one_product_run_per_chunk(calls, 3, 4, 2)

    @pytest.mark.parametrize("q,n,keep_depth", [(3, 3, 2), (2, 5, 2), (3, 3, None)])
    @pytest.mark.parametrize("rows_per_chunk", [1, 7])
    def test_uneven_chunks_give_the_same_rows(self, monkeypatch, q, n, keep_depth,
                                              rows_per_chunk):
        dim = q ** n
        whole = approximation_report(q, n, keep_depth)
        sizes = record_batch_sizes(monkeypatch)
        calls = record_product_calls(monkeypatch)
        monkeypatch.setattr(analysis, "_CHUNK_AMPLITUDES", rows_per_chunk * dim)
        assert approximation_report(q, n, keep_depth) == whole
        chunks = boundary_chunk_sizes(dim, rows_per_chunk)
        assert sizes == [size for size in chunks for _ in range(2)]
        assert_one_product_run_per_chunk(calls, q, n, keep_depth)

    def test_gate_and_tables_are_built_once_per_report(self, monkeypatch):
        # 81 and 12 product chunks, both with two one-row dense chunks: the
        # number of gates and root tables built must not grow with chunks
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
        # Nudge the last input's |2> component of bracket 1 (output column
        # 2*3) in the pruned simulation only; the exact one stays as is.
        pruned = analysis.build_qft_circuit(3, 3, 2)
        original = analysis._run_batch

        def nudged(circuit, amplitude_rows):
            out = original(circuit, amplitude_rows)
            if circuit == pruned:
                out[amplitude_rows[:, 26] == 1, 6] *= cmath.exp(1e-6j)
            return out

        monkeypatch.setattr(analysis, "_run_batch", nudged)
        monkeypatch.setattr(analysis, "_CHUNK_AMPLITUDES", rows_per_chunk * 27)
        with pytest.raises(CrossCheckError, match=r"input 26, component 2 \(target digit 1\)"):
            approximation_report(3, 3, 2)

    @pytest.mark.parametrize("rows_per_chunk", [1, 7, 27])
    def test_product_check_names_a_mid_range_input(self, monkeypatch, rows_per_chunk):
        # Input 13 lies in neither dense boundary chunk, so only the product
        # check can see a nudge of its |2> component of bracket 1.
        pruned = analysis.build_qft_circuit(3, 3, 2)
        original = analysis._run_product

        def nudged(circuit, x, cache, largest_table):
            out = original(circuit, x, cache, largest_table)
            if circuit == pruned:
                out[x == 13, 1, 2] *= cmath.exp(1e-6j)
            return out

        monkeypatch.setattr(analysis, "_run_product", nudged)
        monkeypatch.setattr(analysis, "_CHUNK_AMPLITUDES", rows_per_chunk * 27)
        with pytest.raises(CrossCheckError, match=r"input 13, component 2 \(target digit 1\)"):
            approximation_report(3, 3, 2)

    @pytest.mark.parametrize("dense_input,message", [
        (0, r"input 0, component 1 \(target digit 2\)"),
        (26, r"input 13, component 2 \(target digit 1\)"),
    ])
    def test_names_the_smallest_input_over_both_checks(self, monkeypatch, dense_input,
                                                       message):
        # A dense failure at a boundary input (column 1 is bracket 2's |1>)
        # and a product failure at input 13: the smaller input is reported,
        # whichever check finds it.
        pruned = analysis.build_qft_circuit(3, 3, 2)
        dense, product = analysis._run_batch, analysis._run_product

        def dense_nudged(circuit, amplitude_rows):
            out = dense(circuit, amplitude_rows)
            if circuit == pruned:
                out[amplitude_rows[:, dense_input] == 1, 1] *= cmath.exp(1e-6j)
            return out

        def product_nudged(circuit, x, cache, largest_table):
            out = product(circuit, x, cache, largest_table)
            if circuit == pruned:
                out[x == 13, 1, 2] *= cmath.exp(1e-6j)
            return out

        monkeypatch.setattr(analysis, "_run_batch", dense_nudged)
        monkeypatch.setattr(analysis, "_run_product", product_nudged)
        monkeypatch.setattr(analysis, "_CHUNK_AMPLITUDES", 7 * 27)
        with pytest.raises(CrossCheckError, match=message):
            approximation_report(3, 3, 2)


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
