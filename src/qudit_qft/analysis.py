"""Approximation-error analysis for pruned QFT circuits.

Pruning a controlled phase with denominator exponent s removes a factor
``exp(-2j*pi * c*t / q**s)`` from one output bracket.  This module gives
the single-gate error factor in closed, series, and trigonometric form,
the two closed-form worst-case bounds for multi-gate pruning, and a
measurement of the actual dropped phase over every basis input.  On a basis
input the QFT register stays a product of single-digit states, one per
output bracket, so the measurement runs every input through the
product-state simulator (``n*q`` amplitudes per input) and no input through
the dense one.  The closed-form slot oracle ``qft_slots`` cross-checks both
circuits' absolute slots on a spread of probe inputs.  Phase magnitudes are
accumulated from the dropped-gate exponents directly, never recovered
through ``arg()``, so values above pi are reported without wrap-around.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .circuit import _run_product, build_qft_circuit, qft_slots
from .numerics import check_params

# Simulated per-digit phases must agree with the dropped-exponent sums to
# this tolerance; a violation means the circuit and the closed form have
# diverged and is reported as an error rather than a measurement.
_CROSS_CHECK_TOL = 1e-9

# The measurement runs max(1, _CHUNK_AMPLITUDES // (n*q)) basis inputs at a
# time through the product-state simulator, so each of its buffers holds
# about _CHUNK_AMPLITUDES amplitudes (2 MiB at complex128).  2**17 was the
# fastest of 2**15 to 2**19 at (q, n) = (2, 18) and (4, 9).  With no dense
# simulation, the traced peak of a report is 3.2 MiB at (3, 7, 2) and 11
# MiB at (2048, 1, 1) (6.1 and 108 MiB with dense boundary chunks, whose
# (rows, q**n) buffers and q x q gate set it).
_CHUNK_AMPLITUDES = 2 ** 17

# Basis inputs the slot oracle checks on both circuits, evenly spaced from 0
# to q**n - 1 (every input below this many).  Every size the CLI accepts
# has n*q <= 2048, so they are at most one chunk of the pass.  Arithmetic,
# not numpy.random, picks them: importing numpy.random raises the CLI's
# peak RSS from 29.8 to 35.4 MiB (child ru_maxrss, median of 5).
_PROBE_INPUTS = 64


class CrossCheckError(RuntimeError):
    """A simulated bracket phase disagrees with its dropped-exponent sum."""


@dataclass(frozen=True)
class BoundRow:
    """Measured and bounded phase error for one output bracket.

    ``target_digit`` is the register digit carrying the bracket of
    fraction length ``fraction_len`` (target_digit + 1); ``dropped_count``
    is the number of least significant digits whose controlled phases were
    pruned from that bracket.  ``measured_t1`` is the worst dropped phase
    on the bracket's |1> component over all basis inputs; ``measured_max_t``
    is the worst over all |t> components, which scale the phase by t.
    """

    radix: int
    digits: int
    target_digit: int
    fraction_len: int
    dropped_count: int
    measured_t1: float
    measured_max_t: float
    bound_new: float
    bound_coppersmith: float

    @property
    def phase_wrapped(self) -> bool:
        """True when the bound leaves the wrap-safe regime (>= pi)."""
        return self.bound_new >= math.pi


@dataclass(frozen=True)
class CapacityMetrics:
    """State-space and digit-count scaling of base q against base 2."""

    radix: int
    digits: int
    state_space_ratio: float
    qudit_savings_factor: float


def phase_error_factor(q: int, l: int) -> complex:
    """Worst-case multiplicative error ``exp(-2j*pi*(q-1)/q**l)`` from
    omitting a single controlled phase with denominator exponent l."""
    check_params(radix=q, denom_exp=l)
    return cmath.exp(-2j * cmath.pi * (q - 1) / q ** l)


def phase_error_series(q: int, l: int, terms: int) -> complex:
    """Maclaurin partial sum of the single-gate error factor.

    Sums ``z**k / k!`` for k < terms with ``z = -2j*pi*(q-1)/q**l``.
    Because z is purely imaginary, the integral form of the remainder gives
    ``|sum - exp(z)| <= |z|**terms / terms!``; rounding adds to that.
    """
    check_params(radix=q, denom_exp=l, terms=terms)
    z = -2j * cmath.pi * (q - 1) / q ** l
    total = 0j
    term = 1.0 + 0j
    for k in range(terms):
        total += term
        term *= z / (k + 1)
    return total


def phase_error_trig(q: int, l: int) -> complex:
    """The same single-gate error factor written as cos(theta) - i sin(theta)."""
    check_params(radix=q, denom_exp=l)
    theta = 2.0 * math.pi * (q - 1) / q ** l
    return complex(math.cos(theta), -math.sin(theta))


def bound_coppersmith(q: int, fraction_len: int, dropped_count: int) -> float:
    """Classical worst-case phase bound ``2*pi*m*q**m*(q-1) / q**L`` for a
    bracket of fraction length L with m digits dropped."""
    check_params(radix=q, dropped_count=dropped_count)
    if dropped_count > fraction_len:
        raise ValueError("cannot drop more digits than the fraction holds")
    m = dropped_count
    return 2.0 * math.pi * m * q ** m * (q - 1) / q ** fraction_len


def bound_new(q: int, fraction_len: int, dropped_count: int) -> float:
    """Tighter phase bound ``2*pi*(q**m - 1) / q**L`` from summing the
    dropped digit weights in closed form."""
    check_params(radix=q, dropped_count=dropped_count)
    if dropped_count > fraction_len:
        raise ValueError("cannot drop more digits than the fraction holds")
    return 2.0 * math.pi * (q ** dropped_count - 1) / q ** fraction_len


def _dropped_gates(keep_depth: int | None, target_digit: int) -> list[tuple[int, int]]:
    """(control, denom_exp) pairs pruned from the target's bracket."""
    if keep_depth is None:
        return []
    return [
        (k, target_digit - k + 1)
        for k in range(target_digit)
        if target_digit - k + 1 > keep_depth
    ]


def _bracket_phase_maxima(q: int, n: int, keep_depth: int | None) -> list[float]:
    """Worst dropped phase on every bracket's |1> component, in target order.

    Runs the exact and the pruned circuit on every basis input through the
    product-state simulator ``_run_product``, ``max(1, _CHUNK_AMPLITUDES //
    (n*q))`` inputs at a time.  The per-digit phase each bracket picks up
    (the pruned over the exact ratio) is checked, for every input and every
    t in 1..q-1, against the sum of the dropped controlled-phase exponents;
    the maxima are taken over that (unwrapped) sum.  Before that pass, one
    product run of ``min(q**n, _PROBE_INPUTS)`` probe inputs, evenly spaced
    from 0 to ``q**n - 1`` (where every digit is nonzero and every dropped
    shift peaks), checks each circuit's absolute slots against the closed
    form ``qft_slots``, times ``exp(+1j*t*shift)`` for the pruned one.  A
    mismatch in either check raises ``CrossCheckError`` naming the smallest
    failing input over both.
    """
    dim = q ** n
    dropped = [_dropped_gates(keep_depth, l) for l in range(n)]
    exact = build_qft_circuit(q, n)
    pruned = build_qft_circuit(q, n, keep_depth)

    def shifts_of(x):
        digits = [(x // q ** k) % q for k in range(n)]
        shifts = np.zeros((n, len(x)))
        for l in range(n):
            for k, s in dropped[l]:
                shifts[l] += 2.0 * math.pi * digits[k] / q ** s
        return shifts

    def first_failure(x, failed, first_component):
        """(input, target digit, component) of the first True in an ``(n,
        components, len(x))`` mask whose components start at
        ``first_component``, smallest input first, or None."""
        # (input, digit, component) order, so argmax finds the smallest input
        failed = failed.transpose(2, 0, 1)
        if not failed.any():
            return None
        row, l, t = np.unravel_index(np.argmax(failed), failed.shape)
        return int(x[row]), int(l), int(t) + first_component

    def first_mismatch(x, exact_slots, pruned_slots, shifts):
        """The first failure of the ratio check over ``(n, q, len(x))``
        slots, or None.  A NaN slot fails too."""
        simulated = (pruned_slots[:, 1:] / pruned_slots[:, :1]) / (
            exact_slots[:, 1:] / exact_slots[:, :1]
        )
        expected = np.exp(1j * np.arange(1, q)[:, np.newaxis] * shifts[:, np.newaxis])
        return first_failure(x, ~(np.abs(simulated - expected) <= _CROSS_CHECK_TOL), 1)

    # both circuits read the Chrestenson gate's q scaled roots and their
    # roots-of-unity tables, of up to q**n entries, from here, each built
    # once for the probe run and the whole pass
    cache = {}
    def oracle_mismatches():
        """The first failure of the slot oracle on the probe inputs, for
        the exact and then the pruned circuit (each None if it passes).

        The oracle checks absolute slots, not ratios, so it sees a fault
        that both circuits share.  The pruned circuit's bracket l lacks
        ``exp(-1j*t*shift)``, so its component t is the exact one times
        ``exp(+1j*t*shift)``.  A NaN slot fails too.
        """
        count = min(dim, _PROBE_INPUTS)
        x = np.array([i * (dim - 1) // (count - 1) for i in range(count)],
                     dtype=np.int64)
        oracle = qft_slots(q, n, x)
        drift = np.exp(1j * np.arange(q)[:, np.newaxis] * shifts_of(x)[:, np.newaxis])
        mismatches = []
        for circuit, expected in ((exact, oracle), (pruned, oracle * drift)):
            distance = np.abs(_run_product(circuit, x, cache, dim) - expected)
            mismatches.append(first_failure(x, ~(distance <= _CROSS_CHECK_TOL), 0))
        return mismatches

    mismatches = oracle_mismatches()
    rows = max(1, _CHUNK_AMPLITUDES // (n * q))
    maxima = np.zeros(n)
    for start in range(0, dim, rows):
        x = np.arange(start, min(start + rows, dim))
        shifts = shifts_of(x)
        mismatches.append(first_mismatch(
            x, _run_product(exact, x, cache, dim), _run_product(pruned, x, cache, dim),
            shifts,
        ))
        # inputs rise chunk by chunk, so later chunks hold no smaller failure
        if mismatches[-1] is not None:
            break
        maxima = np.maximum(maxima, shifts.max(axis=1))
    failures = [mismatch for mismatch in mismatches if mismatch is not None]
    if failures:
        value, l, t = min(failures)
        raise CrossCheckError(
            "simulated bracket phase disagrees with the dropped-gate "
            f"exponent sum at input {value}, component {t} (target digit {l})"
        )
    return [float(worst) for worst in maxima]


def approximation_report(q: int, n: int, keep_depth: int | None) -> list[BoundRow]:
    """One BoundRow per output bracket for the given pruning depth.

    Every row's measurement comes from one pass over the basis inputs, which
    runs the exact and the pruned circuit through the product-state
    simulator in chunks of inputs, with work per input that grows with the
    gate count and ``n*q`` rather than with ``q**n``; the slot oracle checks
    both on up to ``_PROBE_INPUTS`` of them.  No dense simulation runs and
    no q x q gate is built: each buffer holds about ``_CHUNK_AMPLITUDES``
    amplitudes.
    """
    check_params(radix=q, digits=n, keep_depth=keep_depth)
    maxima = _bracket_phase_maxima(q, n, keep_depth)
    rows = []
    for target_digit, measured in enumerate(maxima):
        fraction_len = target_digit + 1
        if keep_depth is None:
            dropped_count = 0
        else:
            dropped_count = max(0, fraction_len - keep_depth)
        rows.append(
            BoundRow(
                radix=q,
                digits=n,
                target_digit=target_digit,
                fraction_len=fraction_len,
                dropped_count=dropped_count,
                measured_t1=measured,
                measured_max_t=(q - 1) * measured,
                bound_new=bound_new(q, fraction_len, dropped_count),
                bound_coppersmith=bound_coppersmith(q, fraction_len, dropped_count),
            )
        )
    return rows


def capacity_metrics(q: int, n: int) -> CapacityMetrics:
    """State-space factor ``(q/2)**n`` and digit-savings factor ``log2(q)``.

    Raises ``ValueError`` when ``(q/2)**n`` does not fit in a float.
    """
    check_params(radix=q, digits=n)
    try:
        state_space_ratio = (q / 2) ** n
    except OverflowError:
        raise ValueError(f"state-space ratio ({q}/2)**{n} overflows a float") from None
    return CapacityMetrics(
        radix=q,
        digits=n,
        state_space_ratio=state_space_ratio,
        qudit_savings_factor=math.log2(q),
    )
