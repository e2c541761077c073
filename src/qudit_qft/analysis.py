"""Approximation-error analysis for pruned QFT circuits.

Pruning a controlled phase with denominator exponent s removes a factor
``exp(-2j*pi * c*t / q**s)`` from one output bracket.  This module gives
the single-gate error factor in closed, series, and trigonometric form,
the two closed-form worst-case bounds for multi-gate pruning, and a
measurement of the actual dropped phase over every basis input.  On a basis
input the QFT register stays a product of single-digit states, one per
output bracket, so the measurement runs every input through the
product-state simulator (``n*q`` amplitudes per input) and keeps the dense
simulator as a cross-check on the two boundary chunks of inputs only.  Phase
magnitudes are accumulated from the dropped-gate exponents directly, never
recovered through ``arg()``, so values above pi are reported without
wrap-around.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .circuit import _run_batch, _run_product, build_qft_circuit
from .numerics import check_params

# Simulated per-digit phases must agree with the dropped-exponent sums to
# this tolerance; a violation means the circuit and the closed form have
# diverged and is reported as an error rather than a measurement.
_CROSS_CHECK_TOL = 1e-9

# The measurement runs max(1, _CHUNK_AMPLITUDES // (n*q)) basis inputs at a
# time through the product-state simulator, and its two dense boundary
# chunks hold max(1, _CHUNK_AMPLITUDES // dim) rows each, so every buffer
# holds about max(_CHUNK_AMPLITUDES, dim) amplitudes (2 MiB at complex128 up
# to dim 2**17).  2**17 was the fastest of 2**15 to 2**19 at (q, n) = (2, 18)
# and (4, 9) and the fastest dense chunk at dims 2187 to 4096.
_CHUNK_AMPLITUDES = 2 ** 17


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
    (n*q))`` inputs at a time, and through the dense ``_run_batch`` on the
    two boundary row chunks of ``max(1, _CHUNK_AMPLITUDES // q**n)`` rows:
    the one holding input 0 and the one holding input ``q**n - 1``, where
    every dropped shift peaks.  The per-digit phase each bracket picks up
    is checked, for every input and every t in 1..q-1, against the sum of
    the dropped controlled-phase exponents; the maxima are taken over that
    (unwrapped) sum.  A mismatch raises ``CrossCheckError`` naming the
    smallest failing input.
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

    def first_mismatch(x, exact_slots, pruned_slots, shifts):
        """(input, target digit, component) of the first disagreement over
        ``(n, q, len(x))`` slots, smallest input first, or None."""
        simulated = (pruned_slots[:, 1:] / pruned_slots[:, :1]) / (
            exact_slots[:, 1:] / exact_slots[:, :1]
        )
        expected = np.exp(1j * np.arange(1, q)[:, np.newaxis] * shifts[:, np.newaxis])
        # (input, digit, component) order, so argmax finds the smallest input
        failed = (np.abs(simulated - expected) > _CROSS_CHECK_TOL).transpose(2, 0, 1)
        if not failed.any():
            return None
        row, l, t = np.unravel_index(np.argmax(failed), failed.shape)
        return int(x[row]), int(l), int(t) + 1

    mismatches = []
    # After the output reversal, component t of the bracket of register
    # digit l sits at output position n - 1 - l, in column t*q**(n-1-l);
    # column 0 holds every bracket's |0> component.  Gathered and
    # transposed, a dense chunk reads as the product engine's (n, q, rows)
    # slots.
    columns = np.outer(q ** (n - 1 - np.arange(n)), np.arange(q))
    rows = max(1, _CHUNK_AMPLITUDES // dim)
    for start in sorted({0, (dim - 1) // rows * rows}):
        x = np.arange(start, min(start + rows, dim))
        basis = np.zeros((len(x), dim), dtype=np.complex128)
        basis[np.arange(len(x)), x] = 1.0
        slots = [_run_batch(circuit, basis)[:, columns].transpose(1, 2, 0)
                 for circuit in (exact, pruned)]
        mismatches.append(first_mismatch(x, *slots, shifts_of(x)))
    rows = max(1, _CHUNK_AMPLITUDES // (n * q))
    maxima = np.zeros(n)
    # both circuits read the Chrestenson gate and their roots-of-unity
    # tables, of up to q**n entries, from here, each built once for the
    # whole pass
    cache = {}
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
    gate count and ``n*q`` rather than with ``q**n``, and through the dense
    simulator on the two boundary chunks only.  Each buffer holds about
    ``max(_CHUNK_AMPLITUDES, q**n)`` amplitudes.
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
