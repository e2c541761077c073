"""Approximation-error analysis for pruned QFT circuits.

Pruning a controlled phase with denominator exponent s removes a factor
``exp(-2j*pi * c*t / q**s)`` from one output bracket.  This module gives
the single-gate error factor in closed, series, and trigonometric form,
the two closed-form worst-case bounds for multi-gate pruning, and a
measurement of the actual dropped phase over every basis input.  On a basis
input the QFT register stays a product of single-digit states, one per
output bracket, so the measurement runs every input through the
product-state simulator (``n*q`` amplitudes per input) and no input through
the dense one, and runs only the pruned circuit, once.  At every input its
slots are checked against their closed form, the product form of the QFT
(Griffiths and Niu, PRL 76, 3228, 1996) with the dropped phases taken out
(Coppersmith, IBM RC19642, 1994).  Phase magnitudes are accumulated from
the dropped-gate exponents directly, never recovered through ``arg()``, so
values above pi are reported without wrap-around.

Only ``cli``'s bounds and compare-radix handlers import this module,
inside the handler, so the other commands never compile it.  Its report
rows are named tuples, which ``cli.render_table`` prints as they are.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .circuit import _run_product, build_qft_circuit
from .numerics import CrossCheckError, check_params

# Simulated slots must agree with their closed form, which holds the
# dropped-exponent sums, to this tolerance, at unit modulus; a violation
# means the circuit and the closed form have diverged and is reported as an
# error rather than a measurement.
_CROSS_CHECK_TOL = 1e-9

# The measurement runs max(1, _CHUNK_AMPLITUDES // (n*q)) basis inputs at a
# time through the product-state simulator, so each of its buffers holds
# about _CHUNK_AMPLITUDES amplitudes (2 MiB at complex128).  2**17 was the
# fastest of 2**15 to 2**19 at (q, n) = (2, 18) and (4, 9).  The traced
# peak of a report is 1.9 MiB at (3, 7, 2), 4.3 MiB at (2048, 1, 1) and
# 5.5 MiB at (2, 16, 3): the chunk's slots, their closed form and the
# pruned circuit's tables, of up to q**keep_depth roots (2.6, 7.2 and 9.4
# MiB while the exact circuit also ran, its tables up to q**n roots; 6.1
# and 108 MiB at the first two with dense boundary chunks, whose (rows,
# q**n) buffers and q x q gate set it).
_CHUNK_AMPLITUDES = 2 ** 17


class BoundRow(NamedTuple):
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


class CapacityMetrics(NamedTuple):
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


def _expected_slots(q: int, n: int, x: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """The pruned circuit's slots on basis inputs ``x``, in closed form.

    Returns the ``(n, q, len(x))`` complex128 array in ``_run_product``'s
    layout: slot ``l``, component ``t`` is ``exp(-1j*t*phi) / sqrt(q)``,
    with ``phi = 2*pi*(x mod q**(l+1)) / q**(l+1) - shifts[l]``.  That is
    the exact QFT's slot (``qft_slots``, the product form of Griffiths and
    Niu) with the dropped phase ``exp(-1j*t*shifts[l])`` taken out.  One
    ``exp`` per slot and input gives component 1, and a cumulative product
    along the components gives its powers; numpy alone builds it, not
    ``gates`` or either simulator.
    """
    slots = np.empty((n, q, len(x)), dtype=np.complex128)
    slots[:, 0] = 1 / math.sqrt(q)
    for l in range(n):
        modulus = q ** (l + 1)
        phi = (x % modulus) * (2.0 * math.pi / modulus) - shifts[l]
        np.exp(-1j * phi, out=slots[l, 1])
    slots[:, 2:] = slots[:, 1:2]
    return np.cumprod(slots, axis=1, out=slots)


def _bracket_phase_maxima(q: int, n: int, keep_depth: int | None) -> list[float]:
    """Worst dropped phase on every bracket's |1> component, in target order.

    Runs the pruned circuit once on every basis input through the
    product-state simulator ``_run_product``, ``max(1, _CHUNK_AMPLITUDES //
    (n*q))`` inputs at a time.  Its bracket l lacks ``exp(-1j*t*shift)``,
    with ``shift`` the sum of its dropped controlled-phase exponents, so at
    every input each of its slots must equal the closed form
    ``_expected_slots``, component 0 included; the maxima are taken over
    that (unwrapped) sum.  The comparison is at unit modulus (a slot
    component has modulus ``1/sqrt(q)``), and a NaN slot fails.  Chunks
    rise in input order, so the first mismatch raises ``CrossCheckError``
    naming the smallest failing input.
    """
    dim = q ** n
    dropped = [_dropped_gates(keep_depth, l) for l in range(n)]
    pruned = build_qft_circuit(q, n, keep_depth)
    scale = math.sqrt(q)

    def shifts_of(x):
        digits = [(x // q ** k) % q for k in range(n)]
        shifts = np.zeros((n, len(x)))
        for l in range(n):
            for k, s in dropped[l]:
                shifts[l] += 2.0 * math.pi * digits[k] / q ** s
        return shifts

    # the Chrestenson gate's q scaled roots and the roots-of-unity tables,
    # of up to q**keep_depth entries, are built once for the whole pass
    cache = {}
    rows = max(1, _CHUNK_AMPLITUDES // (n * q))
    maxima = np.zeros(n)
    for start in range(0, dim, rows):
        x = np.arange(start, min(start + rows, dim))
        shifts = shifts_of(x)
        distance = _expected_slots(q, n, x, shifts)
        distance -= _run_product(pruned, x, cache, dim)
        # (input, digit, component) order, so argmax finds the smallest input
        failed = ~(np.abs(distance.transpose(2, 0, 1)) * scale <= _CROSS_CHECK_TOL)
        del distance  # before the next chunk's slots are built beside it
        if failed.any():
            row, l, t = np.unravel_index(np.argmax(failed), failed.shape)
            raise CrossCheckError(
                "simulated bracket phase disagrees with the dropped-gate "
                f"exponent sum at input {int(x[row])}, component {int(t)} "
                f"(target digit {int(l)})"
            )
        maxima = np.maximum(maxima, shifts.max(axis=1))
    return [float(worst) for worst in maxima]


def approximation_report(q: int, n: int, keep_depth: int | None) -> list[BoundRow]:
    """One BoundRow per output bracket for the given pruning depth.

    Every row's measurement comes from one pass over the basis inputs, which
    runs the pruned circuit once through the product-state simulator in
    chunks of inputs, with work per input that grows with the gate count
    and ``n*q`` rather than with ``q**n``.  At every input its slots are
    compared with their closed form (``_expected_slots``), and a mismatch
    raises ``CrossCheckError``.  No dense simulation runs and no q x q gate
    is built: each buffer holds about ``_CHUNK_AMPLITUDES`` amplitudes.
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
