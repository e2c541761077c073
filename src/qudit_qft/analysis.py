"""Approximation-error analysis for pruned QFT circuits.

Pruning a controlled phase with denominator exponent s removes a factor
``exp(-2j*pi * c*t / q**s)`` from one output bracket.  This module gives
the single-gate error factor in closed, series, and trigonometric form,
the two closed-form worst-case bounds for multi-gate pruning, and a
brute-force measurement of the actual dropped phase over every basis
input.  Phase magnitudes are accumulated from the dropped-gate exponents
directly, never recovered through ``arg()``, so values above pi are
reported without wrap-around.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .circuit import build_qft_circuit, _run_batch

# Simulated per-digit phases must agree with the dropped-exponent sums to
# this tolerance; a violation means the circuit and the closed form have
# diverged and is reported as an error rather than a measurement.
_CROSS_CHECK_TOL = 1e-9


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


def _validate_ql(q: int, l: int) -> None:
    if q < 2:
        raise ValueError("radix must be at least 2")
    if l < 1:
        raise ValueError("denominator exponent must be at least 1")


def phase_error_factor(q: int, l: int) -> complex:
    """Worst-case multiplicative error ``exp(-2j*pi*(q-1)/q**l)`` from
    omitting a single controlled phase with denominator exponent l."""
    _validate_ql(q, l)
    return cmath.exp(-2j * cmath.pi * (q - 1) / q ** l)


def phase_error_series(q: int, l: int, terms: int) -> complex:
    """Maclaurin partial sum of the single-gate error factor.

    Sums ``z**k / k!`` for k < terms with ``z = -2j*pi*(q-1)/q**l``.
    """
    _validate_ql(q, l)
    if terms < 1:
        raise ValueError("terms must be at least 1")
    z = -2j * cmath.pi * (q - 1) / q ** l
    total = 0j
    term = 1.0 + 0j
    for k in range(terms):
        total += term
        term *= z / (k + 1)
    return total


def phase_error_trig(q: int, l: int) -> complex:
    """The same single-gate error factor written as cos(theta) - i sin(theta)."""
    _validate_ql(q, l)
    theta = 2.0 * math.pi * (q - 1) / q ** l
    return complex(math.cos(theta), -math.sin(theta))


def _validate_bound_args(q: int, fraction_len: int, dropped_count: int) -> None:
    if q < 2:
        raise ValueError("radix must be at least 2")
    if dropped_count < 0:
        raise ValueError("dropped count must be non-negative")
    if dropped_count > fraction_len:
        raise ValueError("cannot drop more digits than the fraction holds")


def bound_coppersmith(q: int, fraction_len: int, dropped_count: int) -> float:
    """Classical worst-case phase bound ``2*pi*m*q**m*(q-1) / q**L`` for a
    bracket of fraction length L with m digits dropped."""
    _validate_bound_args(q, fraction_len, dropped_count)
    m = dropped_count
    return 2.0 * math.pi * m * q ** m * (q - 1) / q ** fraction_len


def bound_new(q: int, fraction_len: int, dropped_count: int) -> float:
    """Tighter phase bound ``2*pi*(q**m - 1) / q**L`` from summing the
    dropped digit weights in closed form."""
    _validate_bound_args(q, fraction_len, dropped_count)
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


def measure_bracket_phase_error(q: int, n: int, keep_depth: int | None,
                                target_digit: int) -> float:
    """Worst dropped phase on one bracket's |1> component, by brute force.

    Simulates the exact and the pruned circuit on every basis input and
    extracts the relative per-digit phase of the target bracket, checking
    it against the sum of the dropped controlled-phase exponents; the
    returned maximum is taken over that (unwrapped) sum.
    """
    if q < 2 or n < 1:
        raise ValueError("need radix >= 2 and digits >= 1")
    if keep_depth is not None and keep_depth < 1:
        raise ValueError("keep_depth must be at least 1 (or None for unbounded)")
    if not 0 <= target_digit < n:
        raise ValueError(f"target digit {target_digit} out of range for {n} digits")

    dropped = _dropped_gates(keep_depth, target_digit)
    dim = q ** n
    basis = np.eye(dim, dtype=np.complex128)
    exact_rows = _run_batch(build_qft_circuit(q, n), basis)
    pruned_rows = _run_batch(build_qft_circuit(q, n, keep_depth), basis)

    # After the output reversal, the bracket of register digit l sits at
    # output position n - 1 - l.
    slot = q ** (n - 1 - target_digit)
    worst = 0.0
    for x in range(dim):
        shift = sum(
            2.0 * math.pi * ((x // q ** k) % q) / q ** s for k, s in dropped
        )
        for t in range(1, q):
            simulated = (pruned_rows[x, t * slot] / pruned_rows[x, 0]) / (
                exact_rows[x, t * slot] / exact_rows[x, 0]
            )
            if abs(simulated - cmath.exp(1j * t * shift)) > _CROSS_CHECK_TOL:
                raise CrossCheckError(
                    "simulated bracket phase disagrees with the dropped-gate "
                    f"exponent sum at input {x}, component {t}"
                )
        worst = max(worst, shift)
    return worst


def approximation_report(q: int, n: int, keep_depth: int | None) -> list[BoundRow]:
    """One BoundRow per output bracket for the given pruning depth."""
    rows = []
    for target_digit in range(n):
        fraction_len = target_digit + 1
        if keep_depth is None:
            dropped_count = 0
        else:
            dropped_count = max(0, fraction_len - keep_depth)
        measured = measure_bracket_phase_error(q, n, keep_depth, target_digit)
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
    """State-space factor ``(q/2)**n`` and digit-savings factor ``log2(q)``."""
    if q < 2 or n < 1:
        raise ValueError("need radix >= 2 and digits >= 1")
    return CapacityMetrics(
        radix=q,
        digits=n,
        state_space_ratio=(q / 2) ** n,
        qudit_savings_factor=math.log2(q),
    )
