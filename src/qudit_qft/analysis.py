"""Approximation-error analysis for pruned QFT circuits.

Pruning a controlled phase with denominator exponent s removes a factor
``exp(-2j*pi * c*t / q**s)`` from one output bracket.  This module gives
the single-gate error factor in closed, series, and trigonometric form,
the two closed-form worst-case bounds for multi-gate pruning, and the
actual worst dropped phase over every basis input.  No input but one is
simulated: the pruned circuit's phase table, in integers, must be the
DFT's less the dropped gates (Coppersmith, IBM RC19642, 1994, over the
product form of Griffiths and Niu, PRL 76, 3228, 1996), and the input whose
digits are all q - 1 attains every maximum; the product-state simulator
runs that input, its slots checked against their closed form.  Phase
magnitudes are accumulated from the dropped-gate exponents directly, never
recovered through ``arg()``, so values above pi are reported without
wrap-around.

Only ``cli``'s bounds and compare-radix handlers import this module,
inside the handler, so the other commands never compile it.  Its report
rows are named tuples, which ``cli.render_table`` prints as they are.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .circuit import CONTROLLED_PHASE, Circuit, _run_product, build_qft_circuit
from .numerics import CrossCheckError, check_params

# Simulated slots must agree with their closed form, which holds the
# dropped-exponent sums, to this tolerance, at unit modulus; a violation
# means the circuit and the closed form have diverged and is reported as an
# error rather than a measurement.
_CROSS_CHECK_TOL = 1e-9


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
    """(control, denom_exp) pairs pruned from the target's bracket: the
    controls ``k`` whose exponent ``target_digit - k + 1`` passes the keep
    depth, in rising order."""
    if keep_depth is None:
        return []
    return [(k, target_digit - k + 1) for k in range(target_digit - keep_depth + 1)]


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


def _phase_table(circuit: Circuit) -> tuple[int, list[list[int]]] | None:
    """The circuit's phase table ``(N, E)``, or None where it has none.

    A circuit with one Chrestenson gate per digit, whose controlled phases
    each come after their target's gate and read a control that is still a
    basis digit, maps basis input ``x`` to a product state: slot ``l``,
    component ``z_l``, is ``exp(-2j*pi * sum_a E[a][l] * x_a * z_l / q**N)
    / sqrt(q)``, ``N = max(n, largest denom_exp)``.  ``E`` is the n x n
    table of those coefficients, Python ints mod ``q**N``: a Chrestenson
    gate on digit ``l`` adds ``q**(N-1)`` at ``(l, l)``, and a phase ``(c,
    t, s)`` adds ``q**(N-s)`` at ``(c, t)``.  None where the form does not
    hold: a digit with other than one Chrestenson gate, a phase before its
    target's gate or on a control already transformed, or no output
    reversal.
    """
    q, n = circuit.radix, circuit.digits
    big = max([n] + [op.denom_exp for op in circuit.ops if op.denom_exp is not None])
    table = [[0] * n for _ in range(n)]
    transformed = set()
    for op in circuit.ops:
        # a Chrestenson gate weighs its own digit as a phase of exponent 1;
        # it must meet that digit untransformed, and a phase its target
        # transformed and its control not
        phase = op.kind == CONTROLLED_PHASE
        control, s = (op.control, op.denom_exp) if phase else (op.target, 1)
        if control in transformed or (op.target in transformed) != phase:
            return None
        transformed.add(op.target)
        table[control][op.target] += q ** (big - s)
    if len(transformed) < n or not circuit.reverse_output_digits:
        return None
    return big, [[entry % q ** big for entry in row] for row in table]


def _bracket_phase_maxima(q: int, n: int, keep_depth: int | None) -> list[float]:
    """Worst dropped phase on every bracket's |1> component, in target order.

    The pruned circuit's phase table (``_phase_table``) must equal the
    DFT's, ``q**(N-1-l+a)`` at ``(a, l)`` for ``a <= l``, less the gates
    ``_dropped_gates`` reports; the first differing (control, target) entry
    raises ``CrossCheckError``.  Bracket ``l`` then lacks the sum of
    ``2*pi*x_k / q**s`` over its dropped gates ``(k, s)``.  Each term is
    nondecreasing in its digit and rounding is monotone, so the input
    ``q**n - 1``, every digit ``q - 1``, attains every maximum over all
    inputs bit for bit.  The pruned circuit runs through ``_run_product``
    at that input alone, and its slots must equal ``_expected_slots``,
    component 0 included, at unit modulus (a slot component has modulus
    ``1/sqrt(q)``); a mismatch or a NaN raises ``CrossCheckError`` naming
    the input, component and digit.
    """
    pruned = build_qft_circuit(q, n, keep_depth)
    certificate = _phase_table(pruned)
    if certificate is None:
        raise CrossCheckError("the pruned circuit has no phase table")
    big, table = certificate
    expected = [[q ** (big - 1 - l + a) if a <= l else 0 for l in range(n)] for a in range(n)]
    maxima = [0.0] * n
    for l in range(n):
        for k, s in _dropped_gates(keep_depth, l):
            expected[k][l] -= q ** (big - s)
            maxima[l] += 2.0 * math.pi * (q - 1) / q ** s
    wrong = [(a, l) for a in range(n) for l in range(n)
             if table[a][l] != expected[a][l] % q ** big]
    if wrong:
        raise CrossCheckError("phase table of the pruned circuit differs from the DFT's "
                              "less the dropped gates at control digit {}, target digit {}"
                              .format(*wrong[0]))
    if q ** n > 2 ** 63 - 1:  # the input below and its slot moduli are int64
        raise ValueError(f"bounds needs q**n in int64, not q={q}, n={n}")
    x = np.array([q ** n - 1])
    distance = _expected_slots(q, n, x, maxima) - _run_product(pruned, x)
    failed = np.argwhere(~(np.abs(distance[:, :, 0]) * math.sqrt(q) <= _CROSS_CHECK_TOL))
    if len(failed):
        raise CrossCheckError(
            "simulated bracket phase disagrees with the dropped-gate exponent sum at "
            "input {}, component {} (target digit {})".format(x[0], *failed[0, ::-1])
        )
    return maxima


def approximation_report(q: int, n: int, keep_depth: int | None) -> list[BoundRow]:
    """One BoundRow per output bracket for the given pruning depth.

    The measurements come from ``_bracket_phase_maxima``: ``O(n**2)``
    integer work on the pruned circuit's phase table, and one run of the
    product-state simulator at one input, ``n*q`` amplitudes, whatever
    ``q**n`` is.  A failed check raises ``CrossCheckError``.  No dense
    simulation runs and no q x q gate is built.
    """
    check_params(radix=q, digits=n, keep_depth=keep_depth)
    rows = []
    for target_digit, measured in enumerate(_bracket_phase_maxima(q, n, keep_depth)):
        fraction_len = target_digit + 1
        dropped_count = len(_dropped_gates(keep_depth, target_digit))
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
