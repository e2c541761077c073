"""Circuit IR, QFT builders, and the product engine that every command shares.

A circuit is an ordered list of gate operations over an n-digit base-q
register plus a flag for the final output-digit reversal.  The builders
emit the discrete Fourier transform over ``Z_{q**n}`` as one Chrestenson
gate per digit followed by controlled phase shifts, and the n-parallel
Chrestenson circuit that realizes the Fourier transform over ``(Z_q)**n``.

The product engine, ``_run_product``, runs basis inputs through circuits
whose gates only read digits that are still basis digits, as the QFT's
do: one Chrestenson gate a digit, and controls not yet transformed.  The
register then stays a product of n single-digit states, so each input
costs ``n*q`` amplitudes instead of ``q**n``.  Its ``(n, q, len(x))``
slots are the factors that ``_output_factors`` lists in output-digit
order, with no copy.  It serves every basis input: ``bounds``
runs it at one input and checks the slots against their closed form (the
exact QFT's slots of ``qft_slots`` with each bracket's dropped phase put
back, in ``analysis``), and ``_outer_rows`` multiplies them out into
output states, from which ``dense.circuit_to_matrix`` compiles such a
circuit.
The CLI reads them only as two halves at every width (``_product_halves``),
neither held whole: the left one as its period block (at n = 1 a single
1), expanded a row at a time (``_left_rows``), and the right one as the
two operands of its last product, multiplied out a few rows
(``_right_rows``) or one residue class of columns (``_right_columns``) at
a time.  Their products are the entries of the compiled matrix bit for
bit: ``verify`` checks them against the DFT tile by tile
(``checks._oracle_distance``), and ``gen-matrix`` and ``apply`` on a basis
state render them a chunk of entries at a time.  The dense simulator
(``dense``) runs only state inputs (``apply --in``) and the compile of a
circuit that ``_breaks_product``; it forms a run's phase exponent with
``_run_exponent``, as the product engine does.

Digit conventions: ``x_0`` is the least significant digit, state index
``i = sum_j x_j * q**j``, and the leftmost Kronecker factor addresses the
most significant digit.
"""

from __future__ import annotations

import math
from itertools import groupby
from operator import attrgetter

import numpy as np

from .gates import chrestenson_roots, roots_of_unity
from .numerics import check_params

CHRESTENSON = "chrestenson"
CONTROLLED_PHASE = "controlled_phase"

# Largest phase modulus radix**denom_exp a circuit accepts: every term of a
# fused phase exponent is then below 2**62, so _run_exponent can add at
# least one to any sum it has reduced below the modulus and stay in int64.
_MAX_PHASE_MODULUS = 2 ** 62
_INT64_MAX = 2 ** 63 - 1

# Entries of a slot that _run_product's Chrestenson gate gathers at a time,
# and of their int64 index (32 KiB).  It bounds the single slot at n = 1
# near the dimension cap: verify and gen-matrix at (4096, 1) gather its
# 4096 x 4096 entries a row at a time, with no 128 MiB q x q index beside
# the 256 MiB slot.  One input (bounds, apply --basis) gathers its column
# of q entries at once.
_GATHER_ENTRIES = 2 ** 12


class _Frozen:
    """Immutable value object over the fields named in ``_names`` (its
    ``__slots__``): equal to and hashed as the tuple of its fields, against
    its own type only, and shown as ``Type(field=value, ...)``.
    ``__init__`` sets each field once through ``object.__setattr__``; any
    later assignment or deletion raises ``AttributeError``."""

    __slots__ = ()
    _names: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._names)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in
                           zip(self._names, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class GateOp(_Frozen):
    """One circuit element.

    Either a Chrestenson gate on ``target`` or a controlled phase shift
    that multiplies basis state (control c, target t) by
    ``exp(-2j*pi * c*t / q**denom_exp)``.
    """

    __slots__ = _names = ("kind", "target", "control", "denom_exp")

    def __init__(self, kind: str, target: int, control: int | None = None,
                 denom_exp: int | None = None):
        if kind not in (CHRESTENSON, CONTROLLED_PHASE):
            raise ValueError(f"unknown gate kind {kind!r}")
        if kind == CHRESTENSON:
            if control is not None or denom_exp is not None:
                raise ValueError("a Chrestenson op carries only a target digit")
        else:
            if control is None or denom_exp is None:
                raise ValueError("a controlled phase op needs control and denom_exp")
            if control == target:
                raise ValueError("control and target digits must differ")
            if not denom_exp >= 2:
                raise ValueError(f"denom_exp must be at least 2, got {denom_exp!r}")
        check_params(target=target, control=control, denom_exp=denom_exp)
        for name, value in zip(self._names, (kind, target, control, denom_exp)):
            object.__setattr__(self, name, value)

    @staticmethod
    def chrestenson(target: int) -> "GateOp":
        return GateOp(CHRESTENSON, target)

    @staticmethod
    def controlled_phase(control: int, target: int, denom_exp: int) -> "GateOp":
        return GateOp(CONTROLLED_PHASE, target, control, denom_exp)


class Circuit(_Frozen):
    """Immutable gate list over an n-digit base-q register."""

    __slots__ = _names = ("radix", "digits", "ops", "reverse_output_digits")

    def __init__(self, radix: int, digits: int, ops: tuple[GateOp, ...] = (),
                 reverse_output_digits: bool = False):
        check_params(radix=radix, digits=digits)
        ops = tuple(ops)
        for op in ops:
            if op.target >= digits:
                raise ValueError(f"target digit {op.target} out of range")
            if op.control is not None and op.control >= digits:
                raise ValueError(f"control digit {op.control} out of range")
            # radix >= 2, so an exponent above 62 is too large on its own;
            # testing it first keeps a huge one from building a huge int
            if op.denom_exp is not None and (
                op.denom_exp > 62 or radix ** op.denom_exp > _MAX_PHASE_MODULUS
            ):
                raise ValueError(
                    f"{op} is too fine for base {radix}: fused phase exponents "
                    f"fit in int64 only while {radix}**denom_exp <= 2**62"
                )
        for name, value in zip(self._names, (radix, digits, ops, reverse_output_digits)):
            object.__setattr__(self, name, value)

    @property
    def gate_count(self) -> int:
        return len(self.ops)


def build_qft_circuit(q: int, n: int, keep_depth: int | None = None) -> Circuit:
    """Fourier transform over ``Z_{q**n}`` as a gate-level circuit.

    Targets are processed from the most significant digit (n-1) down to 0:
    each receives a Chrestenson gate and then, for every less significant
    control digit k, a controlled phase with denominator exponent
    ``target - k + 1``.  That ordering keeps every control digit in its
    untransformed value at the moment it is used, which is what makes the
    in-place construction correct.  The output digit order is reversed at
    the end.

    ``keep_depth`` prunes the circuit: a controlled phase survives only if
    its denominator exponent is <= keep_depth.  ``None`` keeps everything,
    giving the exact transform with ``n*(n+1)/2`` gates.
    """
    check_params(radix=q, digits=n, keep_depth=keep_depth)
    ops = []
    for target in range(n - 1, -1, -1):
        ops.append(GateOp.chrestenson(target))
        for control in range(target - 1, -1, -1):
            denom_exp = target - control + 1
            if keep_depth is None or denom_exp <= keep_depth:
                ops.append(GateOp.controlled_phase(control, target, denom_exp))
    return Circuit(q, n, tuple(ops), reverse_output_digits=True)


def build_walsh_hadamard_transform_circuit(q: int, n: int) -> Circuit:
    """n parallel Chrestenson gates: the Fourier transform over ``(Z_q)**n``."""
    check_params(radix=q, digits=n)
    ops = tuple(GateOp.chrestenson(target) for target in range(n - 1, -1, -1))
    return Circuit(q, n, ops, reverse_output_digits=False)


def qft_slots(q: int, n: int, x) -> np.ndarray:
    """The exact QFT's slots on basis inputs ``x``, in closed form.

    Returns the ``(n, q, len(x))`` complex128 array in ``_run_product``'s
    layout: slot ``l``, the bracket of fraction length ``l + 1``, has
    component ``t`` equal to ``exp(-2j*pi * t*(x mod q**(l+1)) /
    q**(l+1)) / sqrt(q)``.  This is the product representation of Griffiths
    and Niu ("Semiclassical Fourier transform for quantum computation", PRL
    76, 3228, 1996; Nielsen and Chuang, section 5.1).  It is built from
    numpy alone, not from ``gates`` or either simulator, so it can check
    both: ``bounds`` holds the pruned circuit's slots at its witness input
    to it, with each bracket's dropped phase put back
    (``analysis._bracket_phase_maxima``), and the tests hold the engine to
    it.  The exponent ``t*(x mod q**(l+1))`` is formed exactly in int64, so
    ``(q-1) * q**n`` must fit there (``ValueError`` otherwise).
    """
    check_params(radix=q, digits=n)
    if n > 62 or (q - 1) * q ** n > _INT64_MAX:
        raise ValueError(f"qft_slots needs (q-1)*q**n in int64, not q={q}, n={n}")
    x = np.asarray(x, dtype=np.int64)
    component = np.arange(q, dtype=np.int64)[:, np.newaxis]
    slots = np.empty((n, q, len(x)), dtype=np.complex128)
    for l in range(n):
        modulus = q ** (l + 1)
        exponent = component * (x % modulus)
        exponent %= modulus
        np.exp(exponent * (-2j * np.pi / modulus), out=slots[l])
    slots /= np.sqrt(q)
    return slots


def _roots(exponent: np.ndarray, modulus: int) -> np.ndarray:
    """``roots_of_unity(exponent, modulus)``, read from a table of all
    ``modulus`` roots when that table is no larger than ``exponent``, and
    evaluated directly otherwise.  Each entry is the same once-rounded
    long-double value either way."""
    if modulus > exponent.size:
        return roots_of_unity(exponent, modulus)
    return roots_of_unity(np.arange(modulus), modulus)[exponent]


def _run_exponent(q: int, m: int, ops, digit) -> np.ndarray:
    """Exact int64 exponent ``k = sum digit(c) * q**(m-s) * digit(t) mod q**m``
    of a run of controlled phase shifts, over ops ``(c, t, s)`` with
    denominator exponents ``s <= m``.

    Every shift ``exp(-2j*pi * c*t / q**s)`` is ``exp(-2j*pi * c*t*q**(m-s)
    / q**m)``, so the run is ``exp(-2j*pi * k / q**m)``.  ``digit(d)``
    gives the int64 values of digit ``d``, shaped to broadcast against the
    others; ``k`` has their broadcast shape.  A term is at most
    ``(q-1)**2 * q**(m-s)``, so the sum is reduced only when the next term
    could leave int64; ``Circuit`` keeps every term below ``2**62``.
    """
    modulus = q ** m
    exponent, largest = 0, 0
    for op in ops:
        weight = q ** (m - op.denom_exp)
        term_max = (q - 1) ** 2 * weight
        if largest + term_max > _INT64_MAX:
            exponent %= modulus
            largest = modulus - 1
        exponent = exponent + digit(op.control) * weight * digit(op.target)
        largest += term_max
    return exponent % modulus


def _segments(ops: tuple[GateOp, ...]):
    """Split a gate list into single Chrestenson ops and maximal runs of
    controlled phase shifts, in order: yields ``(kind, ops)`` pairs."""
    for kind, group in groupby(ops, key=attrgetter("kind")):
        if kind == CHRESTENSON:
            for op in group:
                yield kind, (op,)
        else:
            yield kind, tuple(group)


def _breaks_product(circuit: Circuit) -> GateOp | None:
    """The first op that reads a digit after that digit's Chrestenson gate,
    or None: a controlled phase on a transformed control, or a second
    Chrestenson gate on one digit.  Until such an op every gate meets its
    digits as scaled basis digits, so the register stays a product of
    single-digit states on every basis input; the QFT builders emit
    none."""
    transformed = set()
    for op in circuit.ops:
        chrestenson = op.kind == CHRESTENSON
        if (op.target if chrestenson else op.control) in transformed:
            return op
        if chrestenson:
            transformed.add(op.target)
    return None


def _run_product(circuit: Circuit, x: np.ndarray) -> np.ndarray:
    """Apply a circuit to basis inputs ``x`` as a product of single-digit states.

    Returns a C-contiguous ``(n, q, len(x))`` complex128 array whose slot
    ``l`` holds the state of register digit ``l``, one input per column.
    The register stays a product state as long as every controlled phase
    reads a control digit that is still a basis digit, which
    ``build_qft_circuit`` guarantees, and each digit meets at most one
    Chrestenson gate; a circuit that ``_breaks_product`` raises
    ``ValueError``.  The output digit reversal only relabels positions
    (``_output_factors``); for the QFT slot ``l`` is the bracket of
    fraction length ``l + 1`` either way.

    A slot's Chrestenson gate meets a scaled basis digit ``c|d>``, so it
    selects column ``d`` of ``chrestenson_gate(q)`` times ``c``: component
    ``k`` is scaled root ``k*d mod q`` (``chrestenson_roots``), gathered in
    place a block of rows at a time, each block and its index at most
    ``_GATHER_ENTRIES`` entries, so no q x q gate is built.  Each maximal
    run of controlled phases is applied per target: with ``m`` the run's
    largest denominator exponent, component t of a target picks up
    ``exp(-2j*pi * k / q**m)``, where ``k`` is
    ``_run_exponent`` over the target's shifts with the components
    ``1..q-1`` as its digit and the inputs' basis digits as the controls.
    The run-wide ``m`` keeps each phase the value ``dense._fused_phases``
    rounds, and ``_roots`` evaluates them.
    """
    q = circuit.radix
    n = circuit.digits
    broken = _breaks_product(circuit)
    if broken is not None:
        read = (f"digit {broken.target}" if broken.kind == CHRESTENSON
                else f"control digit {broken.control}")
        raise ValueError(
            f"{broken} reads {read} after its Chrestenson gate, so the register "
            "is no longer a product of basis digits"
        )
    x = np.asarray(x, dtype=np.int64)
    inputs = np.arange(len(x))
    digits = np.stack([(x // q ** k) % q for k in range(n)])
    # digit-major, so each slot and each digit row is contiguous
    slots = np.zeros((n, q, len(x)), dtype=np.complex128)
    np.put_along_axis(slots, digits[:, np.newaxis], 1.0, axis=1)
    roots = chrestenson_roots(q)
    block = max(1, _GATHER_ENTRIES // max(1, len(x)))
    # component 0 of every target keeps phase 1
    component = np.arange(1, q, dtype=np.int64)[:, np.newaxis]
    for kind, run in _segments(circuit.ops):
        if kind == CHRESTENSON:
            target = run[0].target
            row = digits[target]
            scale = slots[target, row, inputs]  # a copy
            for k in range(0, q, block):
                index = np.multiply.outer(np.arange(k, min(k + block, q)), row)
                index %= q
                # written in place: mode="wrap" skips the hidden temporary
                # of mode="raise" (see dense._run_batch); the index is in
                # range
                np.take(roots, index, out=slots[target, k:k + block], mode="wrap")
            slots[target] *= scale
            continue
        m = max(op.denom_exp for op in run)
        for target in dict.fromkeys(op.target for op in run):
            exponent = _run_exponent(
                q, m, [op for op in run if op.target == target],
                lambda d: component if d == target else digits[d],
            )
            slots[target, 1:] *= _roots(exponent, q ** m)
    return slots


def _outer_rows(factors: list[np.ndarray]) -> np.ndarray:
    """Row-wise Kronecker product of ``(rows_i, batch)`` factors: the
    ``(prod rows_i, batch)`` array whose row ``(i_0, i_1, ...)``, in C
    order, is ``factors[0][i_0] * factors[1][i_1] * ...``.  The factors are
    paired as a balanced tree, so ``len(factors) - 1`` broadcast products
    build it and the last one writes the result from two factors of about
    its square root in rows (``_last_operands``)."""
    if len(factors) == 1:
        return factors[0]
    left, right = _last_operands(factors)
    return (left[:, np.newaxis] * right).reshape(-1, left.shape[1])


def _last_operands(factors: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The two operands of the last product of ``_outer_rows(factors)``, for
    two factors or more: the products of the first half of the factors and
    of the rest."""
    half = len(factors) // 2
    return _outer_rows(factors[:half]), _outer_rows(factors[half:])


def _output_factors(circuit: Circuit, x) -> list[np.ndarray]:
    """The ``(q, len(x))`` slots of ``_run_product`` on basis inputs ``x``
    in output-digit order, most significant first."""
    slots = _run_product(circuit, x)
    # slot l is output digit n-1-l when the circuit reverses, l otherwise
    return list(slots if circuit.reverse_output_digits else slots[::-1])


def _product_halves(circuit: Circuit, x) -> tuple[np.ndarray, tuple]:
    """The outputs of basis inputs ``x`` as two halves ``(left, right)``:
    row ``(i, j)`` of input ``x[k]``'s output is ``left[i, k % w]`` times
    entry ``(j, k)`` of the right half, ``w = left.shape[1]`` (see
    ``_left_rows`` and ``_right_rows``).

    The right half is the row-wise Kronecker product of the last ``n - h``
    of ``_output_factors``, ``h = n // 2``, as ``_outer_rows`` splits them.
    It is held as the operands of that product's last step, ``right = (A,
    B)`` (``_last_operands``): its row ``a * len(B) + b`` is ``A[a] *
    B[b]``.  At n <= 2 it is a single factor, held as it is, ``right =
    (F,)``.  ``left`` is the first ``w = min(q**h, len(x))`` columns of
    the product of the first h (one row of ones at n = 1).  In the QFT
    those are slots ``0..h-1``, which read only input digits ``0..h-1``,
    so on ``x = arange(q**n)`` their columns repeat with period ``q**h``;
    they are checked to repeat with period w, bit for bit (``ValueError``
    if not).  Neither half is held whole: at (2, 12) ``A`` and ``B`` are
    8 x 4096 each, the right half 64 x 4096.
    """
    # the slots are C-contiguous, so every product is laid out in C order and
    # the reshapes in _outer_rows copy nothing
    factors = _output_factors(circuit, x)
    h = len(factors) // 2
    w = min(circuit.radix ** h, len(x))
    for factor in factors[:h]:
        bits = factor.view(np.uint64)
        if len(x) % w or not (bits.reshape(len(bits), -1, 2 * w)
                              == bits[:, np.newaxis, :2 * w]).all():
            raise ValueError(
                f"the columns of the left half do not repeat with period {w}")
    # contiguous, so the products run numpy's contiguous loop, as on the
    # full factors
    periods = [np.ascontiguousarray(factor[:, :w]) for factor in factors[:h]]
    left = _outer_rows(periods) if h else np.ones((1, w), np.complex128)
    rest = factors[h:]
    return left, tuple(rest) if len(rest) == 1 else _last_operands(rest)


def _left_rows(left: np.ndarray, i, t: int) -> np.ndarray:
    """Rows ``i`` of the full left half of ``_product_halves`` over ``t``
    inputs, expanded from ``left``'s ``w`` columns (column k is ``left[:, k
    % w]``) into one C-contiguous ``(len(i), t)`` array.  The product with
    the right half's rows then runs on contiguous operands, as the
    compile's last step (``_outer_rows``) does, and gives its entries bit
    for bit."""
    rows = np.empty((len(i), t), np.complex128)
    rows.reshape(len(i), -1, left.shape[1])[:] = left[i, np.newaxis]
    return rows


def _right_shape(right: tuple) -> tuple[int, int]:
    """``(rows, columns)`` of the right half of ``_product_halves``."""
    return math.prod(len(factor) for factor in right), right[0].shape[1]


def _right_rows(right: tuple, j: int, k: int) -> np.ndarray:
    """Rows ``j`` to ``j + k`` of the right half of ``_product_halves``, a
    ``(k, t)`` array; of a single factor, a view of its rows.

    Of ``(A, B)``, row ``a * len(B) + b`` is ``A[a] * B[b]``.  Rows within
    one block of ``len(B)`` are one row of ``A`` times a slice of ``B``;
    other rows are cut from the product of the rows of ``A`` whose blocks
    they touch with all of ``B``.  Either is the compile's last product,
    with its operands in its order, on fewer rows, so the entries are the
    compiled ones bit for bit.  A single entry is cut from its whole block
    too: a product of one entry runs numpy's one-element loop, which moved
    the last bit of an entry at (3, 12) against the compile's loop.
    """
    if len(right) == 1:
        return right[0][j:j + k]
    a, b = right
    m = len(b)
    first, last = j // m, -(-(j + k) // m)  # the blocks the rows touch
    s = j - first * m
    if last - first == 1 and k * b.shape[1] > 1:
        return a[first] * b[s:s + k]
    return (a[first:last, np.newaxis] * b).reshape(-1, b.shape[1])[s:s + k]


def _right_columns(right: tuple, s: int, p: int) -> np.ndarray:
    """The columns ``s::p`` of the right half of ``_product_halves``, one
    C-contiguous ``(rows, len(range(s, t, p)))`` array, multiplied out from
    contiguous copies of the same columns of its operands by the
    compile's last product, so its entries are the compiled ones bit for
    bit."""
    return _outer_rows([np.ascontiguousarray(factor[:, s::p]) for factor in right])
