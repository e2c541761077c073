"""Circuit IR, QFT builders, reference transform matrices, and the simulators.

A circuit is an ordered list of gate operations over an n-digit base-q
register plus a flag for the final output-digit reversal.  The builders
emit the discrete Fourier transform over ``Z_{q**n}`` as one Chrestenson
gate per digit followed by controlled phase shifts, and the n-parallel
Chrestenson circuit that realizes the Fourier transform over ``(Z_q)**n``.

The simulator applies each Chrestenson gate as one kernel pass.  Each
maximal run of controlled phase shifts is diagonal and fused into one pass:
its phase at every index is ``exp(-2j*pi * k / q**m)``, where ``m`` is the
run's largest denominator exponent and ``k`` the exact int64 sum of the
shifts' exponents mod ``q**m`` (``_run_exponent``, the one place both
simulators form it), read from one table of roots of unity.

A second simulator, ``_run_product``, runs basis inputs through circuits
whose controlled phases only read digits that are still basis digits, as
the QFT's do.  The register then stays a product of n single-digit states,
so each input costs ``n*q`` amplitudes instead of ``q**n``.  Its
``(n, q, len(x))`` slots are the factors that ``_output_factors`` lists in
output-digit order, with no copy.  It serves every basis input: ``bounds``
checks each input's slots, some of them against the exact QFT's slots in
closed form (``qft_slots``, which reads neither simulator), and
``_outer_rows`` multiplies them out into output states, from which
``circuit_to_matrix`` compiles such a circuit.
The CLI reads them only as two halves at every width (``_product_halves``;
the left one as its period block, at n = 1 a single 1), whose products are
the entries of the compiled matrix bit for bit: ``verify`` checks them
against the DFT tile by tile (``_oracle_distance``), and ``gen-matrix`` and
``apply`` on a basis state render them a chunk of entries at a time.  The dense
simulator runs only state inputs (``apply --in``) and the compile of a
circuit that ``_breaks_product``.

Digit conventions: ``x_0`` is the least significant digit, state index
``i = sum_j x_j * q**j``, and the leftmost Kronecker factor addresses the
most significant digit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter

import numpy as np

from . import kernels
from .gates import chrestenson_gate, chrestenson_roots, roots_of_unity
from .numerics import DEFAULT_DIM_CAP, StateVector, _freeze, _parallel_max, check_params

CHRESTENSON = "chrestenson"
CONTROLLED_PHASE = "controlled_phase"

# Largest phase modulus radix**denom_exp a circuit accepts: every term of a
# fused phase exponent is then below 2**62, so _run_exponent can add at
# least one to any sum it has reduced below the modulus and stay in int64.
_MAX_PHASE_MODULUS = 2 ** 62
_INT64_MAX = 2 ** 63 - 1

# Entries of a slot that _run_product's first Chrestenson gate gathers at
# a time, and of their int64 index (32 KiB).  bounds at (2048, 1, 1), whose
# chunks hold 64 inputs, took 1.36 s gathering one row per call and 0.86 s
# in blocks of this many entries, as while it copied columns of the q x q
# gate (2-vCPU VM, 8 alternating child runs each).
_GATHER_ENTRIES = 2 ** 12

# Rows of M per tile of verify's oracle check (_oracle_distance): each
# worker holds four buffers of this many rows, 1.5 MiB at t = 4096.
# Heights of 4 to 32 gave verify the same wall time and peak RSS within
# noise at (2, 12) and (16, 3) (2-vCPU VM, 6 child runs each).
_TILE_ROWS = 8


@dataclass(frozen=True)
class GateOp:
    """One circuit element.

    Either a Chrestenson gate on ``target`` or a controlled phase shift
    that multiplies basis state (control c, target t) by
    ``exp(-2j*pi * c*t / q**denom_exp)``.
    """

    kind: str
    target: int
    control: int | None = None
    denom_exp: int | None = None

    def __post_init__(self):
        if self.kind not in (CHRESTENSON, CONTROLLED_PHASE):
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.target < 0:
            raise ValueError("target digit index must be non-negative")
        if self.kind == CHRESTENSON:
            if self.control is not None or self.denom_exp is not None:
                raise ValueError("a Chrestenson op carries only a target digit")
        else:
            if self.control is None or self.denom_exp is None:
                raise ValueError("a controlled phase op needs control and denom_exp")
            if self.control < 0:
                raise ValueError("control digit index must be non-negative")
            if self.control == self.target:
                raise ValueError("control and target digits must differ")
            if self.denom_exp < 2:
                raise ValueError("denom_exp must be at least 2")

    @staticmethod
    def chrestenson(target: int) -> "GateOp":
        return GateOp(CHRESTENSON, target)

    @staticmethod
    def controlled_phase(control: int, target: int, denom_exp: int) -> "GateOp":
        return GateOp(CONTROLLED_PHASE, target, control, denom_exp)


@dataclass(frozen=True)
class Circuit:
    """Immutable gate list over an n-digit base-q register."""

    radix: int
    digits: int
    ops: tuple[GateOp, ...] = field(default_factory=tuple)
    reverse_output_digits: bool = False

    def __post_init__(self):
        check_params(radix=self.radix, digits=self.digits)
        ops = tuple(self.ops)
        for op in ops:
            if op.target >= self.digits:
                raise ValueError(f"target digit {op.target} out of range")
            if op.control is not None and op.control >= self.digits:
                raise ValueError(f"control digit {op.control} out of range")
            # radix >= 2, so an exponent above 62 is too large on its own;
            # testing it first keeps a huge one from building a huge int
            if op.denom_exp is not None and (
                op.denom_exp > 62 or self.radix ** op.denom_exp > _MAX_PHASE_MODULUS
            ):
                raise ValueError(
                    f"{op} is too fine for base {self.radix}: fused phase exponents "
                    f"fit in int64 only while {self.radix}**denom_exp <= 2**62"
                )
        object.__setattr__(self, "ops", ops)

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


def dft_matrix(t: int, rows: slice | None = None) -> np.ndarray:
    """Discrete Fourier transform over ``Z_t``: entry (y, x) is
    ``exp(-2j*pi*x*y/t) / sqrt(t)``.  Used as the oracle the compiled QFT
    circuits are checked against.  ``rows`` selects a block of rows y,
    whose entries equal those of the full matrix bit for bit."""
    if t < 2:
        raise ValueError("transform size must be at least 2")
    x = np.arange(t, dtype=np.int64)
    exponents = np.outer(x if rows is None else x[rows], x)
    exponents %= t
    return _scaled_roots(t)[exponents]


def _scaled_roots(t: int) -> np.ndarray:
    """The t values ``exp(-2j*pi*x/t) / sqrt(t)`` that every entry of
    ``dft_matrix(t)`` is read from.  Scaling the t roots once rounds each
    entry as scaling a whole block of entries would."""
    x = np.arange(t, dtype=np.int64)
    return np.exp(-2j * np.pi * x / t) / np.sqrt(t)


def qft_slots(q: int, n: int, x) -> np.ndarray:
    """The exact QFT's slots on basis inputs ``x``, in closed form.

    Returns the ``(n, q, len(x))`` complex128 array in ``_run_product``'s
    layout: slot ``l``, the bracket of fraction length ``l + 1``, has
    component ``t`` equal to ``exp(-2j*pi * t*(x mod q**(l+1)) /
    q**(l+1)) / sqrt(q)``.  This is the product representation of Griffiths
    and Niu ("Semiclassical Fourier transform for quantum computation", PRL
    76, 3228, 1996; Nielsen and Chuang, section 5.1).  It is built from
    numpy alone, not from ``gates`` or either simulator, so it can check
    both.  The exponent ``t*(x mod q**(l+1))`` is formed exactly in int64,
    so ``(q-1) * q**n`` must fit there (``ValueError`` otherwise).
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


def chrestenson_transform_matrix(q: int, n: int) -> np.ndarray:
    """n-fold Kronecker power of the Chrestenson gate, refused above
    ``DEFAULT_DIM_CAP``."""
    check_params(radix=q, digits=n)
    if q ** n > DEFAULT_DIM_CAP:
        raise ValueError(f"dimension {q ** n} exceeds cap {DEFAULT_DIM_CAP}")
    gate = chrestenson_gate(q)
    out = gate
    for _ in range(n - 1):
        out = np.kron(out, gate)
    return out


def digit_reversal_perm(q: int, n: int) -> np.ndarray:
    """Read-only int64 index array that sends digits ``(x_{n-1}, ..., x_0)``
    to ``(x_0, ..., x_{n-1})``: output index i reads input index ``perm[i]``."""
    check_params(radix=q, digits=n)
    # Reversing the axes of the (q,)*n digit view reverses the digit order.
    perm = np.arange(q ** n, dtype=np.int64).reshape((q,) * n).transpose().ravel()
    perm.setflags(write=False)
    return perm


def _along_digit(q: int, n: int, digit: int, values: np.ndarray) -> np.ndarray:
    """Length-q ``values`` laid along the axis of ``digit`` in the ``(q,)*n``
    view of a register, with unit length on every other axis."""
    shape = [1] * n
    shape[n - 1 - digit] = q
    return values.reshape(shape)


def _roots(exponent: np.ndarray, modulus: int, largest_table: int,
           tables: dict) -> np.ndarray:
    """``roots_of_unity(exponent, modulus)``, read from a table of all
    ``modulus`` roots when that table holds at most ``largest_table``
    entries, and evaluated directly otherwise.  Each entry is the same
    once-rounded long-double value either way.  ``tables`` keeps every
    table built, keyed by modulus, for later calls."""
    if modulus > largest_table:
        return roots_of_unity(exponent, modulus)
    if modulus not in tables:
        tables[modulus] = roots_of_unity(np.arange(modulus), modulus)
    return tables[modulus][exponent]


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


def _fused_phases(q: int, n: int, ops: tuple[GateOp, ...]) -> np.ndarray:
    """Per-index phases of a run of controlled phase shifts over a full register.

    The run is ``exp(-2j*pi * k / q**m)`` with ``m`` its largest denominator
    exponent and ``k`` from ``_run_exponent`` over the ``(q,)*n`` digit
    view, each digit laid along its own axis.  The exponent array keeps
    unit length on every digit the run does not touch, so it grows only
    with the digits the run has reached.  Its phases are read from one
    table of the ``q**m`` roots of unity, or evaluated directly where that
    table would be larger than the array, so each phase is rounded once.
    """
    m = max(op.denom_exp for op in ops)
    values = np.arange(q, dtype=np.int64)
    exponent = _run_exponent(q, m, ops, lambda d: _along_digit(q, n, d, values))
    # a table larger than the exponents it is indexed by would not pay
    phases = _roots(exponent, q ** m, exponent.size, {})
    return np.broadcast_to(phases, (q,) * n).reshape(q ** n)


def _segments(ops: tuple[GateOp, ...]):
    """Split a gate list into single Chrestenson ops and maximal runs of
    controlled phase shifts, in order: yields ``(kind, ops)`` pairs."""
    for kind, group in groupby(ops, key=attrgetter("kind")):
        if kind == CHRESTENSON:
            for op in group:
                yield kind, (op,)
        else:
            yield kind, tuple(group)


def _run_batch(circuit: Circuit, amplitude_rows: np.ndarray) -> np.ndarray:
    """Apply a circuit to every row of a (batch, dim) amplitude array.

    Consecutive controlled phase shifts are diagonal, so each maximal run
    of them is fused into one per-index phase vector (see
    ``_fused_phases``) and applied in one pass.
    """
    q = circuit.radix
    n = circuit.digits
    current = np.array(amplitude_rows, dtype=np.complex128, order="C")
    spare = np.empty_like(current)
    gate = chrestenson_gate(q)
    for kind, run in _segments(circuit.ops):
        if kind == CHRESTENSON:
            kernels.apply_single_qudit(current, spare, q, q ** run[0].target, gate)
            current, spare = spare, current
        else:
            kernels.apply_diagonal(current, _fused_phases(q, n, run))
    if circuit.reverse_output_digits:
        # mode="wrap" skips the bounds check of the default mode="raise",
        # which writes into a hidden temporary as large as ``spare``; the
        # index is a bijection, so wrapping never applies
        np.take(current, digit_reversal_perm(q, n), axis=1, out=spare, mode="wrap")
        current, spare = spare, current
    return current


def _breaks_product(circuit: Circuit) -> GateOp | None:
    """The first controlled phase that reads a control digit after that
    digit's Chrestenson gate, or None.  Until such a phase the register
    stays a product of single-digit states on every basis input; the QFT
    builders emit none."""
    transformed = set()
    for op in circuit.ops:
        if op.kind == CHRESTENSON:
            transformed.add(op.target)
        elif op.control in transformed:
            return op
    return None


def _run_product(circuit: Circuit, x: np.ndarray, cache: dict,
                 largest_table: int) -> np.ndarray:
    """Apply a circuit to basis inputs ``x`` as a product of single-digit states.

    Returns a C-contiguous ``(n, q, len(x))`` complex128 array whose slot
    ``l`` holds the state of register digit ``l``, one input per column.
    The register stays a product state as long as every controlled phase
    reads a control digit that is still a basis digit, which
    ``build_qft_circuit`` guarantees; a circuit that ``_breaks_product``
    raises ``ValueError``.  The output digit reversal only relabels
    positions (``_output_factors``); for the QFT slot ``l`` is the bracket
    of fraction length ``l + 1`` either way.

    A slot's first Chrestenson gate meets a scaled basis digit ``c|d>``, so
    it selects column ``d`` of ``chrestenson_gate(q)`` times ``c``: component
    ``k`` is scaled root ``k*d mod q`` (``chrestenson_roots``), gathered in
    place a block of rows at a time, each block and its index at most
    ``_GATHER_ENTRIES`` entries, so no q x q gate is built.  Only a second
    Chrestenson gate on the same slot builds the gate, for a dense
    ``(q, q) @ (q, len(x))`` product; the builders emit none.  Each maximal
    run of controlled phases is applied per target: with ``m`` the run's
    largest denominator exponent, component t of a target picks up
    ``exp(-2j*pi * k / q**m)``, where ``k`` is
    ``_run_exponent`` over the target's shifts with the components
    ``1..q-1`` as its digit and the inputs' basis digits as the controls.
    The run-wide ``m`` keeps each phase the value ``_fused_phases`` rounds.
    Its phases are read from a table of the ``q**m`` roots of unity where
    that table holds at most ``largest_table`` entries, and evaluated
    directly otherwise; each is the same once-rounded value either way.
    The scaled roots and the tables are kept in ``cache``: a caller that
    runs every input in chunks passes one dict to every call, so each is
    built once.
    """
    q = circuit.radix
    n = circuit.digits
    broken = _breaks_product(circuit)
    if broken is not None:
        raise ValueError(
            f"{broken} reads control digit {broken.control} after its Chrestenson "
            "gate, so the register is no longer a product of basis digits"
        )
    x = np.asarray(x, dtype=np.int64)
    inputs = np.arange(len(x))
    digits = np.stack([(x // q ** k) % q for k in range(n)])
    # digit-major, so each slot and each digit row is contiguous
    slots = np.zeros((n, q, len(x)), dtype=np.complex128)
    np.put_along_axis(slots, digits[:, np.newaxis], 1.0, axis=1)
    if ("chrestenson roots", q) not in cache:
        cache["chrestenson roots", q] = chrestenson_roots(q)
    roots = cache["chrestenson roots", q]
    block = max(1, _GATHER_ENTRIES // max(1, len(x)))
    # component 0 of every target keeps phase 1
    component = np.arange(1, q, dtype=np.int64)[:, np.newaxis]
    transformed = set()
    for kind, run in _segments(circuit.ops):
        if kind == CHRESTENSON:
            target = run[0].target
            if target in transformed:
                slots[target] = chrestenson_gate(q) @ slots[target]
            else:
                row = digits[target]
                scale = slots[target, row, inputs]  # a copy
                for k in range(0, q, block):
                    index = np.multiply.outer(np.arange(k, min(k + block, q)), row)
                    index %= q
                    # written in place: mode="wrap" skips the hidden
                    # temporary of mode="raise" (see _run_batch); the index
                    # is in range
                    np.take(roots, index, out=slots[target, k:k + block], mode="wrap")
                slots[target] *= scale
                transformed.add(target)
            continue
        m = max(op.denom_exp for op in run)
        for target in dict.fromkeys(op.target for op in run):
            exponent = _run_exponent(
                q, m, [op for op in run if op.target == target],
                lambda d: component if d == target else digits[d],
            )
            slots[target, 1:] *= _roots(exponent, q ** m, largest_table, cache)
    return slots


def _outer_rows(factors: list[np.ndarray]) -> np.ndarray:
    """Row-wise Kronecker product of ``(rows_i, batch)`` factors: the
    ``(prod rows_i, batch)`` array whose row ``(i_0, i_1, ...)``, in C
    order, is ``factors[0][i_0] * factors[1][i_1] * ...``.  The factors are
    paired as a balanced tree, so ``len(factors) - 1`` broadcast products
    build it and the last one writes the result from two factors of about
    its square root in rows."""
    if len(factors) == 1:
        return factors[0]
    half = len(factors) // 2
    left, right = _outer_rows(factors[:half]), _outer_rows(factors[half:])
    return (left[:, np.newaxis] * right).reshape(-1, left.shape[1])


def _output_factors(circuit: Circuit, x) -> list[np.ndarray]:
    """The ``(q, len(x))`` slots of ``_run_product`` on basis inputs ``x``
    in output-digit order, most significant first; a roots-of-unity table
    is built only where it holds at most ``len(x)`` entries."""
    slots = _run_product(circuit, x, {}, len(x))
    # slot l is output digit n-1-l when the circuit reverses, l otherwise
    return list(slots if circuit.reverse_output_digits else slots[::-1])


def _product_halves(circuit: Circuit, x) -> tuple[np.ndarray, np.ndarray]:
    """The outputs of basis inputs ``x`` as two halves ``(left, right)``:
    row ``(i, j)`` of input ``x[k]``'s output is ``left[i, k % w] *
    right[j, k]``, ``w = left.shape[1]`` (see ``_left_rows``).

    ``right`` is the row-wise Kronecker product of the last ``n - h`` of
    ``_output_factors``, ``h = n // 2``, as ``_outer_rows`` splits them, and
    ``left`` the first ``w = min(q**h, len(x))`` columns of that of the
    first h (one row of ones at n = 1).  In the QFT those are slots
    ``0..h-1``, which read only input digits ``0..h-1``, so on ``x =
    arange(q**n)`` their columns repeat with period ``q**h``; they are
    checked to repeat with period w, bit for bit (``ValueError`` if not).
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
    return left, _outer_rows(factors[h:])


def _left_rows(left: np.ndarray, i, t: int) -> np.ndarray:
    """Rows ``i`` of the full left half of ``_product_halves`` over ``t``
    inputs, expanded from ``left``'s ``w`` columns (column k is ``left[:, k
    % w]``) into one C-contiguous ``(len(i), t)`` array.  The product with
    ``right``'s rows then runs on contiguous operands, as the compile's
    last step (``_outer_rows``) does, and gives its entries bit for bit."""
    rows = np.empty((len(i), t), np.complex128)
    rows.reshape(len(i), -1, left.shape[1])[:] = left[i, np.newaxis]
    return rows


def _tiles(left: np.ndarray, right: np.ndarray) -> list[tuple[int, int, int]]:
    """The tiles of the matrix ``M`` of ``_product_halves``, in row order,
    as ``(i, s, rows)``: the ``rows`` rows of ``M`` from row ``i *
    len(right) + s`` on, which are row i of the full left half times
    ``right[s:s + rows]``.  A tile
    holds at most ``_TILE_ROWS`` rows and never crosses a block of
    ``len(right)`` rows."""
    r = len(right)
    return [(i, s, min(_TILE_ROWS, r - s))
            for i in range(len(left)) for s in range(0, r, _TILE_ROWS)]


def _dft_rows(t: int):
    """A function ``gather(y0, index, out)`` that writes rows ``y0`` to
    ``y0 + len(out)`` of ``dft_matrix(t)``, at most ``_TILE_ROWS`` of them,
    into ``out`` and returns it; ``index`` is intp scratch of ``out``'s
    shape.

    Entry ``(y0 + j, x)`` is root ``(x*y0 mod t + x*j mod t) mod t`` of
    ``_scaled_roots(t)``.  The ``x*j mod t`` are one table built here, the
    ``x*y0 mod t`` one length-t vector per call, and their sum, below 2t,
    indexes the t scaled roots with ``mode="wrap"``, which wraps it into
    range, so each entry is ``dft_matrix(t)``'s bit for bit.
    """
    x = np.arange(t, dtype=np.intp)
    steps = np.outer(np.arange(_TILE_ROWS, dtype=np.intp), x) % t
    roots = _scaled_roots(t)

    def gather(y0: int, index: np.ndarray, out: np.ndarray) -> np.ndarray:
        offset = x * y0
        offset %= t
        np.add(steps[:len(out)], offset, out=index)
        # mode="wrap" maps a sum in [t, 2t) to root sum - t, and skips
        # the hidden copy of mode="raise" (see _run_batch)
        return np.take(roots, index, out=out, mode="wrap")
    return gather


def _oracle_distance(left: np.ndarray, right: np.ndarray, workers: int) -> float:
    """Largest entry distance ``max |M - dft_matrix(t)|`` of the matrix
    ``M`` of ``_product_halves``, whose row ``(i, j)`` is row i of the full
    left half (``_left_rows``) times ``right[j]``, building neither.

    The tiles of ``_tiles`` are dealt to ``workers`` threads
    (``numerics._parallel_max``), and numpy releases the GIL in every step
    of a tile.  Each worker allocates its buffers once, 1.5 MiB at t =
    4096, and expands a row of the left half as its tiles reach it.  A
    tile's entries of ``M`` are the products of the compile's last step
    (``_outer_rows``), the compiled entries bit for bit (at n = 1, ``1 *
    z`` may flip a zero's sign, not the distance); its DFT rows come from
    ``_dft_rows``; the difference and its magnitude are taken in place.
    The result is the same bit for bit for every ``workers``; a NaN
    anywhere makes it NaN, and a worker's exception is raised once all
    have ended.
    """
    r, t = right.shape
    gather = _dft_rows(t)

    def check(tiles) -> float:
        block = np.empty((_TILE_ROWS, t), np.complex128)
        dft = np.empty((_TILE_ROWS, t), np.complex128)
        index = np.empty((_TILE_ROWS, t), np.intp)
        magnitude = np.empty((_TILE_ROWS, t), np.float64)
        expanded = None
        maxima = []
        for i, s, rows in tiles:
            if expanded != i:
                row, expanded = _left_rows(left, [i], t)[0], i
            entries = np.multiply(row, right[s:s + rows], out=block[:rows])
            diff = gather(i * r + s, index[:rows], dft[:rows])
            np.subtract(entries, diff, out=diff)
            maxima.append(np.abs(diff, out=magnitude[:rows]).max())
        return np.max(maxima)

    return _parallel_max(check, _tiles(left, right), workers)


def apply_circuit(circuit: Circuit, state: StateVector) -> StateVector:
    """Run a circuit on one state; returns a fresh unit-norm state, which
    holds the simulator's output buffer itself."""
    if state.radix != circuit.radix or state.digits != circuit.digits:
        raise ValueError(
            f"state is base-{state.radix} with {state.digits} digits, circuit "
            f"expects base-{circuit.radix} with {circuit.digits}"
        )
    out = _run_batch(circuit, state.amplitudes[np.newaxis, :])[0]
    return StateVector(circuit.radix, circuit.digits, _freeze(out))


def circuit_to_matrix(circuit: Circuit) -> np.ndarray:
    """Compile a circuit to its dense unitary: column x is the circuit
    applied to basis state x.  Refused above ``DEFAULT_DIM_CAP``.

    A circuit that keeps basis inputs product states (every one the
    builders emit) is expanded from ``_run_product`` slots by
    ``_outer_rows``; at n = 1 it is the single slot itself.  One that
    ``_breaks_product`` runs the dense simulator on the identity instead.
    """
    dim = circuit.radix ** circuit.digits
    if dim > DEFAULT_DIM_CAP:
        raise ValueError(f"dimension {dim} exceeds cap {DEFAULT_DIM_CAP}")
    if _breaks_product(circuit) is None:
        return _outer_rows(_output_factors(circuit, np.arange(dim)))
    basis_rows = np.eye(dim, dtype=np.complex128)
    out_rows = _run_batch(circuit, basis_rows)
    return np.ascontiguousarray(out_rows.T)
