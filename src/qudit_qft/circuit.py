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
so each input costs ``n*q`` amplitudes instead of ``q**n``.  Its slots are
laid out ``(n, q, len(x))``, the factor layout ``_product_halves``
multiplies, so no caller copies them into another.  It serves
every basis input: ``bounds`` checks each input's slots, and
``_basis_columns`` expands them into output states, from which
``circuit_to_matrix`` compiles such a circuit and ``apply`` runs a basis
state; ``verify`` reads its two halves (``_product_halves``) instead.  The
dense simulator runs state inputs, the two boundary chunks of ``bounds``,
and the compile of a circuit that ``_breaks_product``.

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
from .gates import chrestenson_gate, roots_of_unity
from .numerics import BLOCK_ROWS, DEFAULT_DIM_CAP, StateVector, _freeze, check_params

CHRESTENSON = "chrestenson"
CONTROLLED_PHASE = "controlled_phase"

# Largest phase modulus radix**denom_exp a circuit accepts: every term of a
# fused phase exponent is then below 2**62, so _run_exponent can add at
# least one to any sum it has reduced below the modulus and stay in int64.
_MAX_PHASE_MODULUS = 2 ** 62
_INT64_MAX = 2 ** 63 - 1


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
    # scaling the t roots once rounds each entry as scaling the block would
    return (np.exp(-2j * np.pi * x / t) / np.sqrt(t))[exponents]


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
    raises ``ValueError``.  The output digit reversal
    only relabels positions, so slot ``l`` is output digit ``n-1-l`` when
    the circuit reverses and output digit ``l`` when it does not; for the
    QFT slot ``l`` is the bracket of fraction length ``l + 1`` either way.

    A slot's first Chrestenson gate meets a scaled basis digit ``c|d>``, so
    it selects column ``d`` of ``chrestenson_gate(q)`` times ``c``; a second
    Chrestenson gate on the same slot is a dense ``(q, q) @ (q, len(x))``
    product.  Each maximal run of controlled phases is applied per target:
    with ``m`` the run's largest denominator exponent, component t of a
    target picks up ``exp(-2j*pi * k / q**m)``, where ``k`` is
    ``_run_exponent`` over the target's shifts with the components
    ``1..q-1`` as its digit and the inputs' basis digits as the controls.
    The run-wide ``m`` keeps each phase the value ``_fused_phases`` rounds.
    Its phases are read from a table of the ``q**m`` roots of unity where
    that table holds at most ``largest_table`` entries, and evaluated
    directly otherwise; each is the same once-rounded value either way.
    The gate and the tables are kept in ``cache``: a caller that runs every
    input in chunks passes one dict to every call, so each is built once.
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
    # kept C-contiguous, the gate is read by np.take with no copy
    if ("chrestenson", q) not in cache:
        cache["chrestenson", q] = chrestenson_gate(q)
    gate = cache["chrestenson", q]
    # component 0 of every target keeps phase 1
    component = np.arange(1, q, dtype=np.int64)[:, np.newaxis]
    transformed = set()
    for kind, run in _segments(circuit.ops):
        if kind == CHRESTENSON:
            target = run[0].target
            if target in transformed:
                slots[target] = gate @ slots[target]
            else:
                row = digits[target]
                scale = slots[target, row, inputs]  # a copy
                # the columns are written in place: mode="wrap" skips the
                # hidden temporary of mode="raise" (see _run_batch); row is
                # in range
                np.take(gate, row, axis=1, out=slots[target], mode="wrap")
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


def _product_halves(circuit: Circuit, x) -> tuple[np.ndarray | None, np.ndarray]:
    """The outputs of basis inputs ``x`` as two halves ``(left, right)``:
    row ``(i, j)`` of input ``x[k]``'s output is ``left[i, k] * right[j, k]``.

    The register stays a product of single-digit states (see
    ``_run_product``), so the outputs are the row-wise Kronecker products of
    its ``(q, len(x))`` slots, most significant first;
    ``left`` is that of the first ``h = n // 2`` factors (None at n = 1),
    ``right`` of the rest, as ``_outer_rows`` splits them.  A roots-of-unity
    table is built only where it holds at most ``len(x)`` entries.  In the
    QFT, ``left`` holds slots ``0..h-1``, which read only input digits
    ``0..h-1``, so its column for input x depends only on ``x mod q**h``.
    """
    # the slots are C-contiguous, so every product is laid out in C order and
    # the reshapes in _outer_rows copy nothing
    factors = _run_product(circuit, x, {}, len(x))
    n = circuit.digits
    # slot l is output digit n-1-l when the circuit reverses, l otherwise
    order = range(n) if circuit.reverse_output_digits else range(n - 1, -1, -1)
    factors = [factors[l] for l in order]
    h = n // 2
    return (_outer_rows(factors[:h]) if h else None), _outer_rows(factors[h:])


def _row_blocks(left: np.ndarray | None, right: np.ndarray):
    """The matrix of ``_product_halves`` one block of rows at a time, as
    ``(rows, block)`` pairs in row order: ``len(right)`` rows per row of
    ``left``, or ``BLOCK_ROWS`` rows of ``right`` when ``left`` is None.
    Each block is the last product of ``_outer_rows`` on its rows, so its
    entries equal ``_basis_columns``'s bit for bit."""
    if left is None:
        for start in range(0, len(right), BLOCK_ROWS):
            yield slice(start, start + BLOCK_ROWS), right[start:start + BLOCK_ROWS]
        return
    height = len(right)
    for i in range(len(left)):
        yield slice(i * height, (i + 1) * height), _outer_rows([left[i:i + 1], right])


def _basis_columns(circuit: Circuit, x) -> np.ndarray:
    """The circuit applied to basis inputs ``x``, as the ``(q**n, len(x))``
    complex128 array whose column j is the output state of input ``x[j]``,
    expanded from ``_product_halves`` with no dense simulation."""
    left, right = _product_halves(circuit, x)
    return right if left is None else _outer_rows([left, right])


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


def circuit_to_matrix(circuit: Circuit, dim_cap: int = DEFAULT_DIM_CAP) -> np.ndarray:
    """Compile a circuit to its dense unitary: column x is the circuit
    applied to basis state x.

    A circuit that keeps basis inputs product states (every one the
    builders emit) is expanded from ``_run_product`` slots by
    ``_basis_columns``.  One that ``_breaks_product`` runs the dense
    simulator on the identity instead.
    """
    dim = circuit.radix ** circuit.digits
    if dim > dim_cap:
        raise ValueError(f"dimension {dim} exceeds cap {dim_cap}")
    if _breaks_product(circuit) is None:
        return _basis_columns(circuit, np.arange(dim))
    basis_rows = np.eye(dim, dtype=np.complex128)
    out_rows = _run_batch(circuit, basis_rows)
    return np.ascontiguousarray(out_rows.T)
