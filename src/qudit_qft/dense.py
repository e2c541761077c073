"""The dense simulator, its state container, and the transform matrices it
is checked against.

It applies a circuit to the rows of a ``(batch, q**n)`` amplitude array
(``_run_batch``): each Chrestenson gate as one kernel pass, and each
maximal run of controlled phase shifts, which is diagonal, fused into one
pass.  A run's phase at every index is ``exp(-2j*pi * k / q**m)``, where
``m`` is the run's largest denominator exponent and ``k`` the exact int64
sum of the shifts' exponents mod ``q**m`` (``circuit._run_exponent``, the
one place both simulators form it), read from one table of roots of unity.
The kernels are called through the ``kernels`` module, so a profiler or
tracer can wrap them there.

It runs state inputs (``apply_circuit``, which ``apply --in`` calls, on a
``StateVector``) and the compile of a circuit that
``circuit._breaks_product``; ``circuit_to_matrix`` compiles every other
circuit from the product engine.  Only a state read with ``--in`` loads
this module in the CLI (``cli.cmd_apply`` and ``documents.parse_state``
import it there); the package exports its public names lazily.

Digit conventions are ``circuit``'s.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .circuit import (
    CHRESTENSON,
    Circuit,
    GateOp,
    _Frozen,
    _breaks_product,
    _outer_rows,
    _output_factors,
    _roots,
    _run_exponent,
    _segments,
)
from .gates import _scaled_roots, chrestenson_gate
from .numerics import DEFAULT_DIM_CAP, _check_unit_norm, _freeze, _norm_sq, check_params


def _read_only(a) -> bool:
    """True when nothing can write to ``a``: it is an ndarray, and it and
    every array up its ``.base`` chain are read-only, the last owning its
    data."""
    while a is not None:
        if not isinstance(a, np.ndarray) or a.flags.writeable:
            return False
        a = a.base
    return True


class StateVector(_Frozen):
    """Unit-norm amplitudes of an n-digit base-q register.

    Index ``i`` encodes the digit string through ``i = sum_j x_j * q**j``
    with ``x_0`` the least significant digit.  Amplitudes are stored as a
    read-only complex128 array; construction rejects non-finite entries
    and vectors whose norm strays from 1 by more than 1e-10.

    A 1-d complex128 array that nothing can write to (read-only all the
    way up its ``.base`` chain) is shared, not copied; any other input is
    copied.  The checks build no full-size temporary: the norm is one dot
    product, and the entries are scanned only when it is not finite.
    """

    __slots__ = _names = ("radix", "digits", "amplitudes")

    def __init__(self, radix: int, digits: int, amplitudes: np.ndarray):
        check_params(radix=radix, digits=digits)
        amps = amplitudes
        if not (_read_only(amps) and amps.dtype == np.complex128 and amps.ndim == 1):
            amps = np.array(amps, dtype=np.complex128)
            amps.setflags(write=False)
        if amps.ndim != 1 or amps.shape[0] != radix ** digits:
            raise ValueError(
                f"expected {radix ** digits} amplitudes, got shape {amps.shape}"
            )
        _check_unit_norm(_norm_sq(amps), amps)
        for name, value in zip(self._names, (radix, digits, amps)):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.radix ** self.digits

    @classmethod
    def basis(cls, radix: int, digits: int, index: int = 0) -> "StateVector":
        """Computational basis state |index> of an n-digit base-q register."""
        dim = radix ** digits
        if not 0 <= index < dim:
            raise ValueError(f"basis index {index} out of range for dim {dim}")
        amps = np.zeros(dim, dtype=np.complex128)
        amps[index] = 1.0
        return cls(radix, digits, _freeze(amps))


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


def _fused_phases(q: int, n: int, ops: tuple[GateOp, ...]) -> np.ndarray:
    """Per-index phases of a run of controlled phase shifts over a full register.

    The run is ``exp(-2j*pi * k / q**m)`` with ``m`` its largest denominator
    exponent and ``k`` from ``circuit._run_exponent`` over the ``(q,)*n``
    digit view, each digit laid along its own axis.  The exponent array keeps
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
    builders emit) is expanded from ``circuit._run_product`` slots by
    ``circuit._outer_rows``; at n = 1 it is the single slot itself.  One
    that ``circuit._breaks_product`` runs the dense simulator on the
    identity instead.
    """
    dim = circuit.radix ** circuit.digits
    if dim > DEFAULT_DIM_CAP:
        raise ValueError(f"dimension {dim} exceeds cap {DEFAULT_DIM_CAP}")
    if _breaks_product(circuit) is None:
        return _outer_rows(_output_factors(circuit, np.arange(dim)))
    basis_rows = np.eye(dim, dtype=np.complex128)
    out_rows = _run_batch(circuit, basis_rows)
    return np.ascontiguousarray(out_rows.T)
