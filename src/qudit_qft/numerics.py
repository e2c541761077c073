"""The matrix metrics used everywhere else (max-entry distance and the
unitarity residuals), the state-vector container, and ``check_params``, the
one range check of the package's parameters, and ``_parallel_max``, the
one place work is dealt to threads (verify's oracle tiles and residual
blocks).

Matrices are plain ``numpy.ndarray`` objects of dtype complex128; products,
adjoints and Kronecker products are numpy's own.  Everything here is pure
and allocates fresh outputs, so values can be shared freely between
threads; the exceptions are ``StateVector``, which shares an input array
that nothing can write to, and ``_freeze``, which makes such arrays.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

# circuit_to_matrix and chrestenson_transform_matrix refuse a q**n above
# this; gen-matrix and verify build no matrix but are held to the same cap.
# The CLI imports it as ``MAX_DIM_CAP``: gen-matrix and verify refuse a
# --dim-cap above it.  Peak RSS at the cap (2-vCPU VM, ru_maxrss of the
# child) is at most 325 MiB, reached at n = 1, radix 4096, by verify (306
# MiB on one CPU; see RESIDUAL_BLOCK_BYTES for more), and 289 MiB there by
# gen-matrix: the product engine's slots are 256 MiB, and no q x q gate is
# built beside them (668 MiB in both while it was).  With
# two or more digits gen-matrix peaked at 37 MiB at (2, 12) and 51 MiB at
# (16, 3), and verify at 39 and 54 MiB.  The cap bounds the rest: a
# gen-matrix document at 4096 is about 890 MB and grows with the square of
# the dimension, as do the slots at n = 1 (1024 MiB at 8192).
DEFAULT_DIM_CAP = 4096

# Unit-norm requirement on state vectors.
NORM_TOL = 1e-10

# Row-block height of unitarity_residual's Gram blocks, which verify takes
# at n = 1 (through product_unitarity_residual).  At the 4096 cap, with
# OpenBLAS on one thread, heights of 256, 512 and 1024 took 2.8, 2.8 and
# 3.0 s for the residual on one worker, and 1.5, 1.6 and 3.1 s on two (at
# 1024 RESIDUAL_BLOCK_BYTES holds one block), against 4.9 s for one full
# product (2-vCPU VM, best of 3); the smallest keeps the temporaries
# smallest and deals the most blocks.
BLOCK_ROWS = 256

# Bytes of conjugated row blocks that unitarity_residual's workers hold at
# once, one block of BLOCK_ROWS rows each (16 MiB at the cap), which caps
# its workers at 4 there.  verify at (4096, 1) peaked at 306 MiB with one
# worker, 325 with 2, 363 with 4 and 587 with 16 (2-vCPU VM, child runs):
# more would pass the 512 MiB budget on a machine with that many CPUs.
RESIDUAL_BLOCK_BYTES = 64 << 20

# Slack of product_unitarity_residual's column bound, in units of 2**-53
# per unit of p + 4.  Column (j, l), j != l, holds GEMM sums over s < p of
# c_s * H_s[j, l], c_s = low[i, s] * conj(low[k, s]).  By Hoelder their
# exact value is at most max|c_s| * h, h = sum_s |H_s[j, l]|, and Higham
# (Accuracy and Stability of Numerical Algorithms, 2nd ed., 3.1 and 3.6)
# bounds the GEMM's rounding by gamma_(p+2) times that.  Forming the bound
# from m = max|low| and h (c_s is within sqrt(2) * gamma_2 of a product of
# moduli) rounds under 2p + 20 units in all.  p * 2**-1070, added where
# underflow enters, covers its absolute errors of a few 2**-1074 each.
BOUND_ULPS = 16

# The least value of each parameter that check_params knows.
_LEAST = {"radix": 2, "digits": 1, "keep_depth": 1, "denom_exp": 1, "terms": 1,
          "dropped_count": 0, "tolerance": 0}


def check_params(**params) -> None:
    """Raise ``ValueError`` naming the first parameter below its least value
    in ``_LEAST``: a radix below 2, a width or keep depth below 1, and so
    on.  ``None`` passes, as an unpruned ``keep_depth`` does; NaN fails."""
    for name, value in params.items():
        if value is not None and not value >= _LEAST[name]:
            raise ValueError(f"{name} must be at least {_LEAST[name]}, got {value!r}")


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={m.ndim}")
    return m


def _require_square(m: np.ndarray) -> None:
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")


def max_entry_distance(a, b) -> float:
    """Largest entrywise absolute difference between two same-shaped matrices."""
    a, b = _as_matrix(a), _as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.abs(a - b).max())


def _parallel_max(work, items, workers: int) -> float:
    """``np.max`` of ``work(items[w::W])`` over the workers ``w < W``,
    ``W = min(workers, len(items))``: item k goes to worker ``k % W``.
    Worker 0 is the calling thread and the others are threads of their
    own, so ``work`` should spend its time in numpy calls, which release
    the GIL.  Each ``work`` returns the largest value of its items; the
    largest of those does not depend on which worker found it, so the
    result is the same bit for bit for every ``workers``, and a NaN from
    any worker makes it NaN.  A worker's exception is raised once all have
    ended."""
    workers = min(workers, len(items))
    maxima = [np.nan] * workers
    errors = [None] * workers

    def run(w: int) -> None:
        try:
            maxima[w] = work(items[w::workers])
        except Exception as exc:  # a thread would only print it
            errors[w] = exc

    threads = []
    try:
        for w in range(1, workers):
            thread = threading.Thread(target=run, args=(w,))
            thread.start()
            threads.append(thread)
        run(0)
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    # np.max, unlike the builtin max, carries a NaN through
    return float(np.max(maxima))


def unitarity_residual(a, workers: int = 1) -> float:
    """Largest entry of ``|a @ adjoint(a) - I|``, computed in row blocks.

    ``G = a @ adjoint(a)`` is Hermitian for any ``a``, so every entry below
    the diagonal blocks is the conjugate of one above them.  Only the blocks
    ``G[i, j] = a[i] @ adjoint(a[j])`` with i <= j are formed, one at a
    time and ``BLOCK_ROWS`` rows high, which halves the product; no full
    product, adjoint or identity is built.  The identity is subtracted on
    the diagonal blocks alone.  The column blocks ``j`` are dealt to
    ``workers`` threads (``_parallel_max``), at most as many as
    ``RESIDUAL_BLOCK_BYTES`` holds, each of which conjugates its ``a[j]``
    once for all of its blocks; every block is the same product on any
    thread, so the result does not depend on ``workers``.  A NaN in any
    block makes the result NaN.
    """
    a = _as_matrix(a)
    _require_square(a)
    workers = min(workers, max(1, RESIDUAL_BLOCK_BYTES // max(1, a[:BLOCK_ROWS].nbytes)))

    def blocks(starts) -> float:
        maxima = []
        for j in starts:
            right = a[j:j + BLOCK_ROWS].conj()
            for i in range(0, j + 1, BLOCK_ROWS):
                block = a[i:i + BLOCK_ROWS] @ right.T
                if i == j:
                    block[np.diag_indices(len(block))] -= 1
                maxima.append(np.abs(block).max())
            del right  # before the next block's conjugate is formed beside it
        return np.max(maxima)

    return _parallel_max(blocks, range(0, a.shape[0], BLOCK_ROWS), workers)


def product_unitarity_residual(left, right, workers: int = 1) -> float:
    """``unitarity_residual`` of the matrix ``M`` whose row ``(i, j)``, in
    C order, is ``L[i] * right[j]``, without building ``M``.

    ``left`` is the ``(p, p)`` period block of the full left half ``L``
    (``circuit._product_halves``): column x of ``L`` is ``left[:, x mod
    p]``.  With ``H_s = R_s @ adjoint(R_s)`` for the columns ``R_s =
    right[:, s::p]``, entry ``((i, j), (k, l))`` of ``M @ adjoint(M)`` is
    ``sum_s left[i, s] * conj(left[k, s]) * H_s[j, l]``.  Each ``H_s`` is
    formed in one ``(r, r)`` buffer, which keeps only its columns ``(j,
    j)`` and adds ``|H_s|`` to the bound's sums.  A GEMM per ``i`` forms rows
    ``(i, .)`` in columns ``(k, .)``, ``k >= i``, first over the Gram
    columns ``(j, j)``, then over the columns ``(j, l)`` whose bound (see
    ``BOUND_ULPS``) is not below the largest entry found, for which each
    ``H_s`` is formed again by the same product: the result is
    that of all columns, bit for bit.  On the QFT's halves no other column
    was left at any size measured, so the work is ``p * r**3 + p**3 * r /
    2`` complex multiply-adds for ``r = len(right)``, where all columns
    take ``p * r**3 + p**3 * r**2 / 2`` and the blocked form ``(p * r)**3 / 2``.
    The sums run over the exact products, so the result may differ in its
    last bits from ``unitarity_residual`` of the rounded ``M``; where
    ``left`` is one row of ones, ``M`` is ``right`` and the result is
    ``unitarity_residual(right, workers)``, the one place ``workers``
    is read.  A NaN anywhere makes the result NaN.
    """
    left, right = _as_matrix(left), _as_matrix(right)
    _require_square(left)
    p, r = len(left), len(right)
    if p == 1 and left[0, 0] == 1:
        return unitarity_residual(right, workers)
    # columns = (x_high, s) in C order, so R_s is right[:, :, s]
    parts = right.reshape(r, -1, p).transpose(2, 0, 1)
    h = np.zeros((r, r))
    diagonal = np.arange(r) * (r + 1)
    found = _gram_deviation(left, _gram_columns(parts, diagonal, h), diagonal, r)
    tiny = p * 2.0 ** -1070
    bound = ((np.abs(left).max() ** 2 + tiny) * (h.ravel() + tiny)
             * (1 + BOUND_ULPS * (p + 4) * 2.0 ** -53) + tiny)
    keep = ~(bound < found)  # a NaN on either side keeps the column
    keep[diagonal] = False
    cols = np.flatnonzero(keep)
    gram = _gram_columns(parts, cols) if len(cols) else np.empty((p, 0), np.complex128)
    # np.max, unlike the builtin max, carries a NaN through
    return float(np.max([found, _gram_deviation(left, gram, cols, r)]))


def _gram_columns(parts: np.ndarray, cols: np.ndarray, h=None) -> np.ndarray:
    """Entries ``cols`` of each ``H_s = parts[s] @ adjoint(parts[s])``,
    flattened in C order, as row s of a C-ordered ``(p, len(cols))`` array;
    adds ``|H_s|`` to ``h`` where given.  Every ``H_s`` is formed in one
    ``(r, r)`` buffer by the same product, so each pass gets its bits."""
    r = parts.shape[1]
    gram = np.empty((r, r), np.complex128)
    out = np.empty((len(parts), len(cols)), np.complex128)
    for s, part in enumerate(parts):
        np.matmul(part, part.conj().T, out=gram)
        if h is not None:
            h += np.abs(gram)
        # mode="wrap" skips the hidden copy of mode="raise"; cols is in range
        np.take(gram.reshape(-1), cols, out=out[s], mode="wrap")
    return out


def _gram_deviation(low: np.ndarray, gram: np.ndarray, cols: np.ndarray,
                    r: int) -> float:
    """Largest ``|G - I|`` over ``G``'s entries ``((i, j), (k, l))``, k >= i,
    with ``j * r + l`` in ``cols``, 0 if none; ``gram`` holds those columns
    of the Gram matrices, C-ordered (``_gram_columns``): an F-ordered
    operand sends OpenBLAS to another kernel and moves the last bits."""
    on_diagonal = cols % (r + 1) == 0  # j == l
    maxima = []
    for i in range(len(low)):
        # Hermitian, as in unitarity_residual: rows (i, .) against (k, .), k >= i
        block = (low[i] * low[i:].conj()) @ gram
        block[0, on_diagonal] -= 1
        maxima.append(np.abs(block).max(initial=0))
    return np.max(maxima)


def _read_only(a) -> bool:
    """True when nothing can write to ``a``: it is an ndarray, and it and
    every array up its ``.base`` chain are read-only, the last owning its
    data."""
    while a is not None:
        if not isinstance(a, np.ndarray) or a.flags.writeable:
            return False
        a = a.base
    return True


def _freeze(a: np.ndarray) -> np.ndarray:
    """Make ``a`` and every array up its ``.base`` chain read-only, so that
    ``StateVector`` can share it; returns ``a``.  Only for arrays the
    caller has just built and holds alone."""
    b = a
    while isinstance(b, np.ndarray):
        b.setflags(write=False)
        b = b.base
    return a


def _norm_sq(amps: np.ndarray) -> float:
    """``sum(|a|**2)`` over a 1-d complex128 array, as one dot product of
    its float64 (re, im) pairs with themselves.  It builds no temporary and
    makes no BLAS call, so its time does not depend on OpenBLAS's threads:
    at 2**19 amplitudes it took 0.28 ms, ``np.vdot`` 0.22 ms on one BLAS
    thread (median of 200, 2-vCPU VM).  Inf if a square overflows, NaN if an entry
    is NaN."""
    pairs = amps[:, np.newaxis].view(np.float64)
    return float(np.einsum("ij,ij->", pairs, pairs))


def _check_unit_norm(norm_sq: float, *parts: np.ndarray) -> None:
    """``StateVector``'s checks of amplitudes built from ``parts`` (the
    state, or the halves of a product state) whose norm**2 is ``norm_sq``:
    ``ValueError`` if a part holds a NaN or infinite entry, or if the norm
    strays from 1 by more than ``NORM_TOL``.  A non-finite entry makes the
    norm so, and so can overflow; the parts are scanned only then."""
    if not np.isfinite(norm_sq) and not all(np.isfinite(part).all() for part in parts):
        raise ValueError("amplitudes must be finite")
    if abs(norm_sq - 1.0) > NORM_TOL:
        raise ValueError(f"state norm**2 is {norm_sq!r}, expected 1")


@dataclass(frozen=True)
class StateVector:
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

    radix: int
    digits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        check_params(radix=self.radix, digits=self.digits)
        amps = self.amplitudes
        if not (_read_only(amps) and amps.dtype == np.complex128 and amps.ndim == 1):
            amps = np.array(amps, dtype=np.complex128)
            amps.setflags(write=False)
        if amps.ndim != 1 or amps.shape[0] != self.radix ** self.digits:
            raise ValueError(
                f"expected {self.radix ** self.digits} amplitudes, "
                f"got shape {amps.shape}"
            )
        _check_unit_norm(_norm_sq(amps), amps)
        object.__setattr__(self, "amplitudes", amps)

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
