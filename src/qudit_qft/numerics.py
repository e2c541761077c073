"""The matrix metrics used everywhere else (max-entry distance and the
unitarity residuals), the state-vector container, and ``check_params``, the
one range check of the package's parameters.

Matrices are plain ``numpy.ndarray`` objects of dtype complex128; products,
adjoints and Kronecker products are numpy's own.  Everything here is pure
and allocates fresh outputs, so values can be shared freely between
threads; the exceptions are ``StateVector``, which shares an input array
that nothing can write to, and ``_freeze``, which makes such arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Full-matrix work (compilation, oracle comparison) is capped at this
# dimension by default; q**n above it is refused rather than attempted.
# The CLI imports it as ``MAX_DIM_CAP``: gen-matrix and verify refuse a
# --dim-cap above it.  Peak RSS at the cap (2-vCPU VM, ru_maxrss of the
# child) is at most 672 MiB, reached at n = 1, radix 4096, by both
# commands: the q x q gate, the slots of the product engine and the
# compiled matrix are 256 MiB each, and two of them coexist.  With two or
# more digits gen-matrix peaked at 296 MiB in both formats, 256 MiB of it
# the matrix, and verify, which builds no matrix, at 54 MiB at (2, 12) and
# 105 MiB at (16, 3), its largest row blocks.  At 8192 the matrix alone
# would take 1024 MiB.
DEFAULT_DIM_CAP = 4096

# Unit-norm requirement on state vectors.
NORM_TOL = 1e-10

# Row-block height of the blocked full-matrix checks: unitarity_residual
# forms its Gram blocks from row blocks of this many rows, and verify
# compares a single-digit matrix with the DFT in blocks of as many rows
# (circuit._row_blocks).  At the 4096 cap heights of 256, 512 and 1024 all
# took 4.0-4.3 s for the residual (2-vCPU VM), against 6.5 s for one full
# product; the smallest keeps the temporaries smallest.
BLOCK_ROWS = 256

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


def unitarity_residual(a) -> float:
    """Largest entry of ``|a @ adjoint(a) - I|``, computed in row blocks.

    ``G = a @ adjoint(a)`` is Hermitian for any ``a``, so every entry below
    the diagonal blocks is the conjugate of one above them.  Only the blocks
    ``G[i, j] = a[i] @ adjoint(a[j])`` with i <= j are formed, one at a
    time and ``BLOCK_ROWS`` rows high, which halves the product; no full
    product, adjoint or identity is built.  The identity is subtracted on
    the diagonal blocks alone.  A NaN in any block makes the result NaN.
    """
    a = _as_matrix(a)
    _require_square(a)
    dim = a.shape[0]
    maxima = []
    for j in range(0, dim, BLOCK_ROWS):
        right = a[j:j + BLOCK_ROWS].conj()
        for i in range(0, j + 1, BLOCK_ROWS):
            block = a[i:i + BLOCK_ROWS] @ right.T
            if i == j:
                block[np.diag_indices(len(block))] -= 1
            maxima.append(np.abs(block).max())
    # np.max, unlike the builtin max, carries a NaN through
    return float(np.max(maxima))


def product_unitarity_residual(left, right) -> float:
    """``unitarity_residual`` of the matrix ``M`` whose row ``(i, j)``, in
    C order, is ``left[i] * right[j]``, without building ``M``.

    Premise, checked bit for bit: column x of ``left`` depends only on
    ``x mod p``, with ``p = len(left)``; otherwise ``ValueError``.  Then,
    with ``L = left[:, :p]`` and ``H_s = R_s @ adjoint(R_s)`` for the
    columns ``R_s = right[:, s::p]``, entry ``((i, j), (k, l))`` of
    ``M @ adjoint(M)`` is ``sum_s L[i, s] * conj(L[k, s]) * H_s[j, l]``.
    One batched product builds every ``H_s``, and one GEMM per ``i`` the
    entries of rows ``(i, .)`` in columns ``(k, .)`` with ``k >= i``: that
    is ``p * r**3 + p**3 * r**2 / 2`` complex multiply-adds for
    ``r = len(right)``, where the blocked form takes ``(p * r)**3 / 2``.
    The sums run over the exact products, so the result may differ in its
    last bits from ``unitarity_residual`` of the rounded ``M``.  A NaN
    anywhere makes the result NaN.
    """
    left, right = _as_matrix(left), _as_matrix(right)
    p, r = len(left), len(right)
    bits = np.ascontiguousarray(left).view(np.uint64).reshape(p, -1, 2 * p)
    if not (bits == bits[:, :1]).all():
        raise ValueError(f"the columns of left do not repeat with period {p}")
    low = left[:, :p]
    # columns = (x_high, s) in C order, so R_s is right[:, :, s]
    parts = right.reshape(r, -1, p).transpose(2, 0, 1)
    gram = (parts @ parts.conj().transpose(0, 2, 1)).reshape(p, r * r)
    maxima = []
    for i in range(p):
        # Hermitian, as in unitarity_residual: rows (i, .) against (k, .), k >= i
        block = ((low[i] * low[i:].conj()) @ gram).reshape(p - i, r, r)
        block[0][np.diag_indices(r)] -= 1
        maxima.append(np.abs(block).max())
    # np.max, unlike the builtin max, carries a NaN through
    return float(np.max(maxima))


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
    makes no BLAS call: at 2**19 amplitudes it took 0.5 ms, ``np.vdot``'s
    threaded BLAS call 4 ms.  Inf if a square overflows, NaN if an entry
    is NaN."""
    pairs = amps[:, np.newaxis].view(np.float64)
    return float(np.einsum("ij,ij->", pairs, pairs))


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
        norm_sq = _norm_sq(amps)
        # a NaN or infinite entry makes the norm so; so can overflow
        if not np.isfinite(norm_sq) and not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"state norm**2 is {norm_sq!r}, expected 1")
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
