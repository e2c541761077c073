"""Dense complex matrix/vector arithmetic, the metrics used everywhere else,
and ``check_params``, the one range check of the package's parameters.

Matrices are plain ``numpy.ndarray`` objects of dtype complex128.  Everything
here is pure and allocates fresh outputs, so values can be shared freely
between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Full-matrix work (compilation, oracle comparison) is capped at this
# dimension by default; q**n above it is refused rather than attempted.
DEFAULT_DIM_CAP = 4096

# Unit-norm requirement on state vectors.
NORM_TOL = 1e-10

# Row-block height of the blocked full-matrix checks: unitarity_residual
# forms its Gram blocks from row blocks of this many rows, and cli verify
# compares the matrix with the DFT in blocks of as many rows.  At the 4096
# cap heights of 256, 512 and 1024 all took 4.0-4.3 s for the residual
# (2-vCPU VM), against 6.5 s for one full product; the smallest keeps the
# temporaries smallest.
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


def adjoint(a) -> np.ndarray:
    """Hermitian conjugate: conjugate transpose of ``a``."""
    return _as_matrix(a).conj().T.copy()


def kron(a, b) -> np.ndarray:
    """Kronecker product of two square matrices.

    The left factor addresses the most significant digit of the compound
    row/column index.
    """
    a, b = _as_matrix(a), _as_matrix(b)
    _require_square(a)
    _require_square(b)
    return np.kron(a, b)


def matmul(a, b) -> np.ndarray:
    """Standard matrix product; inner dimensions must agree."""
    a, b = _as_matrix(a), _as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions disagree: {a.shape} x {b.shape}")
    return a @ b


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


def is_unitary(a, tol: float = 1e-10) -> bool:
    """True iff ``a @ adjoint(a)`` is the identity to within ``tol`` per entry."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    return unitarity_residual(a) <= tol


@dataclass(frozen=True)
class StateVector:
    """Unit-norm amplitudes of an n-digit base-q register.

    Index ``i`` encodes the digit string through ``i = sum_j x_j * q**j``
    with ``x_0`` the least significant digit.  Amplitudes are stored as a
    read-only complex128 array; construction rejects non-finite entries
    and vectors whose norm strays from 1 by more than 1e-10.
    """

    radix: int
    digits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        check_params(radix=self.radix, digits=self.digits)
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.shape[0] != self.radix ** self.digits:
            raise ValueError(
                f"expected {self.radix ** self.digits} amplitudes, "
                f"got shape {amps.shape}"
            )
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"state norm**2 is {norm_sq!r}, expected 1")
        amps.setflags(write=False)
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
        return cls(radix, digits, amps)
