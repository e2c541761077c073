"""What every command shares: ``check_params``, the one range check of
the package's parameters, and the limits beside it; the max-entry
distance; the norm checks of a state's amplitudes; the two errors the CLI
maps to exit codes; and the worker count and write loop of its output.

Matrices are plain ``numpy.ndarray`` objects of dtype complex128.
Everything here is pure and allocates fresh outputs, so values can be
shared freely between threads; the exception is ``_freeze``, which makes
arrays that ``dense.StateVector`` can share.  The state container itself
lives in ``dense`` and the unitarity residuals in ``checks``, so that only
the commands that use them load them.
"""

from __future__ import annotations

import os

import numpy as np

# circuit_to_matrix and chrestenson_transform_matrix refuse a q**n above
# this; gen-matrix and verify build no matrix but are held to the same cap.
# The CLI imports it as ``MAX_DIM_CAP``: gen-matrix and verify refuse a
# --dim-cap above it.  Peak RSS at the cap (2-vCPU VM, ru_maxrss of the
# child) is at most 323 MiB, reached at n = 1, radix 4096, by verify (306
# MiB on one CPU; see checks.RESIDUAL_BLOCK_BYTES for more), and 289 MiB
# there by gen-matrix: the product engine's slots are 256 MiB, and no q x q
# gate is built beside them (668 MiB in both while it was).  With
# two or more digits gen-matrix peaked at 34 MiB at (2, 12) and 36 MiB at
# (16, 3), and verify at 34 and 39.5 MiB, holding neither half of M whole
# (37, 51, 38 and 53 MiB while they held the right half; verify read 36
# and 40 MiB with its oracle's 8-row tiles).  The cap bounds
# the rest: a gen-matrix document at 4096 is about 890 MB and grows with
# the square of the dimension, as do the slots at n = 1 (1024 MiB at 8192).
DEFAULT_DIM_CAP = 4096

# Unit-norm requirement on state vectors.
NORM_TOL = 1e-10

# The least value of each parameter that check_params knows.
_LEAST = {"radix": 2, "digits": 1, "keep_depth": 1, "denom_exp": 1, "terms": 1,
          "dropped_count": 0, "target": 0, "control": 0, "tolerance": 0}


def check_params(**params) -> None:
    """Raise ``ValueError`` naming the first parameter that is not a Python
    or numpy integer (every one but ``tolerance``), or is below its least
    value in ``_LEAST``: a radix below 2, a width or keep depth below 1, and
    so on.  ``None`` passes, as an unpruned ``keep_depth`` does; NaN fails."""
    for name, value in params.items():
        if value is None:
            continue
        if name != "tolerance" and not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if not value >= _LEAST[name]:
            raise ValueError(f"{name} must be at least {_LEAST[name]}, got {value!r}")


class UsageError(Exception):
    """Invalid arguments or malformed input data; the CLI exits with code 2."""


class CrossCheckError(RuntimeError):
    """The pruned circuit's phase table is not the DFT's less the dropped
    gates, or its simulated slots disagree with their closed form at the
    input ``bounds`` runs; the CLI exits with code 1."""


def _render_workers() -> int:
    """How many processes write amplitude documents, and how many threads
    check verify's oracle tiles: the CPUs this process may run on, or 1
    where ``os.fork`` or ``os.sched_getaffinity`` is missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _write_all(fd: int, data) -> None:
    """Write the bytes ``data`` to ``fd``, completing short writes."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={m.ndim}")
    return m


def _require_square(m: np.ndarray) -> None:
    if m.shape[0] != m.shape[1] or not m.size:
        raise ValueError(f"expected a square matrix of at least one row, got shape {m.shape}")


def max_entry_distance(a, b) -> float:
    """Largest entrywise absolute difference between two same-shaped matrices."""
    a, b = _as_matrix(a), _as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.abs(a - b).max())


def _freeze(a: np.ndarray) -> np.ndarray:
    """Make ``a`` and every array up its ``.base`` chain read-only, so that
    ``dense.StateVector`` can share it; returns ``a``.  Only for arrays the
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
    """``dense.StateVector``'s checks of amplitudes built from ``parts`` (the
    state, or the halves of a product state) whose norm**2 is ``norm_sq``:
    ``ValueError`` if a part holds a NaN or infinite entry, or if the norm
    strays from 1 by more than ``NORM_TOL``.  A non-finite entry makes the
    norm so, and so can overflow; the parts are scanned only then."""
    if not np.isfinite(norm_sq) and not all(np.isfinite(part).all() for part in parts):
        raise ValueError("amplitudes must be finite")
    if abs(norm_sq - 1.0) > NORM_TOL:
        raise ValueError(f"state norm**2 is {norm_sq!r}, expected 1")
