"""Hot amplitude-update kernels, in numpy.

Two operations dominate simulation time and both live here: applying a
q x q gate to one digit of every state in a batch, and scaling a batch by
a per-index diagonal phase vector (which is how runs of controlled phase
shifts are applied).  Batches are laid out as the rows of a C-contiguous
``(batch, dim)`` complex128 array.  The simulator calls both through this
module, so a profiler or tracer can wrap them here.
"""

from __future__ import annotations

import numpy as np


def apply_single_qudit(src: np.ndarray, dst: np.ndarray, q: int, stride: int,
                       gate: np.ndarray) -> None:
    """Apply a q x q gate to the digit of stride ``q**digit``, row by row.

    Reads ``src`` and writes the transformed batch into ``dst``; the two
    buffers must be distinct, equal-shaped, C-contiguous complex128.
    """
    batch, dim = src.shape
    blocks = dim // (stride * q)
    view = src.reshape(batch, blocks, q, stride)
    np.einsum("rj,bhjl->bhrl", gate, view, out=dst.reshape(batch, blocks, q, stride))


def apply_diagonal(amps: np.ndarray, phases: np.ndarray) -> None:
    """Multiply every row of ``amps`` by the length-dim vector ``phases``,
    in place."""
    amps *= phases
