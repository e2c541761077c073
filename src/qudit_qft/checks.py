"""verify's checks: the entry distance of the compiled QFT from the DFT,
taken tile by tile from the product halves, and the unitarity residuals.

Only ``cli``'s verify handler imports this module, inside the handler, so
the other commands never compile it.  ``_parallel_max`` is the one place
work is dealt to threads: the oracle's tiles and the residuals' row blocks.
Every result is the same bit for bit on any number of workers.
"""

from __future__ import annotations

import threading

import numpy as np

from .circuit import _left_rows
from .gates import _scaled_roots
from .numerics import _as_matrix, _require_square

# Rows of M per tile of verify's oracle check (_oracle_distance): each
# worker holds four buffers of this many rows, 1.5 MiB at t = 4096.
# Heights of 4 to 32 gave verify the same wall time and peak RSS within
# noise at (2, 12) and (16, 3) (2-vCPU VM, 6 child runs each).
_TILE_ROWS = 8

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


def _tiles(left: np.ndarray, right: np.ndarray) -> list[tuple[int, int, int]]:
    """The tiles of the matrix ``M`` of ``circuit._product_halves``, in row order,
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
    ``y0 + len(out)`` of ``dense.dft_matrix(t)``, at most ``_TILE_ROWS`` of them,
    into ``out`` and returns it; ``index`` is intp scratch of ``out``'s
    shape.

    Entry ``(y0 + j, x)`` is root ``(x*y0 mod t + x*j mod t) mod t`` of
    ``gates._scaled_roots(t)``.  The ``x*j mod t`` are one table built here, the
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
        # the hidden copy of mode="raise" (see dense._run_batch)
        return np.take(roots, index, out=out, mode="wrap")
    return gather


def _oracle_distance(left: np.ndarray, right: np.ndarray, workers: int) -> float:
    """Largest entry distance ``max |M - dft_matrix(t)|`` of the matrix
    ``M`` of ``circuit._product_halves``, whose row ``(i, j)`` is row i of
    the full left half (``circuit._left_rows``) times ``right[j]``, building neither.

    The tiles of ``_tiles`` are dealt to ``workers`` threads
    (``_parallel_max``), and numpy releases the GIL in every step
    of a tile.  Each worker allocates its buffers once, 1.5 MiB at t =
    4096, and expands a row of the left half as its tiles reach it.  A
    tile's entries of ``M`` are the products of the compile's last step
    (``circuit._outer_rows``), the compiled entries bit for bit (at n = 1, ``1 *
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
