"""verify's checks: the entry distance of the compiled QFT from the DFT,
taken tile by tile from the product halves, and the unitarity residuals.
Neither holds the right half whole: the oracle multiplies out a tile of
its rows at a time, and the residual one residue class of its columns at
a time (``circuit._right_rows`` and ``circuit._right_columns``).

Only ``cli``'s verify handler imports this module, inside the handler, so
the other commands never compile it.  ``_parallel_max`` is the one place
work is dealt to threads: the oracle's tiles, each with a slice of the
left rows, and the residuals' row blocks.
Every result is the same bit for bit on any number of workers.
"""

from __future__ import annotations

import threading

import numpy as np

from .circuit import _right_columns, _right_rows, _right_shape
from .gates import _scaled_roots
from .numerics import _as_matrix, _require_square

# Most rows of the right half per tile of verify's oracle check
# (_oracle_distance): each worker holds four buffers of this many rows of
# M, two complex and two intp, 0.75 MiB at t = 4096, one expanded left row
# and one tile.  Heights of 2, 4 and 8 gave verify 32.7, 33.8 and 36.0 MiB
# at (2, 12), 38.6, 39.4 and 40.4 MiB at (16, 3) and 323.3-323.7 MiB at
# (4096, 1); its wall time read 0.46, 0.42 and 0.33 s, 0.49, 0.41 and 0.42
# s, and 4.0, 4.0 and 3.5 s in a spread of 3.4-4.8 s (2-vCPU VM, medians
# of 12, 12 and 6 alternating child runs).  On one worker the oracle took
# the same CPU time with 4 and 8 rows (0.11 s at (2, 12)), so the wall time
# lost on two is likely their wait for the GIL between numpy calls, which
# shorter tiles make more frequent.  4 holds half of what 8 holds at the
# wall time of the 8-row tiles that formed a t-long modulo per left row.
_TILE_ROWS = 4

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
# worker, 323 with 2, 363 with 4 and 587 with 16 (2-vCPU VM, child runs):
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
    C order, is ``L[i]`` times row j of the right half, without building
    ``M`` or the right half.

    ``left`` is the ``(p, p)`` period block of the full left half ``L``
    and ``right`` the right half's operands (``circuit._product_halves``):
    column x of ``L`` is ``left[:, x mod p]``.  With ``H_s = R_s @
    adjoint(R_s)`` for the right half's columns ``R_s`` of residue s mod p
    (``circuit._right_columns``), entry ``((i, j), (k, l))`` of ``M @
    adjoint(M)`` is ``sum_s left[i, s] * conj(left[k, s]) * H_s[j, l]``.
    Each ``R_s`` is multiplied out and ``H_s`` formed in one ``(r, r)``
    buffer, which keeps only its columns ``(j, j)`` and adds ``|H_s|`` to
    the bound's sums.  A GEMM per ``i`` forms rows
    ``(i, .)`` in columns ``(k, .)``, ``k >= i``, first over the Gram
    columns ``(j, j)``, then over the columns ``(j, l)`` whose bound (see
    ``BOUND_ULPS``) is not below the largest entry found, for which each
    ``R_s`` and ``H_s`` is formed again by the same products: the result is
    that of all columns, bit for bit.  On the QFT's halves no other column
    was left at any size measured, so the work is ``p * r**3 + p**3 * r /
    2`` complex multiply-adds for ``r`` right rows, where all columns
    take ``p * r**3 + p**3 * r**2 / 2`` and the blocked form ``(p * r)**3 / 2``.
    The sums run over the exact products, so the result may differ in its
    last bits from ``unitarity_residual`` of the rounded ``M``; where
    ``left`` is one row of ones, ``M`` is the right half and the result is
    ``unitarity_residual`` of it, on ``workers`` threads, the one place
    ``workers`` is read.  A NaN anywhere makes the result NaN.
    """
    left = _as_matrix(left)
    _require_square(left)
    p, r = len(left), _right_shape(right)[0]
    if p == 1 and left[0, 0] == 1:
        return unitarity_residual(_right_rows(right, 0, r), workers)
    h = np.zeros((r, r))
    diagonal = np.arange(r) * (r + 1)
    found = _gram_deviation(left, _gram_columns(right, p, diagonal, h), diagonal, r)
    tiny = p * 2.0 ** -1070
    bound = ((np.abs(left).max() ** 2 + tiny) * (h.ravel() + tiny)
             * (1 + BOUND_ULPS * (p + 4) * 2.0 ** -53) + tiny)
    keep = ~(bound < found)  # a NaN on either side keeps the column
    keep[diagonal] = False
    cols = np.flatnonzero(keep)
    gram = _gram_columns(right, p, cols) if len(cols) else np.empty((p, 0), np.complex128)
    # np.max, unlike the builtin max, carries a NaN through
    return float(np.max([found, _gram_deviation(left, gram, cols, r)]))


def _gram_columns(right: tuple, p: int, cols: np.ndarray, h=None) -> np.ndarray:
    """Entries ``cols`` of each ``H_s = R_s @ adjoint(R_s)``, ``s < p``, for
    the right half's columns ``R_s`` of residue s mod p, flattened in C
    order, as row s of a C-ordered ``(p, len(cols))`` array; adds ``|H_s|``
    to ``h`` where given.  Every ``R_s`` is multiplied out by
    ``circuit._right_columns`` and every ``H_s`` formed in one ``(r, r)``
    buffer by the same product, so each pass gets its bits."""
    r = _right_shape(right)[0]
    gram = np.empty((r, r), np.complex128)
    out = np.empty((p, len(cols)), np.complex128)
    for s in range(p):
        part = _right_columns(right, s, p)
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


def _tiles(right: tuple) -> list[tuple[int, int]]:
    """The tiles of the right half of ``circuit._product_halves``, in row
    order, as ``(j, rows)``: its rows ``j`` to ``j + rows``.  Each block of
    ``len(right[-1])`` rows (``len(B)``, or all rows of a single factor) is
    cut into the fewest tiles of at most ``_TILE_ROWS`` rows, of heights
    that differ by at most one, so no tile crosses a block and
    ``circuit._right_rows`` multiplies each out in one product."""
    r, block = _right_shape(right)[0], len(right[-1])
    count = -(-block // _TILE_ROWS)
    cuts = [block * k // count for k in range(count + 1)]
    return [(j + low, high - low)
            for j in range(0, r, block) for low, high in zip(cuts, cuts[1:])]


def _dft_rows(t: int, p: int):
    """The one place verify's oracle forms rows of ``dense.dft_matrix(t)``:
    a function ``tile(j, table, index, out)`` for the rows ``(i, j)`` to
    ``(i, j + rows)``, ``rows = len(out)``, of each left row ``i < p``,
    ``r = t / p`` rows a left row (row ``(i, j)`` is row ``i*r + j``).  It
    returns a function ``gather(i)`` that writes those rows of left row i
    into ``out`` and returns it.  ``table`` and ``index`` are intp scratch
    of ``out``'s shape: ``table`` is held for the tile, ``index`` for one
    call.

    With ``y = i*r + j + k``, ``x*y mod t`` is ``x*(j + k) mod t`` plus
    ``r * ((x mod p)*i mod p)``.  The first term fills ``table``, once a
    tile, for all of its left rows.  The second is row i of a ``(p, p)``
    table built here, added over the ``t / p`` periods of x.  Their sum,
    below 2t, indexes the t scaled roots of ``gates._scaled_roots`` with
    ``mode="wrap"``, which wraps it into range, so each entry is
    ``dft_matrix(t)``'s bit for bit.
    """
    x = np.arange(t, dtype=np.intp)
    periods = np.outer(x[:p], x[:p])
    periods %= p
    periods *= t // p
    roots = _scaled_roots(t)

    def tile(j: int, table: np.ndarray, index: np.ndarray, out: np.ndarray):
        rows = len(out)
        np.outer(np.arange(j, j + rows, dtype=np.intp), x, out=table)
        # x*y mod t as x*y - (x*y // t) * t: numpy divides by a scalar with
        # a multiply and a shift, where np.remainder divides each entry,
        # which took twice as long at t = 4096 (2-vCPU VM)
        np.floor_divide(table, t, out=index)
        index *= t
        table -= index
        # x as (t / p, p): row i of periods is added to each period
        terms, sums = table.reshape(rows, -1, p), index.reshape(rows, -1, p)

        def gather(i: int) -> np.ndarray:
            np.add(terms, periods[i], out=sums)
            # mode="wrap" maps a sum in [t, 2t) to root sum - t, and skips
            # the hidden copy of mode="raise" (see dense._run_batch)
            return np.take(roots, index, out=out, mode="wrap")
        return gather
    return tile


def _oracle_distance(left: np.ndarray, right: tuple, workers: int) -> float:
    """Largest entry distance ``max |M - dft_matrix(t)|`` of the matrix
    ``M`` of ``circuit._product_halves``, whose row ``(i, j)`` is row i of
    the full left half (``circuit._left_rows``) times row j of the right
    half (``circuit._right_rows``), building neither ``M`` nor either half.

    The p left rows are cut into ``min(workers, p)`` slices, and each of
    the right half's tiles (``_tiles``) with each slice is an item.  The
    items are dealt to ``workers`` threads (``_parallel_max``) tile by
    tile, so where p >= ``workers`` every worker gets its slice of every
    tile, and no worker idles however few tiles there are; numpy releases
    the GIL in every step.  A worker multiplies out the tile of each item
    and builds its DFT index table (``_dft_rows``) once, then checks it
    against each left row of the item in turn, which it expands into a
    buffer as it reaches it: rows ``(i, j)`` to ``(i, j + rows)`` of
    ``M``.  Each worker allocates its buffers once, 0.75 MiB at t = 4096
    and a row, beside its tile.  The entries of ``M`` are the products of
    the compile's last step (``circuit._outer_rows``), the compiled
    entries bit for bit (at n = 1, ``1 * z`` may flip a zero's sign, not
    the distance).  The difference is taken in place, and its magnitude
    over the spent indices.  The result is the same bit for bit for every
    ``workers``; a NaN anywhere makes it NaN, and a worker's exception is
    raised once all have ended.
    """
    t = _right_shape(right)[1]
    dft_tile = _dft_rows(t, len(left))
    slices = min(workers, len(left))
    cuts = [len(left) * k // slices for k in range(slices + 1)]
    items = [(j, rows, low, high) for j, rows in _tiles(right)
             for low, high in zip(cuts, cuts[1:])]

    def check(items) -> float:
        block = np.empty((_TILE_ROWS, t), np.complex128)
        dft = np.empty((_TILE_ROWS, t), np.complex128)
        index = np.empty((_TILE_ROWS, t), np.intp)
        table = np.empty((_TILE_ROWS, t), np.intp)
        expanded = np.empty(t, np.complex128)
        # the full left row is left[i] over each of its t / p periods
        periods = expanded.reshape(-1, left.shape[1])
        maxima = []
        for j, rows, low, high in items:
            tile = _right_rows(right, j, rows)
            gather = dft_tile(j, table[:rows], index[:rows], dft[:rows])
            # the magnitudes go where gather's indices were, 8 bytes an entry too
            entries, magnitude = block[:rows], index[:rows].view(np.float64)
            for i in range(low, high):
                periods[:] = left[i]
                np.multiply(expanded, tile, out=entries)
                diff = gather(i)
                np.subtract(entries, diff, out=diff)
                maxima.append(np.abs(diff, out=magnitude).max())
            del tile  # before the next tile is multiplied out beside it
        return np.max(maxima)

    return _parallel_max(check, items, workers)
