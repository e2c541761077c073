"""Command-line front end: build, verify, apply, and report.

Subcommands
-----------
gen-matrix     compile the (possibly pruned) transform circuit to a matrix
verify         check the compiled circuit against the DFT oracle
apply          run the circuit on a state vector
bounds         per-bracket measured phase error vs. both closed-form bounds
compare-radix  state-space and gate-count scaling of base q against base 2

Data goes to --out (or stdout); diagnostics go to stderr.  Exit codes:
0 success, 1 verification failure, 2 usage or input-parse error (a size
above a command's limit included), 3 I/O error.  All numeric output is
printed with 17 significant digits so files round-trip exactly and
identical invocations are byte-identical.  Every amplitude document (a
state, or a matrix in JSON or CSV) is written chunk by chunk, so none is
held whole in memory.  One worker per CPU the process may run on (this
process and forked children) formats interleaved chunks, and each writes
its own chunks to the output's file descriptor, taking turns on a ring of
pipes that carry a one-byte token (``_write_amplitudes``), so no chunk
passes through another process and the output does not depend on the CPU
count.  Chunks stay bytes from the kernel to the file.

Each chunk is formatted by a numpy kernel that writes exactly the bytes of
``format(x, ".17g")`` for a whole array at once (``_float_rows``, with its
rows from ``_layout`` and its lookup tables in ``_Tables``), into the
lines of the chunk, whose separators ride in the rows' spare bytes
(``_format_chunk``).

gen-matrix, verify and apply on a basis state (``--basis``, or state 0 by
default) read the QFT from its product form: every basis input's output is
a product of n single-digit states, with no dense simulation, no identity
input and no q x q gate, and no command builds the matrix M.  Each takes
the two halves of M's last product (``circuit._product_halves``): row
``(i, j)`` of M is row i of the left half times ``right[j]``, the compiled
entries bit for bit.  The left half's columns repeat with period p, its
height, so it is held as its ``(p, p)`` period block, and each reader
expands a row of it as it needs one (``circuit._left_rows``).  One chunk
reader (``_product_entries``) multiplies out only the entries each chunk
touches as it renders it: the rows of M for gen-matrix
(``render_matrix``), and the amplitudes of its one column for apply
(``render_product_state``), so neither M nor the q**n state is held (see
``MAX_STATE_DIM``).  Only a state read with ``--in`` runs the dense
simulator.  verify compares M with the DFT in tiles of a few rows on every
CPU the process may run on (``circuit._oracle_distance``, with
``_render_workers()`` threads), and takes the unitarity residual from the
Kronecker structure of the halves (``numerics.product_unitarity_residual``),
one Gram block at a time and over only the Gram columns a bound leaves able
to hold the maximum.  At n = 1 the left half is a single 1, M is the right
half, and its residual is the blocked one, whose row-block products run on
the same threads.  Neither result depends on the thread count.

These threads and the forked render workers are the program's only
parallelism: importing the package puts OpenBLAS on one thread unless
``OPENBLAS_NUM_THREADS`` is already set, so every matrix product runs on
the thread that calls it, and the products give the same bits on any
number of CPUs.

Usage errors are ``UsageError``s raised by one up-front check per command
(``_check_args``); any other exception is a fault of the program and
propagates.
"""

from __future__ import annotations

import argparse
import functools
import io
import itertools
import math
import os
import shutil
import sys
import warnings
from collections.abc import Callable
from dataclasses import astuple
from typing import NamedTuple

import numpy as np

from .analysis import CrossCheckError, approximation_report, capacity_metrics
from .circuit import (
    _left_rows, _oracle_distance, _product_halves, apply_circuit, build_qft_circuit,
)
from .numerics import (
    DEFAULT_DIM_CAP as MAX_DIM_CAP,
    NORM_TOL,
    StateVector,
    _check_unit_norm,
    _freeze,
    _norm_sq,
    check_params,
    product_unitarity_residual,
)


# apply and bounds refuse registers of more amplitudes than this, so that
# their peak RSS stays within a 512 MiB budget.  At 2**20 amplitudes (2-vCPU
# Linux VM, ru_maxrss of the child) apply peaked at 270 MiB from --in, most
# of it the parsed JSON list of pairs, and bounds at 143 MiB (q=2,
# keep-depth 3) and 134 MiB (q=4, keep-depth 2).  Every array they allocate
# is O(q**n), and each state exists once: a StateVector holds the array its
# producer built, not a copy.  apply --basis holds no state: it renders
# each chunk from the product halves, and peaked at 33 MiB at 2**20, 2**19
# and 3**12 alike and at 31 MiB at 2**10; the limit still applies to it.
MAX_STATE_DIM = 2 ** 20

# apply and bounds also refuse a radix above this.  Neither builds the q x q
# Chrestenson gate or runs the dense simulator on a basis input: at n = 1
# (same VM) apply --basis peaked at 32 MiB with radix 2048, as at 2**10
# (126 MiB while it built the gate), and bounds at 42 MiB with keep depth 1
# (137 MiB while its two dense boundary chunks built the gate).  Memory
# would admit a larger radix; the limit stays at the largest radix measured
# until its time budget is decided (at 2048 bounds took 0.39-0.41 s, apply
# 0.12-0.13 s).
MAX_RADIX = 2048


class UsageError(Exception):
    """Invalid arguments or malformed input data; mapped to exit code 2."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------- formats

# Amplitude documents are rendered this many entries at a time; converting
# a large state or matrix in one go would raise the peak memory.
_STATE_CHUNK = 4096

_JSON_FOOTER = b"\n  ]\n}\n"

# glibc's malloc serves a block above its mmap threshold (128 KiB at
# start) with fresh pages, which the kernel faults in and zeroes on every
# use, and raises the threshold to the size of such a block once it is
# freed.  A chunk's digit rows and text take a few hundred KiB each, so
# _write_amplitudes frees one untouched block of this size before it
# forks; the chunks of every worker then reuse heap pages.  Rendering the
# 2^19 apply --basis document from its product halves (2-vCPU VM, 2
# workers, 5 runs each) took 20.5 thousand minor page faults and 0.12-0.15 s
# without it, 2.5 thousand and 0.11-0.12 s with it (1 and 2 MiB read the
# same there).
_HEAP_PRIMER_BYTES = 4 << 20

# The decimal exponents of 1e-6 < |x| < 10, the range ``_float_rows``
# formats itself, and the number of digits it prints.
_LEAST_E, _MOST_E = -6, 0
_EXPONENTS = _MOST_E - _LEAST_E + 1
_DIGITS = 17
_SPLIT = 2.0 ** 27 + 1  # Veltkamp's splitter for float64

# A float's text is built in a row of 32 bytes, read as four uint64 words:
# the sign and the right-aligned "0." to "0.000" prefix of E in [-4, -1]
# in bytes 0-5, the first digit at byte 6, a slot for the decimal point at
# byte 7, the other 16 digits from byte 8 (words 1 and 2), and the "e-0X"
# suffix of E in [-6, -5] at byte 24.  Bytes 28-31 are spare: the line's
# separators ride there.  Unused bytes are NUL and are dropped from the
# document.
_FLOAT_WIDTH = 32
_DIGIT0, _SUFFIX, _SPARE = 6, 24, 28


def _layout(negative: bool, e: int, kept: int) -> bytes:
    """The row of a float of exponent ``e`` whose first ``kept`` of its 17
    digits are printed, to be XORed with the row of its digits: a kept
    digit's byte is NUL, a dropped one's is "0", which the XOR clears
    (every dropped digit is a trailing zero)."""
    row = bytearray(_FLOAT_WIDTH)
    head = (b"-" if negative else b"") + (b"0." + b"0" * (-e - 1) if -4 <= e <= -1 else b"")
    row[_DIGIT0 - len(head):_DIGIT0] = head
    for j in range(kept, _DIGITS):
        row[_DIGIT0 + j + (j > 0)] = ord("0")
    if (e == 0 or e <= -5) and kept > 1:
        row[_DIGIT0 + 1] = ord(".")
    if e <= -5:
        row[_SUFFIX:_SUFFIX + 4] = b"e-0%d" % -e
    return bytes(row)


def _spare(text: bytes) -> np.uint64:
    """Word 3 of a float's row with ``text`` in its spare bytes."""
    word = bytes(_SPARE - _SUFFIX) + text.ljust(4, b"\0")
    return np.uint64(int.from_bytes(word, sys.byteorder))


class _Tables(NamedTuple):
    """The kernel's lookup tables.  The first four are indexed by a group
    ``g`` of four digits (0-9999), or by one digit for ``leads``."""
    groups: np.ndarray   # uint32: the ASCII of f"{g:04d}"
    bare: np.ndarray     # uint32: the same with its leading zeros NUL (all four of 0)
    halves: np.ndarray   # (2, 10000) uint64: the four digits in bytes 0-3, and in bytes 4-7
    leads: np.ndarray    # uint64: digit g at byte 6 (a row's first digit)
    zeros: np.ndarray    # int64: the number of trailing zeros of the four digits
    layouts: np.ndarray  # (4, 238) uint64: word k of row (sign * 7 + E + 6) * 17 + kept - 1
    powers: np.ndarray   # (3, 7) float64: 10**(16 - E) and its two Veltkamp halves


@functools.cache
def _format_tables() -> _Tables:
    """The kernel's lookup tables, built on first use.  ``_write_amplitudes``
    builds them before it forks, so its workers inherit them."""
    places = 10 ** np.arange(3, -1, -1)
    digits = (np.arange(10000)[:, None] // places % 10 + ord("0")).astype(np.uint8)
    bare = np.where(digits.cumsum(axis=1) == ord("0") * np.arange(1, 5), 0, digits)
    halves = np.zeros((2, 10000, 8), np.uint8)
    halves[0, :, :4] = halves[1, :, 4:] = digits
    leads = np.zeros((10, 8), np.uint8)
    leads[:, _DIGIT0] = digits[:10, 3]
    zeros = np.zeros(10000, np.int64)
    for step in (10, 100, 1000, 10000):
        zeros[::step] += 1
    layouts = np.frombuffer(b"".join(
        _layout(negative, e, kept) for negative in (False, True)
        for e in range(_LEAST_E, _MOST_E + 1) for kept in range(1, _DIGITS + 1)
    ), np.uint64).reshape(-1, _FLOAT_WIDTH // 8)
    powers = np.array([float(10 ** (_DIGITS - 1 - e)) for e in range(_LEAST_E, _MOST_E + 1)])
    t = _SPLIT * powers
    high = t - (t - powers)
    tables = _Tables(digits.view(np.uint32)[:, 0], bare.astype(np.uint8).view(np.uint32)[:, 0],
                     halves.view(np.uint64)[..., 0], leads.view(np.uint64)[:, 0], zeros,
                     np.ascontiguousarray(layouts.T), np.stack([powers, high, powers - high]))
    for table in tables:  # every caller shares them
        table.flags.writeable = False
    return tables


def _scaled(a: np.ndarray, e: np.ndarray, powers: np.ndarray):
    """``a * 10**(16 - e)`` exactly, as ``p + err`` (Dekker's TwoProduct
    with Veltkamp splits; numpy has no fused multiply-add)."""
    b, b_hi, b_lo = np.take(powers, e - _LEAST_E, axis=1)
    p = a * b
    t = _SPLIT * a
    a_hi = t - (t - a)
    a_lo = a - a_hi
    err = a_lo * b_lo - (((p - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)
    return p, err


def _outside(p: np.ndarray, err: np.ndarray):
    """Where the exact ``p + err`` is below 1e16, and where it is 1e17 or
    more (both powers are doubles, and ``p`` is ``p + err`` rounded)."""
    return ((p < 1e16) | ((p == 1e16) & (err < 0)),
            (p > 1e17) | ((p == 1e17) & (err >= 0)))


def _split(v: np.ndarray, unit: int):
    """``divmod(v, unit)``; a floor division and a product are quicker."""
    quotient = v // unit
    return quotient, v - quotient * unit


def _float_rows(x: np.ndarray, out: np.ndarray) -> None:
    """Write ``format(v, ".17g")`` of each float64 ``v`` of the C-contiguous
    ``x`` into ``out``, a uint64 array of shape ``x.shape + (4,)``, as one
    NUL-padded ``_FLOAT_WIDTH``-byte row each, with its spare bytes NUL.

    For ``1e-6 < |v| < 10`` the decimal exponent E of the 17-digit value
    is in [-6, 0].  It is estimated by ``floor(log10|v|)``, and
    ``|v| * 10**(16 - E)`` is formed exactly as ``p + err``; the power is
    an exact double because 16 <= 16 - E <= 22.  Near a power of ten the
    estimate may be one off, which puts the product outside [1e16, 1e17);
    E is moved and the product formed again.  In range, ``p`` exceeds
    2**53, so it is an even integer and ``p + rint(err)`` is the product
    rounded half to even to 17 digits, as ``format`` rounds it.  A carry
    to 10**17 moves E up.  Zeros get their own row; every other value,
    and one whose carry moved E past 0, is formatted by ``format``.
    """
    tables = _format_tables()
    v = x.reshape(-1)
    a = np.abs(v)
    fast = (a > 1e-6) & (a < 10)
    a = np.where(fast, a, 1.0)
    e = np.clip(np.floor(np.log10(a)).astype(np.int64), _LEAST_E, _MOST_E)
    p, err = _scaled(a, e, tables.powers)
    low, high = _outside(p, err)
    moved = np.flatnonzero(low | high)
    if len(moved):
        e[moved] += np.where(high[moved], 1, -1)
        p[moved], err[moved] = _scaled(a[moved], e[moved], tables.powers)
        if np.any(np.logical_or(*_outside(p[moved], err[moved]))):
            raise RuntimeError("log10 misjudged a decimal exponent by more than one")
    d = p.astype(np.int64) + np.rint(err).astype(np.int64)
    carry = d == 10 ** _DIGITS
    d[carry] = 10 ** (_DIGITS - 1)
    e += carry
    other = np.flatnonzero((~fast & (v != 0)) | (e > _MOST_E))
    e[other] = _MOST_E  # any row: ``format`` writes these

    # the 17 digits: a leading one and four groups of four
    lead, rest = _split(d, 10 ** 16)
    lead[v == 0] = 0  # a zero was formatted as the 1 of its sign
    upper, lower = _split(rest, 10 ** 8)
    quads = [*_split(upper, 10 ** 4), *_split(lower, 10 ** 4)]
    trailing = tables.zeros[quads[3]]
    # few values end in a whole group of zeros; only they look further left
    short = np.flatnonzero(trailing == 4)
    for k, quad in enumerate(quads[2::-1], 2):
        trailing[short] += tables.zeros[quad[short]]
        short = short[trailing[short] == 4 * k]

    key = ((np.signbit(v) * _EXPONENTS + e - _LEAST_E) * _DIGITS
           + _DIGITS - 1 - trailing).reshape(x.shape)
    # each layout word XORed with its digits: the first digit, then two
    # groups of four in each of words 1 and 2
    q0, q1, q2, q3 = (quad.reshape(x.shape) for quad in quads)
    layouts, (first, second) = tables.layouts, tables.halves
    np.bitwise_xor(layouts[0][key], tables.leads[lead.reshape(x.shape)], out=out[..., 0])
    np.bitwise_xor(layouts[1][key], first[q0] | second[q1], out=out[..., 1])
    np.bitwise_xor(layouts[2][key], first[q2] | second[q3], out=out[..., 2])
    out[..., 3] = layouts[3][key]
    if len(other):
        text = [format(f, ".17g") for f in v[other].tolist()]  # at most 24 bytes each
        rows = np.array(text, dtype=f"S{_FLOAT_WIDTH}").view(np.uint64).reshape(-1, 4)
        out[np.unravel_index(other, x.shape)] = rows


def _group_count(largest: int) -> int:
    """The number of four-digit groups ``str(largest)`` takes."""
    return max(1, -(-len(str(largest)) // 4))


def _int_rows(v: np.ndarray, out: np.ndarray) -> None:
    """Write ``str`` of each non-negative int64 of ``v`` into the rows of
    ``out``, ``(len(v), k)`` uint32 words of four digits each, right-aligned
    and NUL-padded; ``k`` is at least ``_group_count(max(v))``."""
    tables = _format_tables()
    zero = v == 0
    for k in range(out.shape[1] - 1, -1, -1):
        v, quad = _split(v, 10 ** 4)
        # a group prints its leading zeros only below a nonzero group
        out[:, k] = np.where(v > 0, tables.groups[quad], tables.bare[quad])
    out.view(np.uint8)[zero, -1] = ord("0")


def _render_workers() -> int:
    """How many processes write amplitude documents, and how many threads
    check verify's oracle tiles: the CPUs this process may run on, or 1
    where ``os.fork`` or ``os.sched_getaffinity`` is missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


# A line is a row of uint32 words: a JSON line's lead "    [" (two words)
# or a CSV line's row and column indices, each followed by a "," word and
# padded to a whole uint64 word, then the rows of its real and imaginary
# parts.  The separators ride in the spare bytes of those rows: the one
# after the real part, the line's end after the imaginary part, and the
# end of the document's last line, which leaves the rest to the footer.
_JSON_LEAD = b"    [\0\0\0"
_JSON_ENDS = _spare(b", "), _spare(b"],\n"), _spare(b"]")
_CSV_ENDS = _spare(b","), _spare(b"\n"), _spare(b"")
_COMMA = np.uint32(ord(","))  # the byte "," then three NULs, in either byte order


def _format_chunk(entries, start: int, cols: int | None, last: bool) -> bytearray:
    """The lines of the entries ``entries(start, start + _STATE_CHUNK)``,
    JSON pairs or, given ``cols``, CSV lines (see ``_write_amplitudes``).
    Each line ends in its separator, but the document's ``last`` line."""
    values = entries(start, start + _STATE_CHUNK)
    count = len(values)
    parts = np.ascontiguousarray(values, dtype=np.complex128).view(np.float64)
    if cols is None:
        head, ends = 2, _JSON_ENDS
    else:
        row, col = np.divmod(np.arange(start, start + count), cols)
        r, c = _group_count(int(row[-1])), _group_count(int(col.max()))
        head, ends = (r + c + 3) & ~1, _CSV_ENDS
    text = bytearray(count * 4 * (head + 16))
    words = np.frombuffer(text, np.uint32).reshape(count, head + 16)
    floats = words[:, head:].view(np.uint64).reshape(count, 2, 4)
    _float_rows(parts.reshape(count, 2), floats)
    floats[:, 0, 3] |= ends[0]
    floats[:, 1, 3] |= ends[1]
    if last:
        floats[-1, 1, 3] ^= ends[1] ^ ends[2]
    if cols is None:
        words[:, :2] = np.frombuffer(_JSON_LEAD, np.uint32)
    else:
        _int_rows(row, words[:, :r])
        _int_rows(col, words[:, r + 1:r + 1 + c])
        words[:, r] = words[:, r + 1 + c] = _COMMA
    return text.translate(None, b"\0")


def _write_all(fd: int, data) -> None:
    """Write the bytes ``data`` to ``fd``, completing short writes."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


class _TurnLost(RuntimeError):
    """A render worker ended before the turn it was to pass on."""


# A forked render worker's exit status: 0 once its chunks are written, or
# once its turn cannot come (the document failed elsewhere); _IO_FAILED
# plus the errno (below 192 on Linux, macOS and the BSDs) when an OSError
# ended it, which the parent raises again; 1 after any other exception,
# whose traceback it prints.
_IO_FAILED = 64
_TOKEN = b"t"


class _Document(NamedTuple):
    """An amplitude document: ``header``, the ``size`` entries that
    ``entries(start, end)`` returns (``start`` to ``min(end, size)``) and
    ``footer``.  Entries are JSON ``[re, im]`` pairs, one per line and
    comma-separated, or, given the column count ``cols`` of a matrix,
    ``row,col,re,im`` CSV lines.  Calling it with a binary file descriptor
    writes it there (``_write_amplitudes``)."""
    header: bytes
    entries: Callable
    size: int
    footer: bytes
    cols: int | None = None

    def __call__(self, fd: int) -> None:
        _write_amplitudes(self, fd)


def _write_turns(document: _Document, fd: int, worker: int, workers: int,
                 turn_in: int | None, turn_out: int | None) -> None:
    """Write chunks ``worker``, ``worker + workers``, ... of ``document`` to
    ``fd``, each in its turn.

    Each chunk is formatted first.  Then the worker waits for the one-byte
    turn token on ``turn_in`` (except before chunk 0), writes the chunk
    (after the header, for chunk 0; before the footer, for the last) and
    passes the token on ``turn_out`` (except after the last chunk).  A
    lone worker has no ring: both ends are None.  A ring end closed by the
    worker at its other end raises ``_TurnLost``.
    """
    header, entries, size, footer, cols = document
    starts = range(0, size, _STATE_CHUNK)
    last = len(starts) - 1
    for k in range(worker, len(starts), workers):
        text = _format_chunk(entries, starts[k], cols, k == last)
        if k and turn_in is not None and os.read(turn_in, 1) != _TOKEN:
            raise _TurnLost(f"render worker ended before the turn of chunk {k}")
        if k == 0:
            _write_all(fd, header)
        _write_all(fd, text)
        if k == last:
            _write_all(fd, footer)
        elif turn_out is not None:
            try:
                os.write(turn_out, _TOKEN)
            except BrokenPipeError:
                raise _TurnLost(f"render worker ended before the turn of chunk {k + 1}") from None


def _write_in_child(document: _Document, fd: int, worker: int, workers: int,
                    turn_in: int, turn_out: int):
    """The body of forked render worker ``worker``; it never returns.

    It first closes every descriptor above 2 but ``fd`` and its two ring
    ends: a ring end of another worker would hide that worker's end, and a
    descriptor of another open file would keep that file open.  It leaves
    through ``os._exit`` with the status that ``_IO_FAILED`` describes, so
    it never flushes a buffer inherited from the parent and never returns
    into the caller.  It reads its values through ``entries``, which slice
    or multiply elementwise at most: no BLAS call, whose threads the fork
    did not copy.
    """
    status = 1
    try:
        low = 3
        for keep in sorted({fd, turn_in, turn_out}):
            os.closerange(low, keep)
            low = max(low, keep + 1)
        os.closerange(low, os.sysconf("SC_OPEN_MAX"))
        _write_turns(document, fd, worker, workers, turn_in, turn_out)
        status = 0
    except _TurnLost:
        status = 0
    except Exception as exc:
        if isinstance(exc, OSError) and exc.errno:
            status = _IO_FAILED + exc.errno
        else:
            import traceback
            os.write(2, f"render worker failed:\n{traceback.format_exc()}".encode())
    finally:
        os._exit(status)


def _write_amplitudes(document: _Document, fd: int) -> None:
    """Write ``document`` to the binary file descriptor ``fd``, in chunks of
    ``_STATE_CHUNK`` entries.

    Chunk ``k`` is formatted and written by worker ``k % W``, ``W`` being
    ``_render_workers()`` capped at the number of chunks.  Worker 0 is this
    process, and every other worker a forked child.  The workers take
    turns on a ring of ``W`` pipes, pipe ``w`` bringing worker ``w`` the
    token from worker ``w - 1`` (``_write_turns``), so each worker writes
    its own chunks to ``fd`` in order while the others format theirs, no
    chunk crosses a pipe, and the bytes do not depend on ``W``.  Each
    process holds only its two ring ends, so a worker that ends early
    reads as end of file to its successor, and as a broken pipe to its
    predecessor, and no wait hangs.  With ``W = 1`` the same loop runs in
    this process alone, with no ring.

    An exception of this process propagates as itself.  Otherwise a
    worker's ``OSError`` is raised again as such, and any other failure of
    a worker (a printed traceback, a non-zero exit status, or an end before
    its turn) raises ``RuntimeError``.  Every child is reaped before this
    returns or raises.
    """
    _format_tables()  # built here, before any fork, so every worker inherits them
    np.empty(_HEAP_PRIMER_BYTES, np.uint8)  # freed at once, never touched
    workers = min(_render_workers(), -(-document.size // _STATE_CHUNK))
    if workers == 1:
        _write_turns(document, fd, 0, 1, None, None)
        return
    ring = [os.pipe() for _ in range(workers)]
    ends = ring[0][0], ring[1][1]
    children, lost = [], None
    try:
        try:
            for w in range(1, workers):
                with warnings.catch_warnings():
                    # Python 3.12+ warns on forking a threaded process:
                    # OpenBLAS has threads where numpy loaded before this
                    # package or OPENBLAS_NUM_THREADS is above 1.  The
                    # child only formats and writes.
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
                if pid == 0:
                    _write_in_child(document, fd, w, workers, ring[w][0],
                                    ring[(w + 1) % workers][1])
                children.append(pid)
        finally:
            for end in itertools.chain(*ring):
                if end not in ends:
                    os.close(end)
        try:
            _write_turns(document, fd, 0, workers, *ends)
        except _TurnLost as exc:
            lost = exc
    finally:
        for end in ends:
            os.close(end)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in children]
    errors = [code - _IO_FAILED for code in codes if code > _IO_FAILED]
    if errors:
        raise OSError(errors[0], os.strerror(errors[0]))
    failed = [code for code in codes if code]
    if failed:
        raise RuntimeError(f"render worker exited with status {failed[0]}")
    if lost is not None:
        raise lost


def _product_entries(left: np.ndarray, right: np.ndarray):
    """``(entries, size)`` of a ``_Document`` of the ``size``
    entries, in row-major order, of the matrix ``M`` whose row ``(i, j)``
    is row i of the full left half times ``right[j]`` (the product halves
    of ``circuit._product_halves``); a product state is its one-column
    case.  Each call of ``entries`` expands the left rows it touches
    (``circuit._left_rows``) and multiplies out only those rows of ``M``,
    with the product that builds ``M`` in ``circuit._outer_rows``, so ``M``
    is never held whole and its entries are the compiled ones bit for
    bit."""
    r, cols = right.shape
    size = len(left) * r * cols

    def entries(start: int, end: int) -> np.ndarray:
        i, j = np.divmod(np.arange(start // cols, -(-min(end, size) // cols)), r)
        return (_left_rows(left, i, cols) * right[j]).ravel()[start % cols:][:end - start]
    return entries, size


def _state_document(radix: int, digits: int, entries, size: int) -> _Document:
    """The state document of the ``size`` amplitudes that ``entries``
    reads."""
    header = f'{{\n  "radix": {radix},\n  "digits": {digits},\n  "amplitudes": [\n'
    return _Document(header.encode(), entries, size, _JSON_FOOTER)


def render_state(state: StateVector) -> _Document:
    """The state document (see ``_Document``)."""
    amps = state.amplitudes
    return _state_document(state.radix, state.digits, lambda a, b: amps[a:b], len(amps))


def render_product_state(radix: int, digits: int, left: np.ndarray,
                         right: np.ndarray) -> _Document:
    """The document of the state whose amplitude ``i * len(right) + j`` is
    ``left[i, 0] * right[j, 0]`` (the halves of ``circuit._product_halves``
    for one basis input), each chunk multiplied out as it is written.

    ``StateVector``'s checks run here, before the document is written, on the
    halves: both must be finite, and the product of their norms**2 (the
    state's) within ``NORM_TOL`` of 1; otherwise ``ValueError``."""
    _check_unit_norm(_norm_sq(left[:, 0]) * _norm_sq(right[:, 0]), left, right)
    return _state_document(radix, digits, *_product_entries(left, right))


def _finite_number(v) -> bool:
    """True for a JSON number that is a finite float (booleans are not numbers)."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


def parse_state(text: str, radix: int, digits: int, tolerance: float) -> StateVector:
    import json  # here, not at module level: no other command pays its import
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed state file: not valid JSON ({exc})")
    if not isinstance(doc, dict) or not {"radix", "digits", "amplitudes"} <= set(doc):
        raise UsageError(
            "malformed state file: expected an object with keys "
            "radix, digits, amplitudes"
        )
    if not all(type(doc[key]) is int for key in ("radix", "digits")):
        raise UsageError("malformed state file: radix and digits must be integers")
    if doc["radix"] != radix or doc["digits"] != digits:
        raise UsageError(
            f"state shape mismatch: file is base-{doc['radix']} with "
            f"{doc['digits']} digits, command expects base-{radix} with {digits}"
        )
    raw = doc["amplitudes"]
    if not isinstance(raw, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(map(_finite_number, p)) for p in raw
    ):
        raise UsageError(
            "malformed state file: amplitudes must be [re, im] pairs of finite numbers"
        )
    if len(raw) != radix ** digits:
        raise UsageError(
            f"state shape mismatch: expected {radix ** digits} amplitudes, "
            f"file holds {len(raw)}"
        )
    # every pair holds two finite numbers: one float64 array, read as complex
    amps = np.fromiter(itertools.chain.from_iterable(raw), dtype=np.float64,
                       count=2 * len(raw)).view(np.complex128)
    norm_sq = _norm_sq(amps)
    if abs(norm_sq - 1.0) > min(tolerance, NORM_TOL):
        raise UsageError(f"state norm violation: norm**2 is {norm_sq!r}, expected 1")
    return StateVector(radix, digits, _freeze(amps))


def render_matrix(left: np.ndarray, right: np.ndarray, fmt: str) -> _Document:
    """The document of the matrix ``M`` of the product halves ``left`` and
    ``right`` (see ``_product_entries``): a JSON document of row-major
    entries, or ``row,col,re,im`` CSV lines."""
    entries, size = _product_entries(left, right)
    cols = right.shape[1]
    if fmt == "csv":
        return _Document(b"row,col,re,im\n", entries, size, b"\n", cols)
    header = f'{{\n  "rows": {size // cols},\n  "cols": {cols},\n  "entries": [\n'
    return _Document(header.encode(), entries, size, _JSON_FOOTER)


def render_table(header: str, rows, fmt: str) -> bytes:
    """Render report rows as CSV under ``header``, or as a JSON list of
    objects keyed by its column names, as ASCII bytes.  Floats print with
    17 significant digits, every other value with ``str``."""
    cells = [[_fmt(v) if isinstance(v, float) else str(v) for v in row] for row in rows]
    if fmt == "csv":
        return ("\n".join([header, *map(",".join, cells)]) + "\n").encode()
    names = header.split(",")
    objs = [
        "  {" + ", ".join(f'"{name}": {v}' for name, v in zip(names, row)) + "}"
        for row in cells
    ]
    return ("[\n" + ",\n".join(objs) + "\n]\n").encode()


BOUNDS_HEADER = "q,n,target_digit,L,m,measured_t1,measured_max_t,bound_new,bound_coppersmith"

COMPARE_HEADER = "q,n,state_space,gates,state_space_ratio,qudit_savings_factor"

# compare-radix prints every state space as a decimal integer, which Python
# allows up to 4300 digits by default, and the ratio (q/2)**n as a float,
# which overflows at 2**1024.  Larger sizes are refused.
_COMPARE_MAX_DIGITS = 4300
_COMPARE_MAX_BITS = _COMPARE_MAX_DIGITS / math.log10(2)


def _check_compare_size(q: int, n: int) -> None:
    # The base-2 row is the widest: 2**ceil(n*log2(q)) >= q**n states.
    # Testing n first keeps a huge n from reaching the float products.
    if (n >= _COMPARE_MAX_BITS or math.ceil(n * math.log2(q)) >= _COMPARE_MAX_BITS
            or n * (math.log2(q) - 1) >= 1024):
        raise UsageError(
            f"compare-radix cannot report base {q} with {n} digits: the state "
            f"space must print in at most {_COMPARE_MAX_DIGITS} decimal digits and "
            "(q/2)**n must be a finite float"
        )


def _compare_rows(q: int, n: int):
    """Base-2 reference and base-q rows reaching at least q**n states."""
    rows = []
    radices = [2, q] if q != 2 else [2]
    for radix in radices:
        if radix == q:
            width = n
        else:
            width = max(1, math.ceil(n * math.log2(q)))
        metrics = capacity_metrics(radix, width)
        rows.append(
            (
                radix,
                width,
                radix ** width,
                width * (width + 1) // 2,
                metrics.state_space_ratio,
                metrics.qudit_savings_factor,
            )
        )
    return rows


# ---------------------------------------------------------------- commands

def _emit(document, output_path: str | None) -> None:
    """Write a document to stdout, or atomically to ``output_path``: bytes,
    or a writer ``document(fd)`` that writes it whole to the binary file
    descriptor ``fd`` (a ``_Document``).

    Stdout is written through its descriptor, after any text printed to it
    before is flushed.  A stdout with no descriptor (an in-process
    caller's redirected ``sys.stdout``) gets the document written to an
    anonymous temporary file and copied into its byte buffer.  A regular
    file is written whole into a temporary file beside it and renamed into
    place, so an error leaves any existing file untouched and no partial
    file behind; the replaced file's permission bits are kept.  A symlink
    is followed to its target.  A device or pipe cannot be renamed over
    and is written directly.
    """
    if isinstance(document, bytes):
        document = functools.partial(_write_all, data=document)
    if output_path is None:
        sys.stdout.flush()  # text printed to it earlier comes first
        try:
            fd = sys.stdout.fileno()
        except io.UnsupportedOperation:
            import tempfile
            with tempfile.TemporaryFile() as fh:
                document(fh.fileno())
                fh.seek(0)
                shutil.copyfileobj(fh, sys.stdout.buffer)
            return
        document(fd)
        return
    target = os.path.realpath(output_path)
    exists = os.path.exists(target)
    if exists and not os.path.isfile(target):
        with open(target, "wb", buffering=0) as fh:
            document(fh.fileno())
        return
    directory, name = os.path.split(target)
    temporary = os.path.join(directory, f".{name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    # mode "xb" creates the file as open(..., "wb") would, with the umask applied
    fh = open(temporary, "xb", buffering=0)
    try:
        with fh:
            document(fh.fileno())
        if exists:
            shutil.copymode(target, temporary)
        os.replace(temporary, target)
    except BaseException:
        os.remove(temporary)
        raise


def _check_args(args, max_dim: int | None = None, max_radix: int | None = None,
                **params) -> None:
    """Refuse a command's arguments up front, before anything is built.

    ``--radix``, ``--digits``, ``--keep-depth`` and ``params`` go through
    ``numerics.check_params``, whose ``ValueError`` becomes a ``UsageError``
    here.  Then come the CLI's own limits: ``max_radix``, and a dimension
    ``q**n`` above ``max_dim`` or above ``--dim-cap``, which itself may not
    exceed ``MAX_DIM_CAP``.
    """
    try:
        check_params(radix=args.radix, digits=args.digits,
                     keep_depth=getattr(args, "keep_depth", None), **params)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if max_radix is not None and args.radix > max_radix:
        raise UsageError(f"--radix {args.radix} exceeds the radix limit {max_radix}")
    cap_name = "the state-dimension limit"
    if hasattr(args, "dim_cap"):
        if args.dim_cap > MAX_DIM_CAP:
            raise UsageError(f"--dim-cap {args.dim_cap} exceeds the dimension-cap limit "
                             f"{MAX_DIM_CAP}")
        max_dim, cap_name = args.dim_cap, "--dim-cap"
    # q**n >= 2**n, so a width at or past max_dim's bit length is refused
    # before q**n is built (it could have billions of digits).
    if max_dim is not None and (args.digits >= max_dim.bit_length()
                                or args.radix ** args.digits > max_dim):
        raise UsageError(
            f"dimension {args.radix}**{args.digits} exceeds {cap_name} {max_dim}"
        )


def cmd_gen_matrix(args) -> int:
    _check_args(args)
    circuit = build_qft_circuit(args.radix, args.digits, args.keep_depth)
    left, right = _product_halves(circuit, np.arange(args.radix ** args.digits))
    _emit(render_matrix(left, right, args.format), args.output_path)
    return 0


def cmd_verify(args) -> int:
    _check_args(args, tolerance=args.tolerance)
    q, n = args.radix, args.digits
    dim = q ** n
    circuit = build_qft_circuit(q, n)
    left, right = _product_halves(circuit, np.arange(dim))
    workers = _render_workers()
    distance = _oracle_distance(left, right, workers)
    residual = product_unitarity_residual(left, right, workers)
    expected_gates = n * (n + 1) // 2
    checks = [
        ("gate_count", circuit.gate_count == expected_gates,
         f"gate_count {circuit.gate_count} expected {expected_gates}"),
        ("oracle_distance", distance <= args.tolerance,
         f"oracle_distance {_fmt(distance)} tolerance {_fmt(args.tolerance)}"),
        ("unitarity_residual", residual <= args.tolerance,
         f"unitarity_residual {_fmt(residual)} tolerance {_fmt(args.tolerance)}"),
    ]
    lines = [f"{text} {'PASS' if ok else 'FAIL'}" for _, ok, text in checks]
    all_ok = all(ok for _, ok, _ in checks)
    lines.append(f"verify {'PASS' if all_ok else 'FAIL'}")
    _emit(("\n".join(lines) + "\n").encode(), args.output_path)
    if not all_ok:
        for name, ok, _ in checks:
            if not ok:
                print(f"verification failed: {name}", file=sys.stderr)
    return 0 if all_ok else 1


def cmd_apply(args) -> int:
    _check_args(args, MAX_STATE_DIM, MAX_RADIX, tolerance=args.tolerance)
    q, n = args.radix, args.digits
    if args.input_path is not None and args.basis is not None:
        raise UsageError("--in and --basis are mutually exclusive")
    circuit = build_qft_circuit(q, n, args.keep_depth)
    if args.input_path is not None:
        try:
            with open(args.input_path, "r", encoding="utf-8") as fh:
                state = parse_state(fh.read(), q, n, args.tolerance)
        except UnicodeDecodeError as exc:  # read as text: no second copy of the file
            raise UsageError(f"malformed state file: not UTF-8 ({exc})") from None
        document = render_state(apply_circuit(circuit, state))
    else:
        index = args.basis if args.basis is not None else 0
        if not 0 <= index < q ** n:
            raise UsageError(f"--basis {index} out of range for dimension {q ** n}")
        # a basis input stays a product state: no dense simulation runs
        document = render_product_state(q, n, *_product_halves(circuit, [index]))
    _emit(document, args.output_path)
    return 0


def cmd_bounds(args) -> int:
    _check_args(args, MAX_STATE_DIM, MAX_RADIX)
    rows = approximation_report(args.radix, args.digits, args.keep_depth)
    table = render_table(BOUNDS_HEADER, map(astuple, rows), args.format)
    _emit(table, args.output_path)
    return 0


def cmd_compare_radix(args) -> int:
    _check_args(args)
    _check_compare_size(args.radix, args.digits)
    rows = _compare_rows(args.radix, args.digits)
    _emit(render_table(COMPARE_HEADER, rows, args.format), args.output_path)
    return 0


# ---------------------------------------------------------------- parser

def _add_size_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--radix", type=int, required=True,
                   help="base q of each digit (>= 2)")
    p.add_argument("--digits", type=int, required=True,
                   help="register width n (>= 1)")


def _add_out_args(p: argparse.ArgumentParser, default_format: str) -> None:
    p.add_argument("--out", dest="output_path", default=None,
                   help="output path (default: stdout)")
    p.add_argument("--format", choices=("json", "csv"), default=default_format,
                   help=f"output format (default: {default_format})")


def _add_keep_depth(p: argparse.ArgumentParser) -> None:
    p.add_argument("--keep-depth", dest="keep_depth", type=int, default=None,
                   help="prune controlled phases whose denominator exponent "
                        "exceeds this; omit to keep every gate")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qudit-qft",
        description="Base-q quantum Fourier transform circuits: build, "
                    "simulate, prune, and verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-matrix", help="compile the transform circuit to a matrix")
    _add_size_args(p)
    _add_keep_depth(p)
    _add_out_args(p, "json")
    p.add_argument("--dim-cap", dest="dim_cap", type=int, default=MAX_DIM_CAP,
                   help=f"largest allowed matrix dimension (default {MAX_DIM_CAP})")
    p.set_defaults(handler=cmd_gen_matrix)

    p = sub.add_parser("verify", help="check the compiled circuit against the DFT oracle")
    _add_size_args(p)
    p.add_argument("--tolerance", type=float, default=1e-10,
                   help="pass threshold for the distance checks (default 1e-10)")
    p.add_argument("--dim-cap", dest="dim_cap", type=int, default=MAX_DIM_CAP,
                   help=f"largest allowed matrix dimension (default {MAX_DIM_CAP})")
    p.add_argument("--out", dest="output_path", default=None,
                   help="write the summary here instead of stdout")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("apply", help="run the transform circuit on a state vector")
    _add_size_args(p)
    _add_keep_depth(p)
    p.add_argument("--in", dest="input_path", default=None,
                   help="input state document (default: basis state 0)")
    p.add_argument("--basis", type=int, default=None,
                   help="apply to this computational basis state instead of a file")
    p.add_argument("--tolerance", type=float, default=1e-10,
                   help="norm tolerance for the input state (default 1e-10)")
    p.add_argument("--out", dest="output_path", default=None,
                   help="output path (default: stdout)")
    p.set_defaults(handler=cmd_apply)

    p = sub.add_parser("bounds", help="measured phase error vs. both bounds, per bracket")
    _add_size_args(p)
    _add_keep_depth(p)
    _add_out_args(p, "csv")
    p.set_defaults(handler=cmd_bounds)

    p = sub.add_parser("compare-radix", help="scaling of base q against base 2")
    _add_size_args(p)
    _add_out_args(p, "csv")
    p.set_defaults(handler=cmd_compare_radix)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CrossCheckError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
