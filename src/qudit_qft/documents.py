"""Amplitude documents: states and matrices as JSON, and matrices as CSV.

Every amplitude document (a state, or a matrix in JSON or CSV) is written
chunk by chunk, so none is held whole in memory.  One worker per CPU the
process may run on (this process and forked children) formats interleaved
chunks, and each writes its own chunks to the output's file descriptor,
taking turns on a ring of pipes that carry a one-byte token
(``_write_amplitudes``), so no chunk passes through another process and
the output does not depend on the CPU count.  Chunks stay bytes from the
kernel to the file.

Each chunk is formatted by a numpy kernel that writes exactly the bytes of
``format(x, ".17g")`` for a whole array at once (``_float_rows``, with its
rows from ``_layout`` and its lookup tables in ``_Tables``), into the
lines of the chunk, whose separators ride in the rows' spare bytes
(``_format_chunk``).

A matrix, or a state, of the product halves of ``circuit._product_halves``
is never held whole: one chunk reader (``_product_entries``) multiplies
out only the entries each chunk touches as it renders it, the rows of M
for ``render_matrix`` and the amplitudes of its one column for
``render_product_state``.  ``render_state`` reads a state that is held.

Only ``cli``'s ``apply`` and ``gen-matrix`` handlers import this module,
inside the handler, so the commands that write no document never compile
it.  The worker count and the write loop come from ``cli``
(``_render_workers`` and ``_write_all``), whose verify threads and
``_emit`` use them without this module.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import warnings
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from .circuit import _left_rows
from .cli import _render_workers, _write_all
from .numerics import StateVector, _check_unit_norm, _norm_sq


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
