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
identical invocations are byte-identical.  Every output goes through one
writer, ``_emit``: bytes (verify's summary, or a ``render_table`` report
of bounds or compare-radix), or an amplitude document (a state, or a
matrix in JSON or CSV) of the ``documents`` module, which writes itself
chunk by chunk on forked workers.

A run loads the shared core and its own command's layer, nothing else.
This module imports the core at its top: numpy, ``numerics`` (the
parameter checks and limits, the two errors ``main`` maps to exit codes,
and the worker count and write loop), ``gates``, and ``circuit`` (the
circuit IR, the builders and the product engine).  Each handler imports
its layer itself, after its arguments are checked:

    bounds, compare-radix   ``analysis``
    verify                  ``checks``
    apply --basis           ``documents``
    apply --in              ``documents`` and ``dense`` (with ``kernels``)
    gen-matrix              ``documents``

No layer imports ``cli``, so ``python -m qudit_qft.cli`` loads it once.

gen-matrix, verify and apply on a basis state (``--basis``, or state 0 by
default) read the QFT from its product form: every basis input's output is
a product of n single-digit states, with no dense simulation, no identity
input and no q x q gate, and no command builds the matrix M.  Each takes
the two halves of M's last product (``circuit._product_halves``): row
``(i, j)`` of M is row i of the left half times row j of the right half,
the compiled entries bit for bit.  Neither half is held whole.  The left
half's columns repeat with period p, its height, so it is held as its
``(p, p)`` period block, and each reader expands a row of it as it needs
one (``circuit._left_rows``).  The right half is held as the two operands
of its own last product, ``A`` and ``B`` (a single factor at n <= 2), and
each reader multiplies out the rows (``circuit._right_rows``) or the
residue columns (``circuit._right_columns``) it reads, so no command
holds a ``(q**(n-h), q**n)`` array.  gen-matrix
and apply render their documents from the halves chunk by chunk
(``documents.render_matrix`` and ``documents.render_product_state``), so
neither M nor the q**n state is held (see ``MAX_STATE_DIM``).  Only a
state read with ``--in`` runs the dense simulator.  verify compares M with
the DFT on every CPU the process may run on (``checks._oracle_distance``,
with ``_render_workers()`` threads), each thread multiplying out a tile of
at most four rows of the right half once for its share of the left rows
and gathering the DFT's rows from the scaled roots (``checks._dft_rows``),
and takes the unitarity residual from the Kronecker structure of the halves
(``checks.product_unitarity_residual``), one Gram block at a time and
over only the Gram columns a bound leaves able to hold the maximum.  At
n = 1 the left half is a single 1, M is the right half, and its residual
is the blocked one, whose row-block products run on the same threads.
Neither result depends on the thread count.

These threads and the forked render workers are the program's only
parallelism, both counted by ``_render_workers()``: importing the package
puts OpenBLAS on one thread unless ``OPENBLAS_NUM_THREADS`` is already
set, so every matrix product runs on the thread that calls it, and the
products give the same bits on any number of CPUs.

``main`` has the interpreter's last collection at exit skip every object
still alive (``_freeze_at_exit``); the operating system frees that memory
when the process ends.

Usage errors are ``UsageError``s raised by one up-front check per command
(``_check_args``) or by ``documents.parse_state``; any other exception is
a fault of the program and propagates.
"""

from __future__ import annotations

import argparse
import atexit
import functools
import gc
import io
import math
import os
import shutil
import sys

import numpy as np

from .circuit import _product_halves, build_qft_circuit
from .numerics import (
    DEFAULT_DIM_CAP as MAX_DIM_CAP,
    CrossCheckError,
    UsageError,
    _render_workers,
    _write_all,
    check_params,
)


# apply and bounds refuse registers of more amplitudes than this, so that
# their peak RSS stays within a 512 MiB budget.  At 2**20 amplitudes (2-vCPU
# Linux VM, ru_maxrss of the child) apply peaked at 269 MiB from --in, most
# of it the parsed JSON list of pairs.  Every array apply allocates is
# O(q**n), and each state exists once: a StateVector holds the array its
# producer built, not a copy.  apply --basis holds no state: it renders
# each chunk from the product halves, and peaked at 33 MiB at 2**20, 2**19
# and 3**12 alike and at 31 MiB at 2**10; the limit still applies to it.
# bounds runs one input, so its peak does not grow with q**n: 29.6 MiB at
# 2**20 in 0.12-0.20 s, 28.4 MiB of it importing this module (37 MiB and up
# to 60 s while it ran every input).
MAX_STATE_DIM = 2 ** 20

# apply and bounds also refuse a radix above this.  Neither builds the q x q
# Chrestenson gate or runs the dense simulator on a basis input: at n = 1
# (same VM) apply --basis peaked at 32 MiB with radix 2048, as at 2**10
# (126 MiB while it built the gate), and bounds at 29.6 MiB with keep depth
# 1 (137 MiB while its two dense boundary chunks built the gate).  Memory
# would admit a larger radix; the limit stays at the largest radix measured
# until its time budget is decided (at 2048 bounds took 0.11-0.17 s, apply
# 0.12-0.13 s).
MAX_RADIX = 2048


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


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
    from .analysis import capacity_metrics
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
    descriptor ``fd`` (a ``documents._Document``).

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
    try:
        # mode "xb" creates the file as open(..., "wb") would, with the umask applied
        fh = open(temporary, "xb", buffering=0)
    except OSError as exc:  # named by the path the caller gave, not the temporary
        raise OSError(exc.errno, exc.strerror, output_path) from None
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

    An empty ``--out`` path is refused.  ``--radix``, ``--digits``,
    ``--keep-depth`` and ``params`` go through ``numerics.check_params``,
    whose ``ValueError`` becomes a ``UsageError`` here.  Then come the
    CLI's own limits: ``max_radix``, and a dimension ``q**n`` above
    ``max_dim`` or above ``--dim-cap``, which itself may not exceed
    ``MAX_DIM_CAP``.
    """
    if args.output_path == "":
        raise UsageError("--out needs a path, not an empty string")
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
    from .documents import render_matrix  # the command's layer: see the module docstring
    circuit = build_qft_circuit(args.radix, args.digits, args.keep_depth)
    left, right = _product_halves(circuit, np.arange(args.radix ** args.digits))
    _emit(render_matrix(left, right, args.format), args.output_path)
    return 0


def cmd_verify(args) -> int:
    _check_args(args, tolerance=args.tolerance)
    from .checks import _oracle_distance, product_unitarity_residual
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
    from .documents import parse_state, render_product_state, render_state
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
        from .dense import apply_circuit  # only a state read with --in runs it
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
    from .analysis import approximation_report
    rows = approximation_report(args.radix, args.digits, args.keep_depth)
    _emit(render_table(BOUNDS_HEADER, rows, args.format), args.output_path)
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


@functools.cache
def _freeze_at_exit() -> None:
    """Have the interpreter's last collection skip every object still
    alive, once per process (``main`` calls it, so importing the package
    leaves the exit as it was).

    At exit the interpreter clears its modules and collects once more,
    walking every object, numpy's included, to free cycles that the OS
    frees anyway as the process ends: about 10 ms of every run.  Frozen
    objects are skipped.  Nothing the CLI holds needs a finalizer then:
    ``_emit`` closes its files, the render workers are reaped and verify's
    threads joined, and the standard streams are flushed whatever the
    collector does.  ``atexit.unregister`` leaves an empty slot behind, so
    registering anew on every call would grow the table of exit handlers.
    """
    atexit.register(gc.freeze)


def main(argv=None) -> int:
    _freeze_at_exit()
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
