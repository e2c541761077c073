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
identical invocations are byte-identical.  Output is written chunk by
chunk, so a state document is never held whole in memory.

gen-matrix and verify compile the QFT from its product form
(``circuit._basis_columns``): every basis input's output is a product of n
single-digit states, so the matrix is built from their row-wise Kronecker
products, with no dense simulation and no identity input.  apply on a basis
state (``--basis``, or state 0 by default) builds its output the same way;
only a state read with ``--in`` runs the dense simulator.  verify compares
the compiled matrix with the DFT one block of rows at a time, and takes the
unitarity residual from the blocks of ``M @ M^H`` on and above the diagonal
(``numerics.unitarity_residual``); it builds no full oracle, product or
identity matrix.

Usage errors are ``UsageError``s raised by up-front checks; any other
exception is a fault of the program and propagates.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from dataclasses import astuple

import numpy as np

from .analysis import CrossCheckError, approximation_report, capacity_metrics
from .circuit import (
    _basis_columns,
    apply_circuit,
    build_qft_circuit,
    circuit_to_matrix,
    dft_matrix,
)
from .numerics import (
    BLOCK_ROWS,
    DEFAULT_DIM_CAP,
    NORM_TOL,
    StateVector,
    max_entry_distance,
    unitarity_residual,
)


# apply and bounds refuse registers of more amplitudes than this, so that
# their peak RSS stays within a 512 MiB budget.  At 2**20 amplitudes (2-vCPU
# Linux VM, numpy path) apply peaked at 70 MiB from --basis and 308 MiB
# from --in, and bounds at 150 MiB (q=2, keep-depth 3) and 145 MiB (q=4,
# keep-depth 2); every array either allocates is O(q**n).
MAX_STATE_DIM = 2 ** 20

# apply and bounds also refuse a radix above this: the dense q x q
# Chrestenson gate is built through long-double intermediates, so peak RSS
# grows as q**2.  At n = 1 (2-vCPU Linux VM, numpy path) apply peaked at
# 102 MiB with radix 1024 and 318 MiB with radix 2048, and bounds at 116
# and 323 MiB; 2048 is the largest radix measured inside the 512 MiB budget.
MAX_RADIX = 2048

# gen-matrix and verify refuse a --dim-cap above this, so that verify's peak
# RSS stays within the same 512 MiB budget: at 4096 (same VM) it peaked at
# 337 MiB, of which the compiled matrix is 256 MiB, and at 8192 that matrix
# alone would take 1024 MiB.  gen-matrix at 4096 exceeds the budget in its
# renderers, which build the whole document as one string.
MAX_DIM_CAP = 4096


class UsageError(Exception):
    """Invalid arguments or malformed input data; mapped to exit code 2."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------- formats

# render_state converts amplitudes to Python floats this many at a time;
# converting a large state in one go would raise the peak memory.
_STATE_CHUNK = 4096


def render_state(state: StateVector):
    """Yield the state document in chunks of ``_STATE_CHUNK`` amplitudes;
    ``"".join`` of the chunks is the whole document."""
    amps = state.amplitudes
    pair = "    [{:.17g}, {:.17g}]".format
    # The header rides on the first chunk and the footer on the last, so
    # no more than one chunk of amplitude text exists at a time.
    lead = (
        "{\n"
        f'  "radix": {state.radix},\n'
        f'  "digits": {state.digits},\n'
        '  "amplitudes": [\n'
    )
    for i in range(0, len(amps), _STATE_CHUNK):
        end = i + _STATE_CHUNK
        text = ",\n".join(map(pair, amps.real[i:end].tolist(), amps.imag[i:end].tolist()))
        yield lead + text + ("\n  ]\n}\n" if end >= len(amps) else "")
        lead = ",\n"


def _finite_number(v) -> bool:
    """True for a JSON number that is a finite float (booleans are not numbers)."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


def parse_state(text: str, radix: int, digits: int, tolerance: float) -> StateVector:
    if math.isnan(tolerance):
        raise UsageError("the norm tolerance must be a number, not nan")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed state file: not valid JSON ({exc})")
    if not isinstance(doc, dict) or not {"radix", "digits", "amplitudes"} <= set(doc):
        raise UsageError(
            "malformed state file: expected an object with keys "
            "radix, digits, amplitudes"
        )
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
    amps = np.array([complex(re, im) for re, im in raw], dtype=np.complex128)
    norm_sq = float(np.sum(np.abs(amps) ** 2))
    if abs(norm_sq - 1.0) > min(tolerance, NORM_TOL):
        raise UsageError(f"state norm violation: norm**2 is {norm_sq!r}, expected 1")
    return StateVector(radix, digits, amps)


def render_matrix_json(matrix: np.ndarray) -> str:
    rows, cols = matrix.shape
    entries = ",\n".join(
        f"    [{_fmt(v.real)}, {_fmt(v.imag)}]" for v in matrix.ravel()
    )
    return (
        "{\n"
        f'  "rows": {rows},\n'
        f'  "cols": {cols},\n'
        f'  "entries": [\n{entries}\n  ]\n'
        "}\n"
    )


def render_matrix_csv(matrix: np.ndarray) -> str:
    lines = ["row,col,re,im"]
    rows, cols = matrix.shape
    for r in range(rows):
        for c in range(cols):
            v = matrix[r, c]
            lines.append(f"{r},{c},{_fmt(v.real)},{_fmt(v.imag)}")
    return "\n".join(lines) + "\n"


def render_table(header: str, rows, fmt: str) -> str:
    """Render report rows as CSV under ``header``, or as a JSON list of
    objects keyed by its column names.  Floats print with 17 significant
    digits, every other value with ``str``."""
    cells = [[_fmt(v) if isinstance(v, float) else str(v) for v in row] for row in rows]
    if fmt == "csv":
        return "\n".join([header, *map(",".join, cells)]) + "\n"
    names = header.split(",")
    objs = [
        "  {" + ", ".join(f'"{name}": {v}' for name, v in zip(names, row)) + "}"
        for row in cells
    ]
    return "[\n" + ",\n".join(objs) + "\n]\n"


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

def _emit(chunks, output_path: str | None) -> None:
    """Write an iterable of text chunks to stdout, or atomically to
    ``output_path``.  Callers pass a list or generator, never a bare str.

    A regular file is written whole into a temporary file beside it and
    renamed into place, so an error leaves any existing file untouched and
    no partial file behind; the replaced file's permission bits are kept.
    A symlink is followed to its target.  A device or pipe cannot be renamed
    over and is written directly.
    """
    if output_path is None:
        sys.stdout.writelines(chunks)
        return
    target = os.path.realpath(output_path)
    exists = os.path.exists(target)
    if exists and not os.path.isfile(target):
        with open(target, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        return
    directory, name = os.path.split(target)
    temporary = os.path.join(directory, f".{name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    # mode "x" creates the file as open(..., "w") would, with the umask applied
    fh = open(temporary, "x", encoding="utf-8")
    try:
        with fh:
            fh.writelines(chunks)
        if exists:
            shutil.copymode(target, temporary)
        os.replace(temporary, target)
    except BaseException:
        os.remove(temporary)
        raise


def _check_params(args, max_dim: int | None = None, cap_name: str = "",
                  max_radix: int | None = None) -> None:
    if args.radix < 2:
        raise UsageError("--radix must be at least 2")
    if max_radix is not None and args.radix > max_radix:
        raise UsageError(f"--radix {args.radix} exceeds the radix limit {max_radix}")
    if args.digits < 1:
        raise UsageError("--digits must be at least 1")
    keep_depth = getattr(args, "keep_depth", None)
    if keep_depth is not None and keep_depth < 1:
        raise UsageError("--keep-depth must be at least 1")
    # q**n >= 2**n, so a width at or past max_dim's bit length is refused
    # before q**n is built (it could have billions of digits).
    if max_dim is not None and (args.digits >= max_dim.bit_length()
                                or args.radix ** args.digits > max_dim):
        raise UsageError(
            f"dimension {args.radix}**{args.digits} exceeds {cap_name} {max_dim}"
        )


def _check_dense_params(args) -> None:
    if args.dim_cap > MAX_DIM_CAP:
        raise UsageError(f"--dim-cap {args.dim_cap} exceeds the dimension-cap limit "
                         f"{MAX_DIM_CAP}")
    _check_params(args, args.dim_cap, "--dim-cap")


def cmd_gen_matrix(args) -> int:
    _check_dense_params(args)
    circuit = build_qft_circuit(args.radix, args.digits, args.keep_depth)
    matrix = circuit_to_matrix(circuit, dim_cap=args.dim_cap)
    render = render_matrix_csv if args.format == "csv" else render_matrix_json
    _emit([render(matrix)], args.output_path)
    return 0


def cmd_verify(args) -> int:
    _check_dense_params(args)
    q, n = args.radix, args.digits
    dim = q ** n
    circuit = build_qft_circuit(q, n)
    matrix = circuit_to_matrix(circuit, dim_cap=args.dim_cap)
    blocks = [slice(start, start + BLOCK_ROWS) for start in range(0, dim, BLOCK_ROWS)]
    # np.max, unlike the builtin max, carries a NaN in any block through
    distance = float(np.max([max_entry_distance(matrix[rows], dft_matrix(dim, rows))
                             for rows in blocks]))
    residual = unitarity_residual(matrix)
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
    _emit(["\n".join(lines) + "\n"], args.output_path)
    if not all_ok:
        for name, ok, _ in checks:
            if not ok:
                print(f"verification failed: {name}", file=sys.stderr)
    return 0 if all_ok else 1


def cmd_apply(args) -> int:
    _check_params(args, MAX_STATE_DIM, "the state-dimension limit", MAX_RADIX)
    q, n = args.radix, args.digits
    if args.input_path is not None and args.basis is not None:
        raise UsageError("--in and --basis are mutually exclusive")
    circuit = build_qft_circuit(q, n, args.keep_depth)
    if args.input_path is not None:
        with open(args.input_path, "r", encoding="utf-8") as fh:
            state = parse_state(fh.read(), q, n, args.tolerance)
        result = apply_circuit(circuit, state)
    else:
        index = args.basis if args.basis is not None else 0
        if not 0 <= index < q ** n:
            raise UsageError(f"--basis {index} out of range for dimension {q ** n}")
        # a basis input stays a product state: no dense simulation runs
        result = StateVector(q, n, _basis_columns(circuit, [index])[:, 0])
    _emit(render_state(result), args.output_path)
    return 0


def cmd_bounds(args) -> int:
    _check_params(args, MAX_STATE_DIM, "the state-dimension limit", MAX_RADIX)
    rows = approximation_report(args.radix, args.digits, args.keep_depth)
    table = render_table(BOUNDS_HEADER, map(astuple, rows), args.format)
    _emit([table], args.output_path)
    return 0


def cmd_compare_radix(args) -> int:
    _check_params(args)
    _check_compare_size(args.radix, args.digits)
    rows = _compare_rows(args.radix, args.digits)
    _emit([render_table(COMPARE_HEADER, rows, args.format)], args.output_path)
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
    p.add_argument("--dim-cap", dest="dim_cap", type=int, default=DEFAULT_DIM_CAP,
                   help=f"largest allowed matrix dimension (default {DEFAULT_DIM_CAP})")
    p.set_defaults(handler=cmd_gen_matrix)

    p = sub.add_parser("verify", help="check the compiled circuit against the DFT oracle")
    _add_size_args(p)
    p.add_argument("--tolerance", type=float, default=1e-10,
                   help="pass threshold for the distance checks (default 1e-10)")
    p.add_argument("--dim-cap", dest="dim_cap", type=int, default=DEFAULT_DIM_CAP,
                   help=f"largest allowed matrix dimension (default {DEFAULT_DIM_CAP})")
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
