"""The benchmark workloads and the oracle checks on their outputs.

Each workload is one ``qudit-qft`` CLI invocation.  Its arguments are made
from the seed before anything is timed.  Every output is checked against
references computed here with numpy alone, never with the package under
test: ``np.fft.fft(..., norm="ortho")`` for the exact transform, which uses
the same ``exp(-2j*pi*x*y/N)`` sign convention, and the closed-form phase
of each output digit for the pruned one.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

import numpy as np

# Largest amplitude deviation from the oracle, and the unitarity residual a
# parsed matrix may show; the CLI's own default `verify` tolerance.
AMP_TOL = 1e-10
# Slack of the bound comparisons, as in the repository's acceptance tests.
BOUND_TOL = 1e-12
BOUNDS_HEADER = (
    "q,n,target_digit,L,m,measured_t1,measured_max_t,bound_new,bound_coppersmith"
)
COMPLEX_BYTES = 16


class CheckFailed(Exception):
    """An output that disagrees with its oracle; counts as a failed run."""


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    radix: int
    digits: int
    keep_depth: int | None
    batch: int  # state vectors the simulator runs side by side

    @property
    def dim(self) -> int:
        return self.radix ** self.digits

    @property
    def working_set_bytes(self) -> int:
        """The simulator's two (batch, dim) complex128 buffers."""
        return 2 * self.batch * self.dim * COMPLEX_BYTES

    def basis_index(self, seed: int) -> int:
        return random.Random(seed).randrange(self.dim)

    def cli_args(self, seed: int, out_path: str) -> list[str]:
        args = [self.command, "--radix", str(self.radix), "--digits", str(self.digits)]
        if self.keep_depth is not None:
            args += ["--keep-depth", str(self.keep_depth)]
        if self.command == "apply":
            args += ["--basis", str(self.basis_index(seed))]
        if self.command == "gen-matrix":
            args += ["--format", "csv"]
        return args + ["--out", out_path]


# BENCHMARK.json says why each workload was chosen; perfbench/README.md
# gives the layer each one stresses.  `gen-matrix-csv` runs only when named
# (or with --workload all): BENCHMARK.json leaves it out, so that the other
# three fit longer runs into the time a full set of runs may take.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-dense", "verify", 2, 12, None, 4096),
        Workload("apply-state", "apply", 2, 19, None, 1),
        Workload("bounds-qutrit", "bounds", 3, 7, 2, 2187),
        Workload("gen-matrix-csv", "gen-matrix", 4, 5, 2, 1024),
    )
}

# The same four jobs at sizes that finish in well under a second each.
SMOKE_WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-dense", "verify", 2, 4, None, 16),
        Workload("apply-state", "apply", 2, 5, None, 1),
        Workload("bounds-qutrit", "bounds", 3, 3, 2, 27),
        Workload("gen-matrix-csv", "gen-matrix", 4, 3, 2, 64),
    )
}


# ---------------------------------------------------------------- oracles

def dft_columns(dim: int, cols: slice) -> np.ndarray:
    """Columns ``cols`` of the unitary DFT matrix, by FFT of identity columns."""
    eye = np.zeros((dim, cols.stop - cols.start), dtype=np.complex128)
    eye[np.arange(cols.start, cols.stop), np.arange(cols.stop - cols.start)] = 1.0
    return np.fft.fft(eye, axis=0, norm="ortho")


def pruned_qft_matrix(q: int, n: int, keep_depth: int | None) -> np.ndarray:
    """Closed form of the (pruned) base-q QFT circuit.

    Register digit l ends at output position n-1-l and carries the phase
    ``exp(-2j*pi * t * phi_l(x))`` on its component t, with
    ``phi_l(x) = sum of x_{l-s+1} / q**s`` over the kept denominator
    exponents s = 1 .. min(keep_depth, l+1).  Every term is a multiple of
    ``q**-depth``, so the exponent is summed exactly in integers.
    """
    depth = n if keep_depth is None else min(keep_depth, n)
    dim = q ** n
    digits = (np.arange(dim)[:, None] // q ** np.arange(n)) % q  # [x, k] = x_k
    weights = np.zeros((dim, n), dtype=np.int64)
    for l in range(n):
        for s in range(1, min(depth, l + 1) + 1):
            weights[:, l] += digits[:, l - s + 1] * q ** (depth - s)
    exponent = (digits[:, ::-1] @ weights.T) % q ** depth  # [y, x]
    return np.exp(-2j * np.pi * exponent / q ** depth) / math.sqrt(dim)


def oracle_distance(w: Workload, matrix: np.ndarray, block: int = 512) -> float:
    """Largest entry distance of a compiled matrix from the workload's oracle."""
    if w.keep_depth is not None:
        return float(np.abs(matrix - pruned_qft_matrix(w.radix, w.digits, w.keep_depth)).max())
    worst = 0.0
    for start in range(0, w.dim, block):
        cols = slice(start, min(start + block, w.dim))
        worst = max(worst, float(np.abs(matrix[:, cols] - dft_columns(w.dim, cols)).max()))
    return worst


def column_norm_drift(matrix: np.ndarray) -> float:
    """Largest ``|norm**2 - 1|`` over the columns (the output states)."""
    return float(np.abs((np.abs(matrix) ** 2).sum(axis=0) - 1.0).max())


# ---------------------------------------------------------------- checks

def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


def check_verify(w: Workload, text: str) -> dict:
    lines = text.splitlines()
    _require(len(lines) == 4, f"expected 4 report lines, got {len(lines)}")
    _require(all(line.endswith(" PASS") for line in lines), "a verify line is not PASS")
    names = [line.split()[0] for line in lines]
    _require(names == ["gate_count", "oracle_distance", "unitarity_residual", "verify"],
             f"unexpected report lines {names}")
    gates = w.digits * (w.digits + 1) // 2
    _require(lines[0].startswith(f"gate_count {gates} "), "wrong gate count")
    return {}


def check_apply(w: Workload, text: str, seed: int) -> dict:
    doc = json.loads(text)
    _require(doc.get("radix") == w.radix and doc.get("digits") == w.digits,
             "state header does not match the workload")
    pairs = np.asarray(doc["amplitudes"], dtype=np.float64)
    _require(pairs.shape == (w.dim, 2), f"amplitude array has shape {pairs.shape}")
    amps = pairs[:, 0] + 1j * pairs[:, 1]
    basis = np.zeros(w.dim, dtype=np.complex128)
    basis[w.basis_index(seed)] = 1.0
    err = float(np.abs(amps - np.fft.fft(basis, norm="ortho")).max())
    _require(err <= AMP_TOL, f"state differs from the FFT oracle by {err:.3g}")
    return {"oracle_max_err": err,
            "norm_drift": abs(float(np.sum(np.abs(amps) ** 2)) - 1.0)}


def check_bounds(w: Workload, text: str) -> dict:
    lines = text.splitlines()
    _require(lines[:1] == [BOUNDS_HEADER], "wrong bounds CSV header")
    _require(len(lines) == w.digits + 1, f"expected {w.digits} rows, got {len(lines) - 1}")
    q, worst = w.radix, 0.0
    for target, line in enumerate(lines[1:]):
        cells = line.split(",")
        _require(len(cells) == 9, f"row {target} has {len(cells)} cells")
        big_l = target + 1
        m = max(0, big_l - w.keep_depth)
        _require([int(c) for c in cells[:5]] == [q, w.digits, target, big_l, m],
                 f"row {target} has wrong indices {cells[:5]}")
        t1, max_t, new, copp = (float(c) for c in cells[5:])
        witness = 2 * math.pi * (q ** m - 1) / q ** big_l
        _require(abs(new - witness) <= BOUND_TOL, f"row {target}: bound_new is off")
        _require(abs(copp - 2 * math.pi * m * q ** m * (q - 1) / q ** big_l) <= BOUND_TOL,
                 f"row {target}: bound_coppersmith is off")
        _require(t1 <= new + BOUND_TOL and new <= copp + BOUND_TOL,
                 f"row {target}: measured_t1 <= bound_new <= bound_coppersmith fails")
        _require(abs(max_t - (q - 1) * t1) <= BOUND_TOL, f"row {target}: measured_max_t is off")
        # Digits of q-1 in every dropped position attain the closed form.
        if m >= 1:
            _require(abs(t1 - witness) <= BOUND_TOL, f"row {target}: witness not attained")
        worst = max(worst, abs(t1 - witness))
    return {"oracle_max_err": worst}


def parse_matrix_csv(w: Workload, text: str) -> np.ndarray:
    header, _, body = text.partition("\n")
    _require(header == "row,col,re,im", "wrong matrix CSV header")
    _require(body.endswith("\n"), "matrix CSV does not end with a newline")
    rows = body.count("\n")
    _require(rows == w.dim * w.dim, f"expected {w.dim * w.dim} rows, got {rows}")
    cells = np.array(body[:-1].replace("\n", ",").split(","), dtype=np.float64)
    _require(cells.size == 4 * rows, "a matrix CSV row does not have 4 cells")
    cells = cells.reshape(rows, 4)
    flat = np.arange(rows)
    _require(np.array_equal(cells[:, 0], flat // w.dim)
             and np.array_equal(cells[:, 1], flat % w.dim),
             "matrix CSV rows are not in row-major order")
    return (cells[:, 2] + 1j * cells[:, 3]).reshape(w.dim, w.dim)


def check_gen_matrix(w: Workload, text: str) -> dict:
    matrix = parse_matrix_csv(w, text)
    residual = float(np.abs(matrix @ matrix.conj().T - np.eye(w.dim)).max())
    _require(residual <= AMP_TOL, f"parsed matrix is not unitary (residual {residual:.3g})")
    err = oracle_distance(w, matrix)
    _require(err <= AMP_TOL, f"matrix differs from the closed form by {err:.3g}")
    return {"oracle_max_err": err, "norm_drift": column_norm_drift(matrix)}


def check_output(w: Workload, seed: int, text: str) -> dict:
    """Check one CLI output; returns the health figures it yields.

    Raises CheckFailed (or a parse error) when the output is wrong.
    """
    if w.command == "verify":
        return check_verify(w, text)
    if w.command == "apply":
        return check_apply(w, text, seed)
    if w.command == "bounds":
        return check_bounds(w, text)
    return check_gen_matrix(w, text)
