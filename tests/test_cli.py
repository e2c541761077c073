"""Tests for the command-line front end and its file formats."""

import errno
import gc
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
import textwrap
import threading
from decimal import Decimal

import numpy as np
import pytest

from qudit_qft import (
    analysis,
    checks,
    circuit,
    cli,
    chrestenson_gate,
    dense,
    documents,
    dft_matrix,
    digit_reversal_perm,
    kernels,
)
from qudit_qft.cli import BOUNDS_HEADER, COMPARE_HEADER, main
from qudit_qft.dense import StateVector
from qudit_qft.documents import parse_state, render_state


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def text_of(document) -> bytes:
    """The bytes a document writer (a ``documents._Document``) writes."""
    with tempfile.TemporaryFile() as fh:
        document(fh.fileno())
        fh.seek(0)
        return fh.read()


def matrix_from_json(text: str) -> np.ndarray:
    doc = json.loads(text)
    entries = np.array([complex(re, im) for re, im in doc["entries"]])
    return entries.reshape(doc["rows"], doc["cols"])


def matrix_from_csv(text: str) -> np.ndarray:
    lines = text.strip().splitlines()
    assert lines[0] == "row,col,re,im"
    cells = [line.split(",") for line in lines[1:]]
    rows = max(int(c[0]) for c in cells) + 1
    cols = max(int(c[1]) for c in cells) + 1
    matrix = np.zeros((rows, cols), dtype=complex)
    for r, c, re, im in cells:
        matrix[int(r), int(c)] = complex(float(re), float(im))
    return matrix


def state_from_json(text: str) -> np.ndarray:
    doc = json.loads(text)
    return np.array([complex(re, im) for re, im in doc["amplitudes"]])


class TestGenMatrix:
    def test_base3_single_digit_is_chrestenson(self, capsys):
        code, out, _ = run(["gen-matrix", "--radix", "3", "--digits", "1"], capsys)
        assert code == 0
        np.testing.assert_allclose(matrix_from_json(out), chrestenson_gate(3), atol=1e-12)

    def test_base2_single_digit_is_walsh(self, capsys):
        code, out, _ = run(["gen-matrix", "--radix", "2", "--digits", "1"], capsys)
        assert code == 0
        matrix = matrix_from_json(out)
        np.testing.assert_allclose(
            matrix, np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-12
        )

    def test_depth_one_is_reversed_parallel_transform(self, capsys):
        code, out, _ = run(
            ["gen-matrix", "--radix", "3", "--digits", "2", "--keep-depth", "1"],
            capsys,
        )
        assert code == 0
        gate = chrestenson_gate(3)
        expected = np.kron(gate, gate)[digit_reversal_perm(3, 2), :]
        np.testing.assert_allclose(matrix_from_json(out), expected, atol=1e-12)

    def test_csv_equals_json(self, capsys):
        _, json_out, _ = run(["gen-matrix", "--radix", "2", "--digits", "2"], capsys)
        _, csv_out, _ = run(
            ["gen-matrix", "--radix", "2", "--digits", "2", "--format", "csv"], capsys
        )
        np.testing.assert_array_equal(
            matrix_from_json(json_out), matrix_from_csv(csv_out)
        )

    def test_byte_identical_reruns(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code, _, _ = run(
                ["gen-matrix", "--radix", "3", "--digits", "2", "--out", str(path)],
                capsys,
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_dim_cap_enforced(self, capsys):
        code, _, err = run(
            ["gen-matrix", "--radix", "2", "--digits", "4", "--dim-cap", "8"], capsys
        )
        assert code == 2
        assert "exceeds" in err

    def test_unwritable_path_is_io_error(self, capsys):
        code, _, err = run(
            ["gen-matrix", "--radix", "2", "--digits", "1",
             "--out", "/nonexistent-dir/m.json"],
            capsys,
        )
        assert code == 3
        assert "i/o error" in err

    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_memory_is_far_below_the_matrix(self, workers, traced_peak, monkeypatch,
                                                 tmp_path):
        # the 1024 x 1024 matrix alone is 16 MiB; each chunk multiplies out
        # only the rows it touches.  The renderer's 4 MiB heap primer counts
        # here, though it is never touched.
        monkeypatch.setattr(documents, "_render_workers", lambda: workers)
        out = tmp_path / "m.csv"
        code, peak = traced_peak(main, ["gen-matrix", "--radix", "2", "--digits", "10",
                                        "--format", "csv", "--out", str(out)])
        assert code == 0
        assert out.read_bytes().count(b"\n") == 2 ** 20 + 1
        assert peak <= 8 * 2 ** 20


class TestVerify:
    def test_base3_four_digits(self, capsys):
        code, out, _ = run(["verify", "--radix", "3", "--digits", "4"], capsys)
        assert code == 0
        assert "gate_count 10 expected 10 PASS" in out
        assert "verify PASS" in out

    def test_base2_five_digits(self, capsys):
        code, out, _ = run(["verify", "--radix", "2", "--digits", "5"], capsys)
        assert code == 0
        assert "gate_count 15 expected 15 PASS" in out

    def test_rejects_radix_one(self, capsys):
        code, _, err = run(["verify", "--radix", "1", "--digits", "2"], capsys)
        assert code == 2
        assert "radix" in err

    @staticmethod
    def changed_factor(row, change, monkeypatch):
        """Make verify at (2, 9) see a compiled matrix whose left-half
        factor entry behind ``M[row, 5]`` is changed in every period of its
        columns, so only the row block holding ``row`` changes: the left
        half is its period block, whose column 5 is that entry of every
        period."""
        split = cli._product_halves

        def changed(qft, x):
            left, right = split(qft, x)
            # 2**9 rows span len(left) row blocks of 32 right rows
            assert left.shape == (16, 16) and circuit._right_shape(right)[0] == 32
            change(left[row // 32, 5:6])
            return left, right

        monkeypatch.setattr(cli, "_product_halves", changed)

    @staticmethod
    def nudge(entries):
        entries *= 1 + 1e-6

    @staticmethod
    def poison(entries):
        entries[:] = np.nan

    @pytest.mark.parametrize("row", [0, 2 ** 9 - 1])
    def test_nudge_in_the_first_or_last_row_block_fails(self, row, monkeypatch, capsys):
        # with 3 workers each row block's tiles go to every worker thread
        monkeypatch.setattr(cli, "_render_workers", lambda: 3)
        self.changed_factor(row, self.nudge, monkeypatch)
        code, out, err = run(["verify", "--radix", "2", "--digits", "9"], capsys)
        assert code == 1
        assert "oracle_distance" in out and "unitarity_residual" in out
        assert all(line.endswith("FAIL") for line in out.splitlines()[1:])
        assert "verification failed: unitarity_residual" in err

    @pytest.mark.parametrize("row", [0, 2 ** 9 - 1])
    def test_nan_in_the_first_or_last_row_block_fails(self, row, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_render_workers", lambda: 3)
        self.changed_factor(row, self.poison, monkeypatch)
        code, out, err = run(["verify", "--radix", "2", "--digits", "9"], capsys)
        assert code == 1
        assert "oracle_distance nan" in out and "unitarity_residual nan" in out
        assert all(line.endswith("FAIL") for line in out.splitlines()[1:])

    @pytest.mark.parametrize("change", ["nudge", "poison"])
    def test_change_in_a_worker_threads_tile_fails(self, change, monkeypatch, capsys):
        # at n = 1 a row of the single factor is a row of M: row 9 lies in
        # tile 1 alone (rows 8..15), which worker thread 1 of 3 checks
        split = cli._product_halves

        def changed(circuit, x):
            left, right = split(circuit, x)
            getattr(self, change)(right[0][9])  # the single factor's row 9
            return left, right

        monkeypatch.setattr(cli, "_product_halves", changed)
        monkeypatch.setattr(cli, "_render_workers", lambda: 3)
        code, out, _ = run(["verify", "--radix", "64", "--digits", "1"], capsys)
        assert code == 1
        assert all(line.endswith("FAIL") for line in out.splitlines()[1:])
        assert ("oracle_distance nan" in out) == (change == "poison")

    @pytest.mark.parametrize("tile,left_row", [(0, 0), (1, 0), (2, 0), (0, 5), (0, 10)],
                             ids=["0", "1", "2", "left-row-5", "left-row-10"])
    def test_exception_in_a_tile_leaves_main(self, tile, left_row, monkeypatch):
        # at (2, 9) the 16 left rows are cut into slices 0-4, 5-9 and 10-15
        # for 3 workers, and worker k checks slice k of every tile: tiles 0
        # to 2 with left row 0 fail in worker 0, the calling thread, and
        # left rows 5 and 10 in the two threads it spawned.  Every worker is
        # joined before the exception leaves main
        dft_rows = checks._dft_rows
        raised_in = []

        def failing(t, p):
            dft_tile = dft_rows(t, p)

            def tile_or_fail(j, table, index, out):
                gather = dft_tile(j, table, index, out)

                def gather_or_fail(i):
                    if (i, j) == (left_row, checks._TILE_ROWS * tile):
                        raised_in.append(threading.current_thread())
                        raise RuntimeError(f"left row {i} of tile {tile} failed")
                    return gather(i)
                return gather_or_fail
            return tile_or_fail

        monkeypatch.setattr(checks, "_dft_rows", failing)
        monkeypatch.setattr(cli, "_render_workers", lambda: 3)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match=f"left row {left_row} of tile {tile} failed"):
            main(["verify", "--radix", "2", "--digits", "9"])
        assert threading.active_count() == threads
        assert len(raised_in) == 1
        assert (raised_in[0] is threading.main_thread()) == (left_row == 0)

    @pytest.mark.parametrize("q,n", [(2, 1), (7, 1), (600, 1), (2, 3), (7, 2), (3, 5),
                                     (2, 9)])
    def test_values_of_the_compiled_matrix(self, q, n, monkeypatch, capsys):
        # the oracle distance is that of the compiled matrix bit for bit; so
        # is the residual at n = 1, where the matrix is the single factor.
        # Every line is the same for 1, 2 and 3 oracle workers; at (3, 5) a
        # block of 27 rows ends in a tile of 3
        outputs = set()
        for workers in (1, 2, 3):
            monkeypatch.setattr(cli, "_render_workers", lambda: workers)
            code, out, _ = run(["verify", "--radix", str(q), "--digits", str(n)], capsys)
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1
        matrix = dense.circuit_to_matrix(circuit.build_qft_circuit(q, n))
        distance = float(np.abs(matrix - dft_matrix(q ** n)).max())
        residual = checks.unitarity_residual(matrix)
        printed = {line.split()[0]: float(line.split()[1]) for line in out.splitlines()[1:3]}
        assert printed["oracle_distance"] == distance
        if n == 1:
            assert printed["unitarity_residual"] == residual
        assert abs(printed["unitarity_residual"] - residual) <= 1e-14

    def test_peak_memory_at_the_cap_is_far_below_the_matrix(self, traced_peak, tmp_path):
        # the 4096 x 4096 matrix alone is 256 MiB; verify builds tiles of 8
        # rows of it and the Gram blocks of its two halves
        out = tmp_path / "verify.txt"
        code, peak = traced_peak(main, ["verify", "--radix", "2", "--digits", "12",
                                        "--out", str(out)])
        assert code == 0
        assert out.read_text().endswith("verify PASS\n")
        assert peak <= 64 * 2 ** 20

    def test_peak_memory_at_16_3_holds_one_gram_block(self, traced_peak, monkeypatch,
                                                      tmp_path):
        # p = 16 and r = 256: the right half would be 16 MiB, its operands
        # are 1 MiB each (views of the 3 MiB slots), and each of the 16 Gram
        # blocks H_s is 1 MiB.  With 3 oracle workers, each holding 1.5 MiB
        # of tile buffers and a 0.5 MiB tile of the right half, verify traced
        # 10.1 MiB; holding the right half whole it traced 21.7 MiB, and
        # holding all 16 Gram blocks besides took 36.5 MiB
        monkeypatch.setattr(cli, "_render_workers", lambda: 3)
        out = tmp_path / "verify.txt"
        code, peak = traced_peak(main, ["verify", "--radix", "16", "--digits", "3",
                                        "--out", str(out)])
        assert code == 0
        assert out.read_text().endswith("verify PASS\n")
        assert peak < 12 * 2 ** 20

    def test_peak_memory_with_eight_workers(self, traced_peak, monkeypatch, tmp_path):
        # each oracle worker allocates its tile buffers once, about 1.5 MiB
        # at the cap, so eight of them stay within the same bound
        monkeypatch.setattr(cli, "_render_workers", lambda: 8)
        self.test_peak_memory_at_the_cap_is_far_below_the_matrix(traced_peak, tmp_path)

    def test_impossible_tolerance_fails(self, capsys):
        code, out, err = run(
            ["verify", "--radix", "2", "--digits", "3", "--tolerance", "1e-30"],
            capsys,
        )
        assert code == 1
        assert "verify FAIL" in out
        assert "verification failed" in err


def reference_state_text(state: StateVector) -> str:
    """The state document, each amplitude formatted on its own."""
    pairs = ",\n".join(
        f"    [{format(float(a.real), '.17g')}, {format(float(a.imag), '.17g')}]"
        for a in state.amplitudes
    )
    return (f'{{\n  "radix": {state.radix},\n  "digits": {state.digits},\n'
            f'  "amplitudes": [\n{pairs}\n  ]\n}}\n')


def test_render_state_matches_per_amplitude_format():
    # the reference formats each amplitude on its own; the state spans
    # several rendering chunks and holds signed zeros and a subnormal
    rng = np.random.default_rng(9001)
    amps = rng.normal(size=3 ** 8) + 1j * rng.normal(size=3 ** 8)
    amps[1] = complex(-0.0, -0.0)
    amps[-1] = complex(1e-300, -5e-310)
    state = StateVector(3, 8, amps / np.linalg.norm(amps))
    assert text_of(render_state(state)).decode() == reference_state_text(state)


class TestParameterRanges:
    @pytest.mark.parametrize("tolerance", ["nan", "-1"])
    def test_bad_verify_tolerance_is_refused_before_compiling(self, tolerance, monkeypatch,
                                                             capsys):
        def compiled(*args, **kwargs):
            raise AssertionError("the circuit was compiled")

        monkeypatch.setattr(cli, "_product_halves", compiled)
        code, out, err = run(["verify", "--radix", "2", "--digits", "3",
                              "--tolerance", tolerance], capsys)
        assert code == 2
        assert out == ""
        assert f"tolerance must be at least 0, got {float(tolerance)!r}" in err

    @pytest.mark.parametrize("command", ["gen-matrix", "apply", "bounds"])
    @pytest.mark.parametrize("flag,value,name", [
        ("--radix", "1", "radix"), ("--digits", "0", "digits"), ("--keep-depth", "0", "keep_depth"),
    ])
    def test_out_of_range_parameter_is_named(self, command, flag, value, name, capsys):
        args = {"--radix": "3", "--digits": "2", "--keep-depth": "1", flag: value}
        code, out, err = run([command, *[x for item in args.items() for x in item]], capsys)
        assert code == 2
        assert out == ""
        assert f"error: {name} must be at least" in err


def reference_matrix_text(matrix: np.ndarray, fmt: str) -> str:
    """The gen-matrix document, each entry formatted on its own."""
    def g(x):
        return format(float(x), ".17g")

    rows, cols = matrix.shape
    if fmt == "csv":
        lines = [f"{r},{c},{g(matrix[r, c].real)},{g(matrix[r, c].imag)}"
                 for r in range(rows) for c in range(cols)]
        return "row,col,re,im\n" + "\n".join(lines) + "\n"
    entries = ",\n".join(f"    [{g(v.real)}, {g(v.imag)}]" for v in matrix.ravel())
    return f'{{\n  "rows": {rows},\n  "cols": {cols},\n  "entries": [\n{entries}\n  ]\n}}\n'


def render_rows(matrix: np.ndarray, fmt: str):
    """``matrix`` rendered as the right half of one factor under a left
    half of ones, and the matrix those halves make (``1 * z`` may turn a
    ``-0`` real part into ``+0``)."""
    ones = np.ones((1, matrix.shape[1]))
    return documents.render_matrix(ones, (matrix,), fmt), ones * matrix


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_render_matrix_matches_per_entry_format(fmt):
    # a rectangular matrix over several rendering chunks, with a partial
    # last chunk, signed zeros and a subnormal
    rng = np.random.default_rng(9002)
    matrix = rng.normal(size=(97, 130)) + 1j * rng.normal(size=(97, 130))
    matrix[0, 1] = complex(-0.0, -0.0)
    matrix[-1, -1] = complex(1e-300, -5e-310)
    document, product = render_rows(matrix, fmt)
    assert text_of(document).decode() == reference_matrix_text(product, fmt)


@pytest.mark.parametrize("q,n", [(3, 7), (5, 5), (6, 4), (7, 3), (2, 12), (16, 3),
                                 (4096, 1)])
def test_chunk_reader_is_the_whole_left_halfs(q, n, full_halves):
    # every chunk read from the period block of the left half and the
    # operands of the right half equals the one the whole left half and the
    # materialized right half give, bit for bit; at (3, 7), (5, 5), (6, 4)
    # and (7, 3) chunks start and end inside rows of M
    qft = circuit.build_qft_circuit(q, n)
    x = np.arange(q ** n)
    whole, right = full_halves(qft, x)
    left, operands = circuit._product_halves(qft, x)
    entries, size = documents._product_entries(left, operands)
    r, cols = right.shape
    assert size == cols * cols
    for start in range(0, size, documents._STATE_CHUNK):
        end = start + documents._STATE_CHUNK
        i, j = np.divmod(np.arange(start // cols, -(-min(end, size) // cols)), r)
        expected = (whole[i] * right[j]).ravel()[start % cols:][:end - start]
        assert np.array_equal(entries(start, end).view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("q,n,k", [(3, 12, 4242), (2, 19, 12345), (5, 6, 1234), (3, 7, 55)])
def test_one_column_chunk_reader_is_the_compiled_column(q, n, k):
    # apply --basis: chunks of 4096 rows of M, one entry each, start and
    # end inside blocks of the right half's rows and of len(B) rows
    qft = circuit.build_qft_circuit(q, n)
    entries, size = documents._product_entries(*circuit._product_halves(qft, [k]))
    column = circuit._outer_rows(circuit._output_factors(qft, [k]))[:, 0]
    got = np.concatenate([entries(start, start + documents._STATE_CHUNK)
                          for start in range(0, size, documents._STATE_CHUNK)])
    assert np.array_equal(got.view(np.uint64), column.view(np.uint64))


@pytest.mark.parametrize("q,n,depth,fmt", [
    # the pruned (3, 5) circuit is named by its format alone
    pytest.param(q, n, depth, fmt, id=fmt if depth else f"{q}-{n}-{fmt}")
    for q, n, depth in [(3, 5, 2), (2, 1, None), (7, 1, None), (64, 1, None), (2, 4, None),
                        (3, 5, None)]
    for fmt in ("json", "csv")
])
def test_gen_matrix_matches_per_entry_format(q, n, depth, fmt, capsys):
    # n = 1 renders through the ones row; at (3, 5) a chunk spans rows of
    # several blocks of the left half
    size = ["--radix", str(q), "--digits", str(n)]
    if depth is not None:
        size += ["--keep-depth", str(depth)]
    code, out, _ = run(["gen-matrix", *size, "--format", fmt], capsys)
    assert code == 0
    matrix = dense.circuit_to_matrix(circuit.build_qft_circuit(q, n, depth))
    assert out == reference_matrix_text(matrix, fmt)


def state_document(n):
    return render_state(StateVector(2, n, np.full(2 ** n, 2 ** (-n / 2))))


def matrix_document(fmt):
    return lambda n: render_rows(np.full((2 ** 6, 2 ** (n - 6)), 0.5 - 0.25j), fmt)[0]


@pytest.mark.parametrize("document,n", [
    pytest.param(state_document, 12, id="12"),
    pytest.param(state_document, 13, id="13"),
    pytest.param(matrix_document("json"), 12, id="matrix-json-12"),
    pytest.param(matrix_document("json"), 13, id="matrix-json-13"),
    pytest.param(matrix_document("csv"), 12, id="matrix-csv-12"),
    pytest.param(matrix_document("csv"), 13, id="matrix-csv-13"),
])
def test_render_state_chunks_end_on_a_chunk_boundary(document, n, monkeypatch):
    # 2**12 and 2**13 entries fill one and two rendering chunks exactly;
    # only the last chunk's last line goes without its separator
    real_format, chunks = documents._format_chunk, []

    def format_chunk(entries, start, cols, last):
        chunks.append((start, last, real_format(entries, start, cols, last)))
        return chunks[-1][2]

    monkeypatch.setattr(documents, "_format_chunk", format_chunk)
    monkeypatch.setattr(documents, "_render_workers", lambda: 1)
    text = text_of(document(n)).decode()
    assert [(start, last) for start, last, _ in chunks] == [
        (k * 4096, k == 2 ** n // 4096 - 1) for k in range(2 ** n // 4096)]
    ends = b"\n" if text.startswith("row,col") else b"],\n"
    assert all(chunk.endswith(ends) for _, _, chunk in chunks[:-1])
    assert not chunks[-1][2].endswith(b"\n")  # the footer ends the last line
    if text.startswith("row,col"):
        assert text.endswith("\n") and not text.endswith("\n\n")
        assert text.count("\n") == 2 ** n + 1
    else:
        assert text.endswith("\n  ]\n}\n")
        doc = json.loads(text)
        assert len(doc.get("amplitudes", doc.get("entries"))) == 2 ** n


# ------------------------------------------------ parallel amplitude writer

def with_specials(values: np.ndarray) -> np.ndarray:
    """``values`` with signed zeros and subnormals in the first chunk, in
    the second (a forked worker's) and in the last entry, scaled so that
    the other entries have unit norm."""
    flat = values.reshape(-1)
    special = [1, min(4097, flat.size - 2), flat.size - 1]
    flat[special] = [complex(-0.0, -0.0), complex(5e-324, -0.0), complex(1e-300, -5e-310)]
    rest = np.ones(flat.size, dtype=bool)
    rest[special] = False
    flat[rest] /= np.linalg.norm(flat[rest])
    return values


# (radix, digits) of a state and (rows, cols) of a matrix, of about as many
# entries: one chunk, two whole chunks (fewer than three workers), whole
# chunks beyond the worker count, and a partial last chunk
DOCUMENT_SIZES = {
    "one-chunk": ((2, 6), (8, 8)),
    "two-chunks": ((2, 13), (64, 128)),
    "whole-chunks": ((2, 14), (96, 128)),
    "partial-last-chunk": ((3, 9), (73, 137)),
}


@pytest.fixture
def forks(monkeypatch):
    """Record every ``os.fork`` that returns in the parent."""
    real_fork, pids = os.fork, []

    def fork():
        pid = real_fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("size", DOCUMENT_SIZES)
@pytest.mark.parametrize("kind", ["state", "json", "csv"])
def test_parallel_render_matches_per_entry_format(kind, size, workers, forks, monkeypatch):
    monkeypatch.setattr(documents, "_render_workers", lambda: workers)
    rng = np.random.default_rng(9003)
    (q, n), shape = DOCUMENT_SIZES[size]
    if kind == "state":
        state = StateVector(q, n, with_specials(rng.normal(size=q ** n) + 0j))
        document, expected = render_state(state), reference_state_text(state)
    else:
        matrix = with_specials(rng.normal(size=shape) + 1j * rng.normal(size=shape))
        document, product = render_rows(matrix, kind)
        expected = reference_matrix_text(product, kind)
    assert text_of(document).decode() == expected
    assert len(forks) == min(workers, -(-document.size // 4096)) - 1


@pytest.mark.parametrize("workers", [1, 2])
def test_short_writes_are_completed(workers, monkeypatch):
    # a pipe or a signal may cut a write short; every worker writes the rest
    monkeypatch.setattr(documents, "_render_workers", lambda: workers)
    real_write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, bytes(data[:1000])))
    rng = np.random.default_rng(9005)
    state = StateVector(2, 13, with_specials(rng.normal(size=2 ** 13) + 0j))
    assert text_of(render_state(state)).decode() == reference_state_text(state)


def test_render_workers_follow_the_cpu_affinity(monkeypatch):
    assert cli._render_workers() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "fork")
    assert cli._render_workers() == 1


@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
def test_parallel_apply_matches_per_entry_format(to_file, tmp_path, forks, monkeypatch,
                                                 capsys):
    monkeypatch.setattr(documents, "_render_workers", lambda: 3)
    path = tmp_path / "out.json"
    code, out, _ = run(["apply", "--radix", "2", "--digits", "14", "--basis", "5",
                        *(["--out", str(path)] if to_file else [])], capsys)
    assert code == 0 and len(forks) == 2
    qft = circuit.build_qft_circuit(2, 14)
    column = circuit._outer_rows(circuit._output_factors(qft, [5]))[:, 0]
    expected = reference_state_text(StateVector(2, 14, column))
    assert (path.read_text() if to_file else out) == expected
    if to_file:
        assert out == "" and os.listdir(tmp_path) == ["out.json"]


@pytest.mark.parametrize("argv", [
    pytest.param(["gen-matrix", "--radix", "3", "--digits", "5", "--keep-depth", "2"],
                 id="gen-matrix-json"),
    pytest.param(["gen-matrix", "--radix", "3", "--digits", "5", "--keep-depth", "2",
                  "--format", "csv"], id="gen-matrix-csv"),
    pytest.param(["verify", "--radix", "2", "--digits", "8"], id="verify"),
    pytest.param(["apply", "--radix", "2", "--digits", "14", "--basis", "5"], id="apply-basis"),
    pytest.param(["apply", "--radix", "2", "--digits", "14", "--in"], id="apply-in"),
    pytest.param(["bounds", "--radix", "3", "--digits", "5", "--keep-depth", "2"],
                 id="bounds-csv"),
    pytest.param(["bounds", "--radix", "3", "--digits", "5", "--keep-depth", "2",
                  "--format", "json"], id="bounds-json"),
    pytest.param(["compare-radix", "--radix", "3", "--digits", "4"], id="compare-radix"),
])
def test_stdout_and_out_file_carry_the_same_bytes(argv, tmp_path, monkeypatch, capsysbinary):
    # amplitude documents are rendered by the parent and one forked worker
    monkeypatch.setattr(documents, "_render_workers", lambda: 2)
    if argv[-1] == "--in":
        state = tmp_path / "in.json"
        state.write_bytes(text_of(render_state(StateVector.basis(2, 14, 5))))
        argv = [*argv, str(state)]
    assert main(argv) == 0
    printed = capsysbinary.readouterr().out
    path = tmp_path / "out"
    assert main([*argv, "--out", str(path)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert printed and path.read_bytes() == printed


def python_child(args, **variables) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this package with the arguments
    ``args``, stdout block-buffered and the environment ``variables`` set
    (removed where None); its exit code and output bytes.  A run that
    hangs fails after 60 s."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
    for name, value in variables.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=60)


def run_python(code: str, **variables) -> str:
    """The stdout of ``code`` run in a ``python_child``, which must exit 0."""
    proc = python_child(["-c", code], **variables)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout.decode()


def test_text_buffered_before_the_fork_is_written_once():
    # stdout is a pipe, so the first line still sits in its buffer when the
    # workers fork; a worker that flushed it would write it again
    out = run_python(
        "import sys; from qudit_qft import cli, documents; "
        "documents._render_workers = lambda: 3; "
        "sys.stdout.write('buffered before the fork\\n'); "
        "sys.exit(cli.main(['apply', '--radix', '2', '--digits', '14', '--basis', '5']))"
    )
    qft = circuit.build_qft_circuit(2, 14)
    state = StateVector(2, 14, circuit._outer_rows(circuit._output_factors(qft, [5]))[:, 0])
    assert out == "buffered before the fork\n" + reference_state_text(state)


@pytest.mark.parametrize("read", [
    pytest.param(100, id="in-the-header"),
    pytest.param(300_000, id="after-the-first-chunk"),
])
def test_closed_stdout_is_one_io_error(read):
    # the reader closes the pipe after ``read`` bytes: inside the parent's
    # first chunk, or past it (2**16 renders 16 chunks of about 200 kB, and
    # the worker writes chunk 1).  A worker that outlived the command would
    # hold stderr open, and reading it to its end would time out.
    code = ("import sys; from qudit_qft import cli, documents; "
            "documents._render_workers = lambda: 2; "
            "sys.exit(cli.main(['apply', '--radix', '2', '--digits', '16', '--basis', '5']))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    reader, writer = os.pipe()
    proc = subprocess.Popen([sys.executable, "-c", code], stdout=writer,
                            stderr=subprocess.PIPE, env=env, start_new_session=True)
    os.close(writer)
    try:
        received = 0
        while received < read:
            part = os.read(reader, read - received)
            assert part, "the command closed stdout early"
            received += len(part)
        os.close(reader)
        reader = None
        _, err = proc.communicate(timeout=60)
    finally:
        if reader is not None:
            os.close(reader)
        if proc.returncode is None:
            os.killpg(proc.pid, 9)
            proc.wait()
    assert proc.returncode == 3
    assert err.decode() == "i/o error: [Errno 32] Broken pipe\n"


def test_cli_setup_imports_no_process_pool():
    # a pool module would lengthen every command's start-up, and so would
    # json (about 1 ms), which only parse_state uses, and the document
    # layer, which only apply and gen-matrix import
    out = run_python(
        "import sys; from qudit_qft.cli import build_parser; build_parser(); "
        "print(sorted({'multiprocessing', 'concurrent.futures', 'json', "
        "'qudit_qft.documents'} & set(sys.modules)))"
    )
    assert out == "[]\n"


# The modules every command loads: the package, the CLI and the shared
# core (parameter checks, gates, circuit IR, builders and product engine).
CORE_MODULES = ["qudit_qft", "qudit_qft.circuit", "qudit_qft.cli", "qudit_qft.gates",
                "qudit_qft.numerics"]


@pytest.mark.parametrize("argv,layer", [
    pytest.param(None, [], id="build-parser"),
    pytest.param(["bounds", "--radix", "3", "--digits", "4", "--keep-depth", "2"],
                 ["analysis"], id="bounds"),
    pytest.param(["compare-radix", "--radix", "3", "--digits", "4"], ["analysis"],
                 id="compare-radix"),
    pytest.param(["verify", "--radix", "2", "--digits", "6"], ["checks"], id="verify"),
    pytest.param(["apply", "--radix", "2", "--digits", "6", "--basis", "5"], ["documents"],
                 id="apply-basis"),
    pytest.param(["apply", "--radix", "2", "--digits", "6", "--in", "STATE"],
                 ["dense", "documents", "kernels"], id="apply-in"),
    pytest.param(["gen-matrix", "--radix", "2", "--digits", "3"], ["documents"],
                 id="gen-matrix"),
])
def test_each_command_loads_the_core_and_its_own_layer(argv, layer, tmp_path):
    # a fresh process, so no layer an earlier test imported hides here: a
    # layer that creeps into the shared path, or a handler that loads
    # another command's, changes the list.  No command loads dataclasses:
    # creating a dataclass and importing the module cost every command
    # about 1.5 ms while the circuit IR was one, and apply --in about 1 ms
    # while dense.StateVector was one
    if argv is None:
        code = "from qudit_qft.cli import build_parser; build_parser(); code = 0"
    else:
        if "STATE" in argv:
            state = tmp_path / "state.json"
            assert main(["apply", "--radix", "2", "--digits", "6", "--basis", "9",
                         "--out", str(state)]) == 0
            argv = [str(state) if a == "STATE" else a for a in argv]
        code = f"from qudit_qft.cli import main; code = main({[*argv, '--out', os.devnull]!r})"
    out = run_python("import sys; " + code + "; "
                     "print(code, sorted(m for m in sys.modules if m.startswith('qudit_qft')), "
                     "'dataclasses' in sys.modules)")
    expected = sorted(CORE_MODULES + [f"qudit_qft.{name}" for name in layer])
    assert out == f"0 {expected} False\n"


@pytest.mark.parametrize("argv", [
    pytest.param(["apply", "--radix", "2", "--digits", "3", "--basis", "1"], id="apply-basis"),
    pytest.param(["gen-matrix", "--radix", "2", "--digits", "3"], id="gen-matrix"),
])
def test_module_run_loads_the_cli_once(argv):
    # run as __main__, the CLI would load a second time as qudit_qft.cli
    # if its document layer imported it
    proc = python_child(["-X", "importtime", "-m", "qudit_qft.cli", *argv, "--out", os.devnull])
    assert proc.returncode == 0, proc.stderr.decode()
    loaded = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.decode().splitlines()
              if line.startswith("import time:")]
    assert "qudit_qft.documents" in loaded
    assert "qudit_qft.cli" not in loaded


# ------------------------------------------------ exit

# An exit hook registered before the CLI is imported runs after every hook
# the CLI registers, and prints whether the heap was frozen by then.
FREEZE_HOOK = ("import atexit, gc; "
               "atexit.register(lambda: print(gc.get_freeze_count() > 0)); ")


def test_main_freezes_the_heap_at_exit_and_registers_once():
    out = run_python(FREEZE_HOOK + textwrap.dedent("""
        import os
        from qudit_qft import cli
        before = atexit._ncallbacks()
        for _ in range(3):
            cli.main(["compare-radix", "--radix", "3", "--digits", "4", "--out", os.devnull])
        print(atexit._ncallbacks() - before, gc.get_freeze_count())
    """))
    assert out == "1 0\nTrue\n"


def test_importing_the_cli_leaves_the_exit_as_it_was():
    out = run_python(FREEZE_HOOK + "import qudit_qft.cli")
    assert out == "False\n"


@pytest.mark.parametrize("argv,code", [
    pytest.param(["bounds", "--radix", "3", "--digits", "5", "--keep-depth", "2"], 0,
                 id="bounds"),
    pytest.param(["compare-radix", "--radix", "3", "--digits", "4"], 0, id="compare-radix"),
    pytest.param(["verify", "--radix", "2", "--digits", "8", "--tolerance", "1e-17"], 1,
                 id="verify-fails"),
    pytest.param(["bounds", "--radix", "3", "--digits", "5", "--keep-depth", "0"], 2,
                 id="usage-error"),
])
def test_frozen_exit_flushes_both_pipes(argv, code, capsysbinary):
    # in process main freezes nothing; a child, whose block-buffered
    # streams are flushed after the freeze, writes the same bytes to its
    # pipes and exits with the same code
    assert main(argv) == code
    assert gc.get_freeze_count() == 0
    expected = capsysbinary.readouterr()
    proc = python_child(["-m", "qudit_qft.cli", *argv])
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, expected.out, expected.err)
    assert expected.out if code < 2 else expected.err


@pytest.mark.parametrize("given,kept", [(None, "1"), ("3", "3")])
def test_import_puts_openblas_on_one_thread_unless_the_caller_chose(given, kept):
    out = run_python("import os, qudit_qft; print(os.environ['OPENBLAS_NUM_THREADS'])",
                     OPENBLAS_NUM_THREADS=given)
    assert out == f"{kept}\n"


def test_import_loads_no_submodule():
    out = run_python("import sys, qudit_qft; "
                     "print(sorted(m for m in sys.modules if m.startswith('qudit_qft')))")
    assert out == "['qudit_qft']\n"


def test_every_export_resolves_lazily():
    # dir() lists every name before any loads; each then loads its module
    # on first use, through a star import and through getattr alike
    out = run_python(textwrap.dedent("""
        import qudit_qft
        names = qudit_qft.__all__
        listed = set(names) <= set(dir(qudit_qft))
        star = {}
        exec("from qudit_qft import *", star)
        same = all(getattr(qudit_qft, name) is star[name] for name in names)
        try:
            qudit_qft.no_such_name
            missing = "resolved"
        except AttributeError as exc:
            missing = str(exc)
        print(len(names), listed, same, missing)
    """))
    assert out == "27 True True module 'qudit_qft' has no attribute 'no_such_name'\n"


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the spin of OpenBLAS's threads was measured on Linux")
def test_cli_child_spins_no_blas_thread_after_import():
    # a threaded OpenBLAS spins its workers for about 0.09 s of CPU after
    # numpy loads it, on the CPUs verify's threads then run on
    out = run_python(textwrap.dedent("""
        import resource, time
        import qudit_qft.cli
        before = resource.getrusage(resource.RUSAGE_SELF)
        time.sleep(0.3)
        after = resource.getrusage(resource.RUSAGE_SELF)
        print(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
    """), OPENBLAS_NUM_THREADS=None)
    assert float(out) < 0.03


def test_cli_setup_builds_no_format_tables():
    # the tables would lengthen every command's start-up; a document builds
    # them once, in the parent, before its workers fork and inherit them
    out = run_python(textwrap.dedent("""
        import os
        import numpy as np
        from qudit_qft import cli
        from qudit_qft.dense import StateVector
        cli.build_parser()
        from qudit_qft import documents
        print(documents._format_tables.cache_info().currsize)
        documents._render_workers = lambda: 3
        real_fork, built_at_fork = os.fork, []
        def fork():
            built_at_fork.append(documents._format_tables.cache_info().currsize)
            return real_fork()
        os.fork = fork
        with open(os.devnull, "wb") as sink:
            state = StateVector(2, 14, np.full(2 ** 14, 2 ** -7 + 0j))
            documents.render_state(state)(sink.fileno())
        print(built_at_fork, documents._format_tables.cache_info().misses)
    """))
    assert out == "0\n[1, 1] 1\n"


class TestParallelRenderFailures:
    # apply at 2**14 renders 4 chunks: the parent writes chunks 0 and 2,
    # one forked worker chunks 1 and 3
    COMMAND = ["apply", "--radix", "2", "--digits", "14", "--basis", "3", "--out"]

    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        monkeypatch.setattr(documents, "_render_workers", lambda: 2)

    @staticmethod
    def assert_no_children():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("chunk,error", [
        pytest.param(1, RuntimeError, id="worker"),
        pytest.param(2, ZeroDivisionError, id="parent"),
    ])
    def test_failed_chunk_keeps_the_old_file(self, chunk, error, tmp_path, monkeypatch,
                                             capfd):
        real_format = documents._format_chunk

        def format_chunk(values, start, cols, last):
            if start == chunk * documents._STATE_CHUNK:
                raise ZeroDivisionError("chunk formatter fault")
            return real_format(values, start, cols, last)

        monkeypatch.setattr(documents, "_format_chunk", format_chunk)
        path = tmp_path / "out.json"
        path.write_text("old content\n")
        with pytest.raises(error):
            main(self.COMMAND + [str(path)])
        assert path.read_text() == "old content\n"
        assert os.listdir(tmp_path) == ["out.json"]
        self.assert_no_children()
        # a worker's traceback reaches stderr; the parent's propagates
        assert ("chunk formatter fault" in capfd.readouterr().err) == (error is RuntimeError)

    def test_failed_worker_exit_status_raises(self, tmp_path, monkeypatch):
        # the worker writes every chunk, then exits with status 7
        real_exit = os._exit
        monkeypatch.setattr(os, "_exit", lambda status: real_exit(7))
        path = tmp_path / "out.json"
        with pytest.raises(RuntimeError, match="render worker exited with status 7"):
            main(self.COMMAND + [str(path)])
        assert os.listdir(tmp_path) == []
        self.assert_no_children()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_worker_that_exits_before_its_turn_raises(self, workers, tmp_path, monkeypatch):
        # the parent passes chunk 1's turn to a worker that is gone, or
        # waits for chunk 2's (or 3's) from one: a broken pipe or an end of
        # file, never a hang
        monkeypatch.setattr(documents, "_render_workers", lambda: workers)
        monkeypatch.setattr(documents, "_write_in_child", lambda *args: os._exit(0))
        with pytest.raises(RuntimeError, match="render worker ended before the turn of chunk"):
            main(self.COMMAND + [str(tmp_path / "out.json")])
        assert os.listdir(tmp_path) == []
        self.assert_no_children()

    @staticmethod
    def write_to_a_reader_that_closes(state, read):
        """Write ``state``'s document into a pipe whose reader takes its
        first ``read`` bytes and closes; return those bytes."""
        reader, writer = os.pipe()
        taken = []

        def consume(left):
            while left > 0:
                taken.append(os.read(reader, left))
                left -= len(taken[-1])
            os.close(reader)

        thread = threading.Thread(target=consume, args=(read,))
        thread.start()
        try:
            with pytest.raises(BrokenPipeError):
                render_state(state)(writer)
        finally:
            os.close(writer)
            thread.join(timeout=60)
        assert not thread.is_alive()
        return b"".join(taken)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_abandoned_document_reaps_its_workers(self, workers, monkeypatch):
        # the reader takes the opening of the document, then abandons it
        monkeypatch.setattr(documents, "_render_workers", lambda: workers)
        state = StateVector(2, 15, np.full(2 ** 15, 2 ** -7.5 + 0j))
        assert self.write_to_a_reader_that_closes(state, 1) == b"{"
        self.assert_no_children()

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("read", [0, 300_000])
    def test_closed_reader_is_a_broken_pipe_and_reaps_the_workers(self, workers, read,
                                                                  monkeypatch):
        # the reader closes at once, so the parent's first write fails, or
        # after 300 kB, inside chunk 1 (about 200 kB a chunk), a worker's
        monkeypatch.setattr(documents, "_render_workers", lambda: workers)
        rng = np.random.default_rng(9004)
        amps = rng.normal(size=2 ** 16) + 1j * rng.normal(size=2 ** 16)
        state = StateVector(2, 16, amps / np.linalg.norm(amps))
        assert len(self.write_to_a_reader_that_closes(state, read)) == read
        self.assert_no_children()

    def test_two_documents_leave_no_child_and_no_open_ring_descriptor(self):
        # every ring end is closed in every process, and every worker
        # reaped, once a document is written.  A fresh interpreter runs it,
        # so a regression times out, not hangs.
        out = run_python(textwrap.dedent("""
            import os
            import numpy as np
            from qudit_qft import documents
            from qudit_qft.dense import StateVector
            documents._render_workers = lambda: 3
            s = StateVector(2, 16, np.full(2 ** 16, 2 ** -8 + 0j))
            with open(os.devnull, "wb") as sink:
                before = sorted(os.listdir("/dev/fd"))
                documents.render_state(s)(sink.fileno())
                documents.render_state(s)(sink.fileno())
                after = sorted(os.listdir("/dev/fd"))
            try:
                os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                print(before == after)
        """))
        assert out == "True\n"


# ------------------------------------------------ exact float kernel

def assert_formats_exactly(values):
    """``documents._float_rows``, through the line assembly of
    ``documents._format_chunk`` in both formats, writes ``format(v, ".17g")``
    for every value."""
    values = np.asarray(values, dtype=np.float64).ravel()
    values = np.concatenate([values, values[:len(values) % 2]])  # whole pairs
    pairs = values.view(np.complex128)
    texts = [format(v, ".17g") for v in values.tolist()]
    real, imag = texts[0::2], texts[1::2]
    expected = {None: ",\n".join(map("    [{}, {}]".format, real, imag)),
                1: "\n".join(map("{},0,{},{}".format, range(len(pairs)), real, imag))}
    for cols, text in expected.items():
        written = b"".join(
            documents._format_chunk(lambda a, b: pairs[a:b], start, cols,
                                    start + documents._STATE_CHUNK >= len(pairs))
            for start in range(0, len(pairs), documents._STATE_CHUNK)).decode()
        if written != text:
            lines, wanted = written.split("\n"), text.split("\n")
            assert len(lines) == len(wanted)
            wrong = [(line, want) for line, want in zip(lines, wanted) if line != want]
            pytest.fail(f"{len(wrong)} lines misformatted, such as (line, expected) {wrong[:5]}")


def random_bits(rng, size, exponents=(0, 2048)):
    """Random float64 bit patterns: any sign and mantissa, a biased binary
    exponent drawn from ``range(*exponents)``."""
    sign_and_mantissa = rng.integers(0, 2 ** 64, size, dtype=np.uint64)
    sign_and_mantissa &= np.uint64(0x800F_FFFF_FFFF_FFFF)
    exponent = rng.integers(*exponents, size, dtype=np.uint64) << np.uint64(52)
    return (sign_and_mantissa | exponent).view(np.float64)


def test_float_kernel_on_random_bit_patterns():
    # 2**20 patterns: 2**16 with any exponent (most print through format,
    # which is slow far from 1), the rest with binary exponents -24..60
    # (6e-8 <= |v| < 2.3e18).  About a quarter of those lie in the kernel's
    # range 1e-6 < |v| < 10; the others, [10, 1e17) among them, lie past
    # its ends and print through format
    rng = np.random.default_rng(1101)
    values = np.concatenate([random_bits(rng, 2 ** 16),
                             random_bits(rng, 2 ** 20 - 2 ** 16, (1023 - 24, 1023 + 61))])
    exponents = values.view(np.uint64) >> np.uint64(52) & np.uint64(0x7FF)
    assert len(np.unique(exponents)) == 2048  # every exponent, inf and NaN included
    assert_formats_exactly(values)


def test_float_kernel_rounds_half_way_ties_to_even():
    # k / 2**j == k * 5**j / 10**j; for odd k with k * 5**j of 18 digits
    # the 17-digit value is exactly half way between two neighbours
    rng = np.random.default_rng(1102)
    values = []
    for j in range(2, 26):
        least, most = -(-10 ** 17 // 5 ** j), min(10 ** 18 // 5 ** j, 2 ** 53)
        k = rng.integers(least, most, 256) | 1
        values.append(np.ldexp(k[k < most].astype(np.float64), -j))
    values = np.concatenate(values)
    assert all(len(Decimal(v).as_tuple().digits) == 18 and Decimal(v).as_tuple().digits[-1] == 5
               for v in values.tolist())
    assert_formats_exactly(np.concatenate([values, -values]))


def with_neighbours(values, count=4):
    """``values`` and the ``count`` doubles on either side of each."""
    below, above = [values], [values]
    for _ in range(count):
        below.append(np.nextafter(below[-1], 0))
        above.append(np.nextafter(above[-1], np.inf))
    return np.concatenate(below + above[1:])


def test_float_kernel_at_powers_of_ten_and_carries():
    powers = np.array([float(f"1e{k}") for k in range(-9, 19)])
    # within half a unit of the 17th digit of a power of ten: some round
    # up to it and carry into E
    nines = [float(f"{m}e{k}") for k in range(-9, 19)
             for m in ("9.99999999999999999", "9.9999999999999999", "9.99999999999999949",
                       "9.9999999999999995", "9.99999999999999951", "1.00000000000000005")]
    values = np.concatenate([with_neighbours(powers), nines])
    assert_formats_exactly(np.concatenate([values, -values]))


def test_float_kernel_on_zeros_subnormals_and_range_borders():
    rng = np.random.default_rng(1103)
    borders = np.array([1e-6, 1e-5, 1e-4, 1.0, 1e16, 1e17, 5e-324, 2.2250738585072014e-308])
    values = np.concatenate([[0.0, 1.7976931348623157e308],
                             random_bits(rng, 4096, (0, 1)),  # subnormals
                             with_neighbours(borders)])
    assert_formats_exactly(np.concatenate([values, -values]))


def test_float_kernel_on_every_row_class():
    # one value of each decimal exponent E from -7 to 1 and each count of
    # printed digits from 1 to 17, with its neighbours and of either sign:
    # every row of the layout table, and the rows past it at E = -7 and
    # E = 1, which go to format.  A one-digit value is tried with every
    # digit, so a class left empty there holds no double (E = -7 to -5);
    # the others are searched at random.  Then values in [10, 1e17), which
    # go to format too.
    rng = np.random.default_rng(1105)
    classes = []
    for e in range(-7, 2):
        for kept in range(1, 18):
            candidates = (range(1, 10) if kept == 1 else
                          rng.integers(10 ** (kept - 1), 10 ** kept, 1000).tolist())
            for m in candidates:
                v = float(f"{m}e{e - kept + 1}")
                mantissa, exponent = format(v, ".16e").split("e")
                if (m % 10 and int(exponent) == e
                        and len(mantissa.replace(".", "").rstrip("0")) == kept):
                    classes.append(v)
                    break
            else:
                assert kept == 1, f"no value found with E = {e} and {kept} digits"
    assert len(classes) == 9 * 17 - 3
    large = np.concatenate([10 ** rng.uniform(1, 17, 4096), [10.0, 1e15, 123456789012345678.0]])
    values = np.concatenate([with_neighbours(np.array(classes), 1), with_neighbours(large, 1)])
    assert_formats_exactly(np.concatenate([values, -values]))


def test_float_kernel_on_command_outputs():
    # every distinct value of the apply state at (2,19) and of the pruned
    # (3,7,2) matrix; signed zeros are distinct values here
    qft = circuit.build_qft_circuit(2, 19)
    state = circuit._outer_rows(circuit._output_factors(qft, [59298]))[:, 0]
    matrix = dense.circuit_to_matrix(circuit.build_qft_circuit(3, 7, 2))
    for amplitudes in (state, matrix):
        bits = np.unique(amplitudes.view(np.float64).view(np.uint64))
        assert_formats_exactly(bits.view(np.float64))


def test_int_rows_match_str():
    # CSV row and column indices, up to many groups of four digits
    rng = np.random.default_rng(1104)
    values = np.concatenate([[0, 1, 9, 10, 9999, 10000, 10001, 99990000, 10 ** 8, 2 ** 63 - 1],
                             rng.integers(0, 2 ** 63, 1000), rng.integers(0, 10 ** 5, 1000)])
    for part in (values, values[values < 10000], np.zeros(3, np.int64)):
        words = np.zeros((len(part), documents._group_count(int(part.max()))), np.uint32)
        documents._int_rows(part, words)
        assert [row.tobytes().replace(b"\0", b"").decode() for row in words] == \
            list(map(str, part.tolist()))


def dense_basis_document(q, n, depth, k) -> bytes:
    """The document of ``apply --basis k`` rendered from the whole state,
    multiplied out from the product halves in one array, the right half
    materialized from its operands."""
    left, right = circuit._product_halves(circuit.build_qft_circuit(q, n, depth), [k])
    whole_right = circuit._outer_rows(list(right))
    return text_of(render_state(StateVector(q, n, (left * whole_right.T).ravel())))


class TestApply:
    @pytest.mark.parametrize("digits", [18, 20])
    def test_basis_peak_memory_is_a_few_chunks(self, digits, traced_peak, tmp_path,
                                               monkeypatch):
        # each chunk multiplies out only its own amplitudes, so no q**n array
        # exists (the state alone is 4 MiB at 2**18 and 16 MiB at 2**20).
        # The renderer's heap primer is allocated and freed untouched, so it
        # is never resident; tracemalloc would count it all the same.
        monkeypatch.setattr(documents, "_HEAP_PRIMER_BYTES", 0)
        path = tmp_path / "out.json"
        main(["apply", "--radix", "2", "--digits", "2", "--basis", "1", "--out", str(path)])
        code, peak = traced_peak(main, ["apply", "--radix", "2", "--digits", str(digits),
                                        "--basis", "5", "--out", str(path)])
        assert code == 0
        assert peak <= 3 * 2 ** 20

    # one chunk, a partial last chunk, the ones row of n = 1, a pruned
    # circuit, and the benchmark's size
    @pytest.mark.parametrize("q,n,depth,k", [
        (2, 12, None, 1234), (3, 8, None, 100), (600, 1, None, 17), (3, 7, 2, 55),
        (2, 19, None, 12345),
    ])
    def test_basis_document_equals_the_dense_state_rendered(self, q, n, depth, k,
                                                            monkeypatch, tmp_path,
                                                            capsysbinary):
        expected = dense_basis_document(q, n, depth, k)
        argv = ["apply", "--radix", str(q), "--digits", str(n), "--basis", str(k)]
        if depth is not None:
            argv += ["--keep-depth", str(depth)]
        path = tmp_path / "state.json"
        for workers in (1, 2, 3):
            monkeypatch.setattr(documents, "_render_workers", lambda: workers)
            assert main(argv) == 0
            assert capsysbinary.readouterr().out == expected
            assert main(argv + ["--out", str(path)]) == 0
            assert path.read_bytes() == expected

    @pytest.mark.parametrize("half", [0, 1])
    @pytest.mark.parametrize("change,message", [
        ("poison", "amplitudes must be finite"),
        ("scale", r"state norm\*\*2 is 1\.002\d*, expected 1"),
    ], ids=["poison", "scale"])
    def test_changed_half_is_refused_before_any_output(self, half, change, message,
                                                       monkeypatch, tmp_path, capsys):
        split = cli._product_halves

        def changed(circuit, x):
            halves = split(circuit, x)
            # the left half, or the last operand of the right half
            part = halves[0] if half == 0 else halves[1][-1]
            if change == "poison":
                part[1] = np.nan
            else:
                part[:] *= 1.001
            return halves

        monkeypatch.setattr(cli, "_product_halves", changed)
        argv = ["apply", "--radix", "2", "--digits", "6", "--basis", "9"]
        path = tmp_path / "state.json"
        path.write_bytes(b"old")
        with pytest.raises(ValueError, match=message):
            main(argv + ["--out", str(path)])
        assert path.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["state.json"]  # no temporary file left
        with pytest.raises(ValueError, match=message):
            main(argv)
        assert capsys.readouterr().out == ""

    def test_single_digit_basis_is_the_compiled_column(self, capsys):
        # at n = 1 the left half is the ones row, and 1 * z is z bit for bit
        code, out, _ = run(["apply", "--radix", "600", "--digits", "1", "--basis", "17"],
                           capsys)
        assert code == 0
        column = dense.circuit_to_matrix(circuit.build_qft_circuit(600, 1))[:, 17]
        assert out == reference_state_text(StateVector(600, 1, column))

    def test_basis_zero_base2(self, capsys):
        code, out, _ = run(["apply", "--radix", "2", "--digits", "1"], capsys)
        assert code == 0
        np.testing.assert_allclose(
            state_from_json(out), np.full(2, 1 / np.sqrt(2)), atol=1e-12
        )

    def test_basis_one_base3(self, capsys):
        code, out, _ = run(
            ["apply", "--radix", "3", "--digits", "1", "--basis", "1"], capsys
        )
        assert code == 0
        a = np.exp(-2j * np.pi / 3)
        np.testing.assert_allclose(
            state_from_json(out), np.array([1, a, a**2]) / np.sqrt(3), atol=1e-12
        )

    @pytest.mark.parametrize("q,n", [(2, 3), (3, 2), (5, 1)])
    def test_zero_input_spreads_uniformly(self, q, n, capsys):
        code, out, _ = run(["apply", "--radix", str(q), "--digits", str(n)], capsys)
        assert code == 0
        amps = state_from_json(out)
        np.testing.assert_allclose(amps, np.full(q ** n, q ** (-n / 2)), atol=1e-12)

    def test_round_trip_through_file(self, tmp_path, capsys):
        out_path = tmp_path / "state.json"
        code, _, _ = run(
            ["apply", "--radix", "3", "--digits", "2", "--basis", "4",
             "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        text = out_path.read_text()
        reparsed = parse_state(text, 3, 2, 1e-10)
        np.testing.assert_allclose(
            reparsed.amplitudes, state_from_json(text), atol=1e-12
        )
        # serializing again reproduces the exact bytes
        assert text_of(render_state(reparsed)).decode() == text

    def test_file_input(self, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_bytes(text_of(render_state(StateVector.basis(2, 2, 3))))
        code, out, _ = run(
            ["apply", "--radix", "2", "--digits", "2", "--in", str(path)], capsys
        )
        assert code == 0
        np.testing.assert_allclose(
            state_from_json(out), dft_matrix(4)[:, 3], atol=1e-12
        )

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("not json at all {")
        code, _, err = run(
            ["apply", "--radix", "2", "--digits", "1", "--in", str(path)], capsys
        )
        assert code == 2
        assert "malformed state file" in err

    def test_boolean_amplitudes_rejected(self, tmp_path, capsys):
        # JSON booleans are Python ints; they are not amplitudes
        path = tmp_path / "booleans.json"
        path.write_text(
            '{"radix": 2, "digits": 1, "amplitudes": [[true, false], [false, false]]}'
        )
        code, _, err = run(
            ["apply", "--radix", "2", "--digits", "1", "--in", str(path)], capsys
        )
        assert code == 2
        assert "malformed state file" in err

    def test_norm_violation(self, tmp_path, capsys):
        path = tmp_path / "unnormalized.json"
        path.write_text(
            '{"radix": 2, "digits": 1, "amplitudes": [[1.0, 0.0], [1.0, 0.0]]}'
        )
        code, _, err = run(
            ["apply", "--radix", "2", "--digits", "1", "--in", str(path)], capsys
        )
        assert code == 2
        assert "norm violation" in err

    def test_shape_mismatch(self, tmp_path, capsys):
        path = tmp_path / "threedigit.json"
        path.write_bytes(text_of(render_state(StateVector.basis(2, 3, 0))))
        code, _, err = run(
            ["apply", "--radix", "2", "--digits", "2", "--in", str(path)], capsys
        )
        assert code == 2
        assert "shape mismatch" in err

    def test_missing_file_is_io_error(self, capsys):
        code, _, err = run(
            ["apply", "--radix", "2", "--digits", "1", "--in", "/no/such/file.json"],
            capsys,
        )
        assert code == 3
        assert "i/o error" in err

    def test_basis_and_file_conflict(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_bytes(text_of(render_state(StateVector.basis(2, 1, 0))))
        code, _, err = run(
            ["apply", "--radix", "2", "--digits", "1", "--in", str(path),
             "--basis", "0"],
            capsys,
        )
        assert code == 2
        assert "mutually exclusive" in err

    def test_basis_out_of_range(self, capsys):
        code, _, err = run(
            ["apply", "--radix", "2", "--digits", "2", "--basis", "4"], capsys
        )
        assert code == 2
        assert "out of range" in err


class TestBounds:
    def test_header_and_zero_rows_when_unpruned(self, capsys):
        code, out, _ = run(["bounds", "--radix", "3", "--digits", "3"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == BOUNDS_HEADER
        assert len(lines) == 4
        for line in lines[1:]:
            cells = line.split(",")
            assert [float(c) for c in cells[5:]] == [0.0, 0.0, 0.0, 0.0]

    def test_base3_depth_two_values(self, capsys):
        code, out, _ = run(
            ["bounds", "--radix", "3", "--digits", "3", "--keep-depth", "2"], capsys
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        last = rows[2]
        assert last[2] == "2" and last[3] == "3" and last[4] == "1"
        assert abs(float(last[5]) - 4 * math.pi / 27) < 1e-12
        assert abs(float(last[7]) - 4 * math.pi / 27) < 1e-12
        assert abs(float(last[8]) - 4 * math.pi / 9) < 1e-12

    def test_rows_sorted_by_target(self, capsys):
        _, out, _ = run(
            ["bounds", "--radix", "2", "--digits", "5", "--keep-depth", "2"], capsys
        )
        targets = [int(line.split(",")[2]) for line in out.strip().splitlines()[1:]]
        assert targets == sorted(targets)

    def test_json_format(self, capsys):
        code, out, _ = run(
            ["bounds", "--radix", "3", "--digits", "3", "--keep-depth", "2",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        rows = json.loads(out)
        assert rows[2]["m"] == 1
        assert abs(rows[2]["measured_t1"] - 4 * math.pi / 27) < 1e-12

    # The exact bytes of both formats, so a renderer change that alters a
    # single character (17 significant digits, spacing, key order) shows.
    @pytest.mark.parametrize("fmt,expected", [
        ("csv",
         "q,n,target_digit,L,m,measured_t1,measured_max_t,bound_new,bound_coppersmith\n"
         "3,3,0,1,0,0,0,0,0\n"
         "3,3,1,2,0,0,0,0,0\n"
         "3,3,2,3,1,0.46542113386515455,0.93084226773030909,0.46542113386515455,"
         "1.3962634015954636\n"),
        ("json",
         '[\n'
         '  {"q": 3, "n": 3, "target_digit": 0, "L": 1, "m": 0, "measured_t1": 0, '
         '"measured_max_t": 0, "bound_new": 0, "bound_coppersmith": 0},\n'
         '  {"q": 3, "n": 3, "target_digit": 1, "L": 2, "m": 0, "measured_t1": 0, '
         '"measured_max_t": 0, "bound_new": 0, "bound_coppersmith": 0},\n'
         '  {"q": 3, "n": 3, "target_digit": 2, "L": 3, "m": 1, '
         '"measured_t1": 0.46542113386515455, "measured_max_t": 0.93084226773030909, '
         '"bound_new": 0.46542113386515455, "bound_coppersmith": 1.3962634015954636}\n'
         ']\n'),
    ])
    def test_exact_bytes(self, fmt, expected, capsys):
        code, out, _ = run(
            ["bounds", "--radix", "3", "--digits", "3", "--keep-depth", "2",
             "--format", fmt],
            capsys,
        )
        assert code == 0
        assert out == expected


    def test_cross_check_failure_is_verification_failure(self, monkeypatch, capsys):
        monkeypatch.setattr(analysis, "_CROSS_CHECK_TOL", -1.0)
        code, out, err = run(
            ["bounds", "--radix", "2", "--digits", "3", "--keep-depth", "2"], capsys
        )
        assert code == 1
        assert out == ""
        assert err.startswith("verification failed: ")
        assert "Traceback" not in err


class TestCompareRadix:
    def test_base4_savings(self, capsys):
        code, out, _ = run(["compare-radix", "--radix", "4", "--digits", "2"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == COMPARE_HEADER
        base4 = lines[-1].split(",")
        assert base4[0] == "4"
        assert float(base4[5]) == 2.0

    def test_base3_four_digits_ratio(self, capsys):
        _, out, _ = run(["compare-radix", "--radix", "3", "--digits", "4"], capsys)
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        base2, base3 = rows
        assert base2[0] == "2" and float(base2[4]) == 1.0
        assert base3[0] == "3" and float(base3[4]) == 5.0625
        # base-2 register must reach at least the base-3 state space
        assert int(base2[2]) >= int(base3[2])

    def test_base2_single_row(self, capsys):
        _, out, _ = run(["compare-radix", "--radix", "2", "--digits", "6"], capsys)
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert float(lines[1].split(",")[4]) == 1.0

    def test_json_format(self, capsys):
        _, out, _ = run(
            ["compare-radix", "--radix", "3", "--digits", "4", "--format", "json"],
            capsys,
        )
        rows = json.loads(out)
        assert rows[-1]["state_space_ratio"] == 5.0625

    # The exact bytes of both formats; integer-valued floats print bare.
    @pytest.mark.parametrize("fmt,expected", [
        ("csv",
         "q,n,state_space,gates,state_space_ratio,qudit_savings_factor\n"
         "2,7,128,28,1,1\n"
         "3,4,81,10,5.0625,1.5849625007211561\n"),
        ("json",
         '[\n'
         '  {"q": 2, "n": 7, "state_space": 128, "gates": 28, '
         '"state_space_ratio": 1, "qudit_savings_factor": 1},\n'
         '  {"q": 3, "n": 4, "state_space": 81, "gates": 10, '
         '"state_space_ratio": 5.0625, "qudit_savings_factor": 1.5849625007211561}\n'
         ']\n'),
    ])
    def test_exact_bytes(self, fmt, expected, capsys):
        code, out, _ = run(
            ["compare-radix", "--radix", "3", "--digits", "4", "--format", fmt], capsys
        )
        assert code == 0
        assert out == expected

    @pytest.mark.parametrize("q,n", [
        (3, 2000), (3, 1751), (2, 100000), (2, 14285),
        # too large to convert to a float
        pytest.param(2, 10 ** 400, id="2-10**400"),
    ])
    def test_unprintable_sizes_refused(self, q, n, capsys):
        code, out, err = run(["compare-radix", "--radix", str(q), "--digits", str(n)],
                             capsys)
        assert code == 2
        assert out == ""
        assert f"base {q} with {n} digits" in err
        assert "Traceback" not in err

    # The largest sizes that still print: 1.5**1750 < 2**1024, and 2**14284
    # has 4300 decimal digits.
    @pytest.mark.parametrize("q,n", [(3, 1750), (2, 14284)])
    def test_largest_printable_sizes_accepted(self, q, n, capsys):
        code, out, _ = run(["compare-radix", "--radix", str(q), "--digits", str(n)],
                           capsys)
        assert code == 0
        assert out.splitlines()[-1].startswith(f"{q},{n},")


class TestStateDimensionLimit:
    @pytest.mark.parametrize("command,q,n,extra", [
        ("apply", 2, 40, []),
        ("apply", 2, 40, ["--in", "/no/such/file.json"]),
        ("bounds", 2, 40, []),
        ("bounds", 2, 40, ["--keep-depth", "3"]),
        # refused without building the 1.6e9-bit integer 3**10**9
        ("apply", 3, 10 ** 9, []),
        ("bounds", 3, 10 ** 9, []),
    ])
    def test_oversized_register_refused(self, command, q, n, extra, capsys):
        code, out, err = run([command, "--radix", str(q), "--digits", str(n), *extra],
                             capsys)
        assert code == 2
        assert out == ""
        assert f"dimension {q}**{n} exceeds" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["apply", "bounds"])
    def test_limit_is_inclusive(self, command, monkeypatch, capsys):
        monkeypatch.setattr(cli, "MAX_STATE_DIM", 9)
        code, _, _ = run([command, "--radix", "3", "--digits", "2"], capsys)
        assert code == 0
        code, _, err = run([command, "--radix", "2", "--digits", "4"], capsys)
        assert code == 2
        assert "dimension 2**4 exceeds" in err

    def test_benchmark_sizes_accepted(self):
        assert 2 ** 19 <= cli.MAX_STATE_DIM and 3 ** 7 <= cli.MAX_STATE_DIM


class ReachedSimulation(Exception):
    """Raised in place of the simulation, once every size check has passed."""


class TestRadixLimit:
    @pytest.fixture
    def no_simulation(self, monkeypatch):
        def reached(*args, **kwargs):
            raise ReachedSimulation

        monkeypatch.setattr(cli, "build_qft_circuit", reached)
        monkeypatch.setattr(analysis, "approximation_report", reached)

    @pytest.mark.parametrize("command", ["apply", "bounds"])
    def test_radix_above_the_limit_refused(self, command, no_simulation, capsys):
        radix = cli.MAX_RADIX + 1
        code, out, err = run([command, "--radix", str(radix), "--digits", "1"], capsys)
        assert code == 2
        assert out == ""
        assert f"--radix {radix} exceeds the radix limit {cli.MAX_RADIX}" in err

    @pytest.mark.parametrize("command", ["apply", "bounds"])
    def test_radix_at_the_limit_accepted(self, command, no_simulation):
        with pytest.raises(ReachedSimulation):
            main([command, "--radix", str(cli.MAX_RADIX), "--digits", "1"])


class TestAtomicOutput:
    COMMAND = ["compare-radix", "--radix", "3", "--digits", "2", "--out"]

    def expected(self, capsys):
        _, out, _ = run(self.COMMAND[:-1], capsys)
        return out

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "out.csv"
        path.write_text("old content\n")
        real_write = os.write
        partial = []

        def half_write(fd, data):
            # the temporary file gets half of the first write, then the disk is full
            real_write(fd, bytes(data[:len(data) // 2]))
            partial.append(os.fstat(fd).st_size)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "write", half_write)
        code, _, err = run(self.COMMAND + [str(path)], capsys)
        assert code == 3
        assert "i/o error" in err
        assert partial and partial[0] > 0
        assert path.read_text() == "old content\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_failed_rename_keeps_the_old_file(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "out.csv"
        path.write_text("old content\n")

        def refuse(src, dst):
            raise OSError(errno.EXDEV, "Invalid cross-device link")

        monkeypatch.setattr(os, "replace", refuse)
        code, _, _ = run(self.COMMAND + [str(path)], capsys)
        assert code == 3
        assert path.read_text() == "old content\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_replaces_a_longer_file_and_keeps_its_mode(self, tmp_path, capsys):
        path = tmp_path / "out.csv"
        path.write_text("x" * 10000)
        path.chmod(0o640)
        code, out, _ = run(self.COMMAND + [str(path)], capsys)
        assert code == 0 and out == ""
        assert path.read_text() == self.expected(capsys)
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_symlink_is_followed(self, tmp_path, capsys):
        target = tmp_path / "target.csv"
        target.write_text("old content\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        assert run(self.COMMAND + [str(link)], capsys)[0] == 0
        assert link.is_symlink()
        assert target.read_text() == self.expected(capsys)
        assert sorted(os.listdir(tmp_path)) == ["link.csv", "target.csv"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_is_written_in_place(self, tmp_path, capsys):
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert run(self.COMMAND + [str(pipe)], capsys)[0] == 0
            assert os.read(reader, 1 << 16).decode() == self.expected(capsys)
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.stat(pipe).st_mode)
        assert os.listdir(tmp_path) == ["pipe"]


def state_file(amplitudes: str, radix: str = "2", digits: str = "1") -> str:
    return f'{{"radix": {radix}, "digits": {digits}, "amplitudes": {amplitudes}}}'


@pytest.mark.parametrize("document,tolerance,message", [
    # an int too large for a float is not a finite number
    pytest.param(state_file("[[1" + "0" * 400 + ", 0], [0, 0]]"), None,
                 "malformed state file", id="int-beyond-float"),
    # the header's sizes are JSON integers: neither a boolean nor a float
    # passes for one, although True == 1 and 2.0 == 2
    pytest.param(state_file("[[1.0, 0.0], [0.0, 0.0]]", digits="true"), None,
                 "malformed state file", id="boolean-digits"),
    pytest.param(state_file("[[1.0, 0.0], [0.0, 0.0]]", radix="2.0", digits="1.0"), None,
                 "malformed state file", id="float-radix-and-digits"),
    # a tolerance out of range is refused before the state is read, whatever
    # the state holds, and with --basis too
    pytest.param(state_file("[[1.0, 0.0], [0.0, 0.0]]"), "nan",
                 "tolerance must be at least 0, got nan", id="nan-tolerance-unit-state"),
    pytest.param(state_file("[[1.0, 0.0], [1.0, 0.0]]"), "nan",
                 "tolerance must be at least 0, got nan", id="nan-tolerance-unnormalized"),
    pytest.param(state_file("[[1.0, 0.0], [0.0, 0.0]]"), "-1",
                 "tolerance must be at least 0, got -1.0", id="negative-tolerance-unit-state"),
    pytest.param(None, "nan", "tolerance must be at least 0, got nan",
                 id="nan-tolerance-basis"),
    # a file that is not UTF-8, from its first byte or inside a string value
    pytest.param(b"\xff" + state_file("[[1.0, 0.0], [0.0, 0.0]]").encode(), None,
                 "malformed state file: not UTF-8", id="not-utf8-first-byte"),
    pytest.param(state_file('[[1.0, 0.0], [0.0, 0.0]], "note": "?"').encode()
                 .replace(b"?", b"\xff"), None,
                 "malformed state file: not UTF-8", id="not-utf8-string-value"),
])
def test_state_file_edge_cases_are_usage_errors(document, tolerance, message, tmp_path,
                                                capsys):
    if document is None:
        source = ["--basis", "1"]
    else:
        path = tmp_path / "state.json"
        if isinstance(document, bytes):
            path.write_bytes(document)
        else:
            path.write_text(document)
        source = ["--in", str(path)]
    tolerance = [] if tolerance is None else ["--tolerance", tolerance]
    code, out, err = run(["apply", "--radix", "2", "--digits", "1", *source, *tolerance],
                         capsys)
    assert code == 2
    assert out == ""
    assert f"error: {message}" in err


@pytest.fixture
def no_dense_simulation(monkeypatch):
    """Make the dense simulator, both kernels and the state-input path raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("the dense simulator ran")

    monkeypatch.setattr(dense, "_run_batch", refuse)
    monkeypatch.setattr(kernels, "apply_single_qudit", refuse)
    monkeypatch.setattr(kernels, "apply_diagonal", refuse)
    monkeypatch.setattr(dense, "apply_circuit", refuse)


class TestBasisInputs:
    @pytest.mark.parametrize("q,n,k,depth", [
        (2, 6, 45, None), (3, 4, 17, 2), (5, 2, 24, None), (4, 3, 0, 1), (2, 1, 1, None),
    ])
    def test_basis_equals_the_same_state_from_a_file(self, q, n, k, depth, tmp_path,
                                                    capsys):
        path = tmp_path / "basis.json"
        path.write_bytes(text_of(render_state(StateVector.basis(q, n, k))))
        size = ["--radix", str(q), "--digits", str(n)]
        if depth is not None:
            size += ["--keep-depth", str(depth)]
        code, from_basis, _ = run(["apply", *size, "--basis", str(k)], capsys)
        assert code == 0
        code, from_file, _ = run(["apply", *size, "--in", str(path)], capsys)
        assert code == 0
        np.testing.assert_allclose(state_from_json(from_basis), state_from_json(from_file),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("q,n,k", [(2, 12, 1234), (3, 5, 0), (7, 3, 300)])
    def test_apply_runs_no_dense_simulation(self, q, n, k, no_dense_simulation, capsys):
        argv = ["apply", "--radix", str(q), "--digits", str(n)]
        code, out, _ = run(argv + (["--basis", str(k)] if k else []), capsys)
        assert code == 0
        basis = np.zeros(q ** n)
        basis[k] = 1.0
        np.testing.assert_allclose(state_from_json(out), np.fft.fft(basis, norm="ortho"),
                                   rtol=0, atol=1e-12)

    def test_verify_runs_no_dense_simulation(self, no_dense_simulation, capsys):
        code, out, _ = run(["verify", "--radix", "3", "--digits", "5"], capsys)
        assert code == 0
        assert out.endswith("verify PASS\n")

    def test_gen_matrix_runs_no_dense_simulation(self, no_dense_simulation, capsys):
        code, out, _ = run(["gen-matrix", "--radix", "2", "--digits", "3"], capsys)
        assert code == 0
        np.testing.assert_allclose(matrix_from_json(out), dft_matrix(8), atol=1e-15)


class TestDimCapLimit:
    @pytest.fixture
    def no_compile(self, monkeypatch):
        def reached(*args, **kwargs):
            raise ReachedSimulation

        monkeypatch.setattr(cli, "build_qft_circuit", reached)
        monkeypatch.setattr(cli, "_product_halves", reached)

    # numpy's "array is too big" and Circuit's phase-modulus refusal used to
    # surface here as exit 2 through a catch-all for ValueError
    @pytest.mark.parametrize("command,n,cap", [
        ("gen-matrix", 40, 2 ** 62),
        ("verify", 63, 2 ** 63),
    ])
    def test_cap_above_the_limit_refused(self, command, n, cap, no_compile, capsys):
        code, out, err = run([command, "--radix", "2", "--digits", str(n),
                              "--dim-cap", str(cap)], capsys)
        assert code == 2
        assert out == ""
        assert f"--dim-cap {cap} exceeds the dimension-cap limit {cli.MAX_DIM_CAP}" in err

    @pytest.mark.parametrize("command", ["gen-matrix", "verify"])
    def test_cap_at_the_limit_accepted(self, command, no_compile):
        with pytest.raises(ReachedSimulation):
            main([command, "--radix", "2", "--digits", "12",
                  "--dim-cap", str(cli.MAX_DIM_CAP)])


@pytest.mark.parametrize("name,argv", [
    ("_product_halves", ["verify", "--radix", "2", "--digits", "3"]),
    ("_product_halves", ["gen-matrix", "--radix", "2", "--digits", "3"]),
    ("_product_halves", ["apply", "--radix", "2", "--digits", "3"]),
    ("approximation_report", ["bounds", "--radix", "2", "--digits", "3"]),
])
def test_internal_value_error_propagates(name, argv, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal fault")

    # patched where the handler looks it up: bounds reads its report from
    # analysis, which it imports when it runs
    monkeypatch.setattr(analysis if name == "approximation_report" else cli, name, broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(argv)
