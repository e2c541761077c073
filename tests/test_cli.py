"""Tests for the command-line front end and its file formats."""

import errno
import json
import math
import os
import stat

import numpy as np
import pytest

from qudit_qft import (
    analysis,
    circuit,
    cli,
    chrestenson_gate,
    dft_matrix,
    digit_reversal_perm,
    kernels,
    kron,
)
from qudit_qft.cli import BOUNDS_HEADER, COMPARE_HEADER, main, parse_state, render_state
from qudit_qft.numerics import StateVector


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        expected = kron(gate, gate)[digit_reversal_perm(3, 2).mapping, :]
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

    @pytest.mark.parametrize("row", [0, 2 ** 9 - 1])
    def test_nudge_in_the_first_or_last_row_block_fails(self, row, monkeypatch, capsys):
        # 2**9 rows span two row blocks of both checks
        assert 2 ** 9 > cli.BLOCK_ROWS
        compile_matrix = cli.circuit_to_matrix

        def nudged(circuit, dim_cap):
            matrix = compile_matrix(circuit, dim_cap=dim_cap)
            matrix[row, 5] *= 1 + 1e-6
            return matrix

        monkeypatch.setattr(cli, "circuit_to_matrix", nudged)
        code, out, err = run(["verify", "--radix", "2", "--digits", "9"], capsys)
        assert code == 1
        assert "oracle_distance" in out and "unitarity_residual" in out
        assert all(line.endswith("FAIL") for line in out.splitlines()[1:])
        assert "verification failed: unitarity_residual" in err

    @pytest.mark.parametrize("row", [0, 2 ** 9 - 1])
    def test_nan_in_the_first_or_last_row_block_fails(self, row, monkeypatch, capsys):
        compile_matrix = cli.circuit_to_matrix

        def poisoned(circuit, dim_cap):
            matrix = compile_matrix(circuit, dim_cap=dim_cap)
            matrix[row, 5] = np.nan
            return matrix

        monkeypatch.setattr(cli, "circuit_to_matrix", poisoned)
        code, out, err = run(["verify", "--radix", "2", "--digits", "9"], capsys)
        assert code == 1
        assert "oracle_distance nan" in out and "unitarity_residual nan" in out
        assert all(line.endswith("FAIL") for line in out.splitlines()[1:])

    def test_impossible_tolerance_fails(self, capsys):
        code, out, err = run(
            ["verify", "--radix", "2", "--digits", "3", "--tolerance", "1e-30"],
            capsys,
        )
        assert code == 1
        assert "verify FAIL" in out
        assert "verification failed" in err


def test_render_state_matches_per_amplitude_format():
    # the reference formats each amplitude on its own; the state spans
    # several rendering chunks and holds signed zeros and a subnormal
    rng = np.random.default_rng(9001)
    amps = rng.normal(size=3 ** 8) + 1j * rng.normal(size=3 ** 8)
    amps[1] = complex(-0.0, -0.0)
    amps[-1] = complex(1e-300, -5e-310)
    state = StateVector(3, 8, amps / np.linalg.norm(amps))
    pairs = ",\n".join(
        f"    [{format(float(a.real), '.17g')}, {format(float(a.imag), '.17g')}]"
        for a in state.amplitudes
    )
    expected = (
        f'{{\n  "radix": 3,\n  "digits": 8,\n  "amplitudes": [\n{pairs}\n  ]\n}}\n'
    )
    assert "".join(render_state(state)) == expected


@pytest.mark.parametrize("n", [12, 13])
def test_render_state_chunks_end_on_a_chunk_boundary(n):
    # 2**12 and 2**13 amplitudes fill one and two rendering chunks exactly
    state = StateVector(2, n, np.full(2 ** n, 2 ** (-n / 2)))
    chunks = list(render_state(state))
    assert len(chunks) == 2 ** n // 4096
    assert chunks[-1].endswith("\n  ]\n}\n")
    doc = json.loads("".join(chunks))
    assert len(doc["amplitudes"]) == 2 ** n


class TestApply:
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
        assert "".join(render_state(reparsed)) == text

    def test_file_input(self, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text("".join(render_state(StateVector.basis(2, 2, 3))))
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
        path.write_text("".join(render_state(StateVector.basis(2, 3, 0))))
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
        path.write_text("".join(render_state(StateVector.basis(2, 1, 0))))
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
        monkeypatch.setattr(cli, "approximation_report", reached)

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
        real_open = open
        partial = []

        class HalfWriter:
            def __init__(self, fh):
                self.fh = fh

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                self.fh.flush()
                partial.append(os.path.getsize(self.fh.name))
                raise OSError(errno.ENOSPC, "No space left on device")

            def writelines(self, chunks):
                for chunk in chunks:
                    self.write(chunk)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        monkeypatch.setattr(cli, "open", lambda *a, **k: HalfWriter(real_open(*a, **k)),
                            raising=False)
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


@pytest.mark.parametrize("amplitudes,message", [
    # an int too large for a float is not a finite number
    pytest.param("[[1" + "0" * 400 + ", 0], [0, 0]]", "malformed state file",
                 id="int-beyond-float"),
    pytest.param("[[1.0, 0.0], [0.0, 0.0]]", "norm tolerance must be a number",
                 id="nan-tolerance-unit-state"),
    pytest.param("[[1.0, 0.0], [1.0, 0.0]]", "norm tolerance must be a number",
                 id="nan-tolerance-unnormalized"),
])
def test_state_file_edge_cases_are_usage_errors(amplitudes, message, tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(f'{{"radix": 2, "digits": 1, "amplitudes": {amplitudes}}}')
    tolerance = ["--tolerance", "nan"] if "tolerance" in message else []
    code, out, err = run(
        ["apply", "--radix", "2", "--digits", "1", "--in", str(path), *tolerance], capsys
    )
    assert code == 2
    assert out == ""
    assert message in err


@pytest.fixture
def no_dense_simulation(monkeypatch):
    """Make the dense simulator, both kernels and the state-input path raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("the dense simulator ran")

    monkeypatch.setattr(circuit, "_run_batch", refuse)
    monkeypatch.setattr(kernels, "apply_single_qudit", refuse)
    monkeypatch.setattr(kernels, "apply_diagonal", refuse)
    monkeypatch.setattr(cli, "apply_circuit", refuse)


class TestBasisInputs:
    @pytest.mark.parametrize("q,n,k,depth", [
        (2, 6, 45, None), (3, 4, 17, 2), (5, 2, 24, None), (4, 3, 0, 1), (2, 1, 1, None),
    ])
    def test_basis_equals_the_same_state_from_a_file(self, q, n, k, depth, tmp_path,
                                                    capsys):
        path = tmp_path / "basis.json"
        path.write_text("".join(render_state(StateVector.basis(q, n, k))))
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
        monkeypatch.setattr(cli, "circuit_to_matrix", reached)

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
    ("circuit_to_matrix", ["verify", "--radix", "2", "--digits", "3"]),
    ("circuit_to_matrix", ["gen-matrix", "--radix", "2", "--digits", "3"]),
    ("_basis_columns", ["apply", "--radix", "2", "--digits", "3"]),
    ("approximation_report", ["bounds", "--radix", "2", "--digits", "3"]),
])
def test_internal_value_error_propagates(name, argv, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli, name, broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(argv)
