"""Tests of the benchmark itself: smoke mode, the oracles and the checks."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from workloads import (
    SMOKE_WORKLOADS,
    CheckFailed,
    check_output,
    dft_columns,
    pruned_qft_matrix,
)

RUN = Path(__file__).with_name("run.py")


def test_smoke_mode_runs_every_workload_and_check():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())
    for name in SMOKE_WORKLOADS:
        for metric in spec["end_to_end"]:
            assert f"{name}.{metric['name']}" in result["metrics"]
        for metric in spec["per_layer"]:
            assert f"{name}.traced.{metric['name']}" in result["metrics"]


@pytest.mark.parametrize("q,n", [(2, 4), (3, 3), (5, 2)])
def test_closed_form_without_pruning_is_the_dft(q, n):
    dim = q ** n
    assert np.abs(pruned_qft_matrix(q, n, None) - dft_columns(dim, slice(0, dim))).max() < 1e-12


def test_closed_form_pruning_drops_only_deep_phases():
    # q=2, n=3, keep depth 2: only the phase with denominator 2**3 goes,
    # from the bracket of digit 2 (output position 0), with control digit 0.
    exact, pruned = pruned_qft_matrix(2, 3, None), pruned_qft_matrix(2, 3, 2)
    ratio = pruned / exact
    x = np.arange(8)
    expected = np.exp(2j * np.pi * (x % 2)[None, :] * (np.arange(8) % 2)[:, None] / 8)
    assert np.abs(ratio - expected).max() < 1e-12


def _output(w, seed, tmp_path):
    out = tmp_path / "out"
    src = Path(__file__).resolve().parent.parent / "src"
    subprocess.run([sys.executable, "-m", "qudit_qft.cli", *w.cli_args(seed, str(out))],
                   check=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    return out.read_text()


@pytest.mark.parametrize("name", list(SMOKE_WORKLOADS))
def test_checks_accept_the_cli_output_and_reject_a_changed_digit(name, tmp_path):
    w = SMOKE_WORKLOADS[name]
    text = _output(w, 4, tmp_path)
    check_output(w, 4, text)
    # Change one printed digit of a value the oracle fixes.
    marker = {"verify": "PASS", "apply": "0.1", "bounds": "0.4", "gen-matrix": "0.1"}[w.command]
    at = text.rindex(marker)
    broken = text[:at] + {"PASS": "FAIL"}.get(marker, "0.3") + text[at + len(marker):]
    with pytest.raises(CheckFailed):
        check_output(w, 4, broken)
