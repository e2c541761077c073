"""End-to-end acceptance checks.

One test per shipped guarantee, each at its contract tolerance; run with
``pytest -v tests/test_acceptance.py`` for a one-line pass/fail verdict
per guarantee.
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from qudit_qft import (
    CHRESTENSON,
    approximation_report,
    build_qft_circuit,
    capacity_metrics,
    chrestenson_gate,
    chrestenson_transform_matrix,
    circuit_to_matrix,
    dft_matrix,
    max_entry_distance,
    phase_error_factor,
    phase_error_series,
    phase_error_trig,
)

# Every radix/width pair whose full transform matrix fits the working cap.
FULL_MATRIX_GRID = [
    (q, n)
    for q in (2, 3, 4, 5)
    for n in range(1, 13)
    if q ** n <= 4096
]

# Grid for the pruning measurements: every depth of every mid-sized register.
PRUNING_GRID = [
    (q, n, keep_depth)
    for q in (2, 3)
    for n in (4, 5, 6)
    for keep_depth in range(1, n + 1)
]


def test_qft_oracle_equivalence():
    """Compiled exact circuits match the DFT over Z_{q**n} to 1e-10."""
    for q, n in FULL_MATRIX_GRID:
        matrix = circuit_to_matrix(build_qft_circuit(q, n))
        distance = max_entry_distance(matrix, dft_matrix(q ** n))
        assert distance <= 1e-10, f"q={q} n={n}: distance {distance}"


def test_gate_counts():
    """Exact circuits hold n*(n+1)/2 gates, n of them Chrestenson gates."""
    for q, n in FULL_MATRIX_GRID:
        circuit = build_qft_circuit(q, n)
        assert circuit.gate_count == n * (n + 1) // 2, f"q={q} n={n}"
        chrestenson_count = sum(op.kind == CHRESTENSON for op in circuit.ops)
        assert chrestenson_count == n, f"q={q} n={n}"


def test_chrestenson_gate_algebra():
    """Gate unitarity, the printed base-3 matrix, and the recursive blocks."""
    for q in range(2, 8):
        gate = chrestenson_gate(q)
        residual = max_entry_distance(gate @ gate.conj().T, np.eye(q))
        assert residual <= 1e-12, f"q={q}: residual {residual}"

    # base-3 entries against the three-decimal root -0.5 - 0.866i
    a = complex(-0.5, -0.866)
    printed = np.array([[1, 1, 1], [1, a, a * a], [1, a * a, a]]) / np.sqrt(3)
    assert np.abs(chrestenson_gate(3) - printed).max() < 5e-4

    # recursive block structure of the multi-digit transform
    root = np.exp(-2j * np.pi / 3)
    for n in (2, 3):
        sub = chrestenson_transform_matrix(3, n - 1)
        blocks = np.block(
            [
                [sub, sub, sub],
                [sub, root * sub, root**2 * sub],
                [sub, root**2 * sub, root * sub],
            ]
        ) / np.sqrt(3)
        gap = max_entry_distance(chrestenson_transform_matrix(3, n), blocks)
        assert gap <= 1e-12, f"n={n}: gap {gap}"


def test_pruning_bounds_and_witness():
    """Measured bracket errors obey both bounds and attain the closed form.

    The tighter bound dominates the measurement in the wrap-safe regime,
    and digits of q-1 in every dropped position push the measured phase to
    exactly 2*pi*(q**m - 1)/q**L.
    """
    for q, n, keep_depth in PRUNING_GRID:
        for row in approximation_report(q, n, keep_depth):
            label = f"q={q} n={n} keep_depth={keep_depth} target={row.target_digit}"
            witness = (
                2 * math.pi * (q ** row.dropped_count - 1) / q ** row.fraction_len
            )
            assert abs(row.measured_t1 - witness) <= 1e-12, label
            if row.bound_new < math.pi:
                assert row.measured_t1 <= row.bound_new + 1e-12, label
                assert row.bound_new <= row.bound_coppersmith + 1e-12, label


def test_most_significant_bracket_exact():
    """Pruning never perturbs the shortest bracket."""
    for q, n, keep_depth in PRUNING_GRID:
        assert approximation_report(q, n, keep_depth)[0].measured_t1 == 0.0, (
            f"q={q} n={n} keep_depth={keep_depth}"
        )


def test_radix_dominance():
    """At equal effective depth the base-3 error limit beats the base-2 one."""
    for gap in range(1, 9):
        assert 2 * math.pi / 3 ** gap < 2 * math.pi / 2 ** gap


def test_series_and_trig_forms():
    """The 20-term series meets its remainder bound; the trig form is exact.

    With theta = 2*pi*(q-1)/q**l the argument is -i*theta, so the partial
    sum of 20 Maclaurin terms lies within theta**20/20! of the exponential
    (plus 1e-15 for rounding). At l = 1 that bound is the exact limit of
    any 20-term sum (about 0.97-0.99 of it is reached); at l >= 2 it asks for
    rounding-level agreement. The trig form matches to 1e-15 everywhere.
    """
    slow = []
    for q in range(2, 8):
        for l in range(1, 13):
            assert (
                abs(phase_error_trig(q, l) - phase_error_factor(q, l)) <= 1e-15
            ), f"q={q} l={l}"
            theta = 2 * math.pi * (q - 1) / q ** l
            bound = theta ** 20 / math.factorial(20) + 1e-15
            gap = abs(phase_error_series(q, l, 20) - phase_error_factor(q, l))
            if gap > bound:
                slow.append((q, l, gap, bound))
    assert not slow, (
        "20-term partial sums beyond the remainder bound theta**20/20! at: "
        + ", ".join(
            f"q={q} l={l} gap={gap:.3e} bound={bound:.3e}"
            for q, l, gap, bound in slow
        )
    )


def test_scaling_metrics():
    """State-space ratio (q/2)**n and digit savings log2(q), exactly."""
    for q in (2, 3, 4):
        for n in range(1, 11):
            metrics = capacity_metrics(q, n)
            assert metrics.state_space_ratio == (q / 2) ** n, f"q={q} n={n}"
            assert metrics.qudit_savings_factor == math.log2(q), f"q={q} n={n}"


def test_readme_library_example_runs(capsys):
    """The README's Library example runs as printed."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"^## Library\n\n```python\n(.*?)^```$", readme, re.M | re.S)
    assert block, "README.md has no python block under '## Library'"
    exec(compile(block.group(1), "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 4
