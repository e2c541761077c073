"""Kernel-level tests: the two numpy kernels, and the fused phase runs they
apply, against dense-matrix oracles."""

from itertools import groupby

import numpy as np
import pytest

from qudit_qft import (
    CONTROLLED_PHASE,
    build_qft_circuit,
    controlled_phase_matrix,
    kernels,
)
from qudit_qft.circuit import GateOp
from qudit_qft.dense import _fused_phases

RNG = np.random.default_rng(987123)


def random_batch(batch: int, dim: int) -> np.ndarray:
    raw = RNG.normal(size=(batch, dim)) + 1j * RNG.normal(size=(batch, dim))
    return np.ascontiguousarray(raw)


def embedded_single(gate: np.ndarray, q: int, n: int, digit: int) -> np.ndarray:
    full = np.eye(q ** (n - 1 - digit), dtype=complex)
    full = np.kron(full, gate)
    return np.kron(full, np.eye(q ** digit, dtype=complex))


# Blocks of q*stride amplitudes up to kernels._GEMM_MAX_BLOCK (64) take the
# Kronecker GEMM, larger ones the stacked matmul; the last six cases sit on
# both sides of that switch: q*stride = 64, 128, 81, 64, 256 and 125.
SINGLE_QUDIT_CASES = [(2, 1, 0), (2, 3, 0), (2, 3, 2), (3, 2, 1), (5, 2, 0),
                      (2, 8, 5), (2, 8, 6), (3, 5, 3), (4, 4, 2), (4, 4, 3), (5, 3, 2)]


def test_cases_cover_both_kernel_shapes():
    gemm = {q * q ** digit <= kernels._GEMM_MAX_BLOCK for q, _, digit in SINGLE_QUDIT_CASES}
    assert gemm == {True, False}


def assert_single_qudit_matches_kron_embedding(q, n, digit, batch):
    dim = q ** n
    gate = RNG.normal(size=(q, q)) + 1j * RNG.normal(size=(q, q))
    src = random_batch(batch, dim)
    dst = np.empty_like(src)
    kernels.apply_single_qudit(src, dst, q, q ** digit, gate)
    expected = src @ embedded_single(gate, q, n, digit).T
    np.testing.assert_allclose(dst, expected, atol=1e-12)


@pytest.mark.parametrize("q,n,digit", SINGLE_QUDIT_CASES)
def test_single_qudit_matches_kron_embedding(q, n, digit):
    assert_single_qudit_matches_kron_embedding(q, n, digit, batch=4)


@pytest.mark.parametrize("q,n,digit", SINGLE_QUDIT_CASES)
def test_single_qudit_on_one_row_matches_kron_embedding(q, n, digit):
    assert_single_qudit_matches_kron_embedding(q, n, digit, batch=1)


@pytest.mark.parametrize("q,s", [(2, 2), (3, 2), (3, 3), (5, 2)])
@pytest.mark.parametrize("control,target", [(0, 1), (1, 0)])
def test_controlled_phase_vector_matches_dense_gate(q, s, control, target):
    dim = q * q
    amps = random_batch(3, dim)
    expected = amps @ controlled_phase_matrix(q, s).T
    phases = _fused_phases(q, 2, (GateOp.controlled_phase(control, target, s),))
    kernels.apply_diagonal(amps, phases)
    # the gate is diagonal and symmetric in control/target, so both digit
    # assignments realize the same matrix
    np.testing.assert_allclose(amps, expected, atol=1e-12)


def dense_phase_diagonal(q: int, n: int, op: GateOp) -> np.ndarray:
    """Diagonal of ``controlled_phase_matrix`` acting on the op's two digits
    of an n-digit register."""
    x = np.arange(q ** n)
    control = (x // q ** op.control) % q
    target = (x // q ** op.target) % q
    return np.diag(controlled_phase_matrix(q, op.denom_exp))[control * q + target]


def assert_fused_matches_dense(q: int, n: int, run: tuple) -> None:
    expected = np.ones(q ** n, dtype=complex)
    for op in run:
        expected *= dense_phase_diagonal(q, n, op)
    np.testing.assert_allclose(_fused_phases(q, n, run), expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "q,n,keep_depth",
    [(2, 6, None), (2, 6, 3), (3, 4, None), (3, 4, 2), (5, 3, None), (5, 3, 2)],
)
def test_fused_phases_match_dense_product_on_qft_runs(q, n, keep_depth):
    circuit = build_qft_circuit(q, n, keep_depth)
    runs = [tuple(group) for kind, group in groupby(circuit.ops, key=lambda op: op.kind)
            if kind == CONTROLLED_PHASE]
    assert runs
    for run in runs:
        assert_fused_matches_dense(q, n, run)


@pytest.mark.parametrize(
    "q,n,run",
    [
        # modulus 3**4 spans every digit: one table of 81 phases
        (3, 4, (GateOp.controlled_phase(0, 2, 3), GateOp.controlled_phase(1, 3, 2),
                GateOp.controlled_phase(0, 3, 4), GateOp.controlled_phase(2, 1, 2))),
        # modulus 2**2 is far smaller than the 2**5 digit patterns it is read for
        (2, 5, (GateOp.controlled_phase(0, 1, 2), GateOp.controlled_phase(2, 3, 2),
                GateOp.controlled_phase(4, 3, 2))),
        # denom_exp above the width: the modulus outgrows the register
        (3, 3, (GateOp.controlled_phase(0, 2, 5), GateOp.controlled_phase(2, 1, 2))),
    ],
)
def test_fused_phases_match_dense_product_on_mixed_target_runs(q, n, run):
    assert len({op.target for op in run}) >= 2
    assert_fused_matches_dense(q, n, run)
