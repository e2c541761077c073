"""Radix-parametric quantum Fourier transform toolkit for qudit registers.

Builds gate-level QFT circuits over base-q digits (q >= 2), simulates them
on dense state vectors, prunes small controlled phase shifts to produce
approximate transforms, and measures the resulting phase errors against
closed-form bounds.

OpenBLAS runs on one thread unless the caller set ``OPENBLAS_NUM_THREADS``
before this import: the package's own workers are its parallelism (see the
README's section on parallelism).
"""

import os

# OpenBLAS reads this once, as numpy loads it, so it is set before the
# first numpy import; a caller's value is kept.  Its worker threads would
# spin on the CPUs that verify's oracle and residual threads run on.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .numerics import (
    DEFAULT_DIM_CAP,
    StateVector,
    max_entry_distance,
)
from .gates import (
    chrestenson_gate,
    controlled_phase_matrix,
    walsh_hadamard_gate,
)
from .circuit import (
    CHRESTENSON,
    CONTROLLED_PHASE,
    Circuit,
    GateOp,
    apply_circuit,
    build_qft_circuit,
    build_walsh_hadamard_transform_circuit,
    chrestenson_transform_matrix,
    circuit_to_matrix,
    dft_matrix,
    digit_reversal_perm,
    qft_slots,
)
from .analysis import (
    BoundRow,
    CapacityMetrics,
    approximation_report,
    bound_coppersmith,
    bound_new,
    capacity_metrics,
    phase_error_factor,
    phase_error_series,
    phase_error_trig,
)

__all__ = [
    "DEFAULT_DIM_CAP",
    "StateVector",
    "max_entry_distance",
    "chrestenson_gate",
    "controlled_phase_matrix",
    "walsh_hadamard_gate",
    "CHRESTENSON",
    "CONTROLLED_PHASE",
    "Circuit",
    "GateOp",
    "apply_circuit",
    "build_qft_circuit",
    "build_walsh_hadamard_transform_circuit",
    "chrestenson_transform_matrix",
    "circuit_to_matrix",
    "dft_matrix",
    "digit_reversal_perm",
    "qft_slots",
    "BoundRow",
    "CapacityMetrics",
    "approximation_report",
    "bound_coppersmith",
    "bound_new",
    "capacity_metrics",
    "phase_error_factor",
    "phase_error_series",
    "phase_error_trig",
]

__version__ = "0.1.0"
