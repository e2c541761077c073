"""Radix-parametric quantum Fourier transform toolkit for qudit registers.

Builds gate-level QFT circuits over base-q digits (q >= 2), simulates them
on dense state vectors, prunes small controlled phase shifts to produce
approximate transforms, and measures the resulting phase errors against
closed-form bounds.

OpenBLAS runs on one thread unless the caller set ``OPENBLAS_NUM_THREADS``
before this import: the package's own workers are its parallelism (see the
README's section on parallelism).

Importing the package loads none of its modules: each name of ``__all__``
loads the module that defines it on first use (PEP 562), so a CLI command
compiles only the modules it runs.
"""

import os

# OpenBLAS reads this once, as numpy loads it, so it is set before the
# first numpy import; a caller's value is kept.  Its worker threads would
# spin on the CPUs that verify's oracle and residual threads run on.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# The module that defines each exported name, which ``__all__`` lists.
_EXPORTS = {
    "numerics": ("DEFAULT_DIM_CAP", "max_entry_distance"),
    "gates": ("chrestenson_gate", "controlled_phase_matrix", "walsh_hadamard_gate"),
    "circuit": ("CHRESTENSON", "CONTROLLED_PHASE", "Circuit", "GateOp",
                "build_qft_circuit", "build_walsh_hadamard_transform_circuit",
                "qft_slots"),
    "dense": ("StateVector", "apply_circuit", "chrestenson_transform_matrix",
              "circuit_to_matrix", "dft_matrix", "digit_reversal_perm"),
    "analysis": ("BoundRow", "CapacityMetrics", "approximation_report",
                 "bound_coppersmith", "bound_new", "capacity_metrics",
                 "phase_error_factor", "phase_error_series", "phase_error_trig"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    """An exported name, from its module, imported on first use and kept
    here so later lookups skip this function."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
