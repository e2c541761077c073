"""Span recording around the package's layers, for the traced run.

Wrappers are installed where the caller looks each name up and removed on
exit: ``cli`` and ``analysis`` bind their imports with ``from .x import y``,
so their module attributes are patched; ``circuit`` calls the kernels
through the ``kernels`` module, so those are patched there.  A name the
package no longer has is skipped.  Each call records one span with a name,
start, end, parent and run id, plus stride, batch, dim and computed bytes
for the kernels.  Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from time import perf_counter

import numpy as np

MIB = 2 ** 20


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans), "name": name, "run": self.run_id,
                  "parent": self._open[-1] if self._open else None, **attrs}
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = perf_counter()
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._open.pop()


def _kernel_attrs(amps, *rest):
    batch, dim = amps.shape
    stride = rest[2] if len(rest) > 2 else None  # apply_single_qudit(src, dst, q, stride, gate)
    moved = 2 * amps.nbytes + sum(a.nbytes for a in rest if isinstance(a, np.ndarray) and a.ndim == 1)
    return {"stride": stride, "batch": batch, "dim": dim, "bytes": moved}


# (module, attribute, span name).  Every ``render_*`` function of the CLI,
# and its writer ``_emit``, counts as rendering.
_CALLS = [
    ("qudit_qft.cli", "build_qft_circuit", "circuit.build"),
    ("qudit_qft.cli", "circuit_to_matrix", "circuit.simulate"),
    ("qudit_qft.cli", "apply_circuit", "circuit.simulate"),
    ("qudit_qft.cli", "dft_matrix", "circuit.dft_matrix"),
    ("qudit_qft.cli", "matmul", "numerics.matmul"),
    ("qudit_qft.cli", "max_entry_distance", "numerics.distance"),
    ("qudit_qft.cli", "approximation_report", "analysis.report"),
    ("qudit_qft.cli", "_emit", "cli.render"),
    ("qudit_qft.analysis", "measure_bracket_phase_error", "analysis.measure"),
    ("qudit_qft.analysis", "build_qft_circuit", "circuit.build"),
    ("qudit_qft.circuit", "digit_reversal_perm", "circuit.digit_reversal"),
    ("qudit_qft.kernels", "apply_single_qudit", "kernels.single_qudit"),
    ("qudit_qft.kernels", "apply_diagonal", "kernels.diagonal"),
]

# Public functions whose result holds the amplitudes the CLI outputs.
_SIMULATORS = [("qudit_qft.cli", "circuit_to_matrix"), ("qudit_qft.cli", "apply_circuit")]


def _calls():
    cli = importlib.import_module("qudit_qft.cli")
    renderers = [("qudit_qft.cli", name, "cli.render")
                 for name in sorted(vars(cli)) if name.startswith("render_")]
    return _CALLS + renderers


def _traced(fn, tracer, name, captured):
    kernel = name.startswith("kernels.")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name, **(_kernel_attrs(*args) if kernel else {})) as record:
            result = fn(*args, **kwargs)
        if name == "circuit.build":
            record["gates"] = getattr(result, "gate_count", 0)
        if name == "circuit.simulate":
            captured.append(getattr(result, "amplitudes", result))
        return result
    return wrapper


def _capturing(fn, captured):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        captured.append(getattr(result, "amplitudes", result))
        return result
    return wrapper


@contextmanager
def instrument(tracer: Tracer | None, captured: list):
    """Patch the layer boundaries for one run and restore them afterwards.

    With a tracer every boundary records spans; without one only the
    simulators are wrapped, to capture their amplitudes for comparison.
    """
    if tracer is None:
        targets = [(module, attr, lambda fn: _capturing(fn, captured))
                   for module, attr in _SIMULATORS]
    else:
        targets = [(module, attr, lambda fn, name=name: _traced(fn, tracer, name, captured))
                   for module, attr, name in _calls()]
    patched = []
    try:
        for module_name, attr, wrap in targets:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                original = getattr(module, attr)
                patched.append((module, attr, original))
                setattr(module, attr, wrap(original))
        yield
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


# Each span's self time is attributed to exactly one of these metrics, so
# together they account for the whole handler span.
_SELF_TIME_METRICS = {
    "cli.handler": "cli.self_s",
    "cli.render": "cli.render_s",
    "analysis": "analysis.self_s",
    "circuit": "circuit.self_s",
    "kernels.single_qudit": "kernels.single_qudit_s",
    "kernels.diagonal": "kernels.diagonal_s",
    "numerics.matmul": "numerics.matmul_s",
    "numerics.distance": "numerics.distance_s",
}


def _self_time_metric(name: str) -> str:
    return _SELF_TIME_METRICS.get(name) or _SELF_TIME_METRICS[name.split(".")[0]]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer figures from one traced run whose root span is cli.handler."""
    duration = [s["end"] - s["start"] for s in spans]
    covered = [0.0] * len(spans)
    for s, d in zip(spans, duration):
        if s["parent"] is not None:
            covered[s["parent"]] += d
    out = dict.fromkeys(_SELF_TIME_METRICS.values(), 0.0)
    for s, d, c in zip(spans, duration, covered):
        out[_self_time_metric(s["name"])] += d - c

    def total(name):
        return sum(d for s, d in zip(spans, duration) if s["name"] == name)

    def count(name):
        return sum(1 for s in spans if s["name"] == name)

    handler = total("cli.handler")
    accounted = sum(out.values())
    if count("cli.handler") != 1 or abs(accounted - handler) > 1e-9 * max(1.0, handler):
        raise RuntimeError(f"spans account for {accounted!r} s of a {handler!r} s handler")
    out["cli.handler_s"] = handler
    out["analysis.measure_calls"] = count("analysis.measure")
    out["circuit.build_s"] = total("circuit.build")
    out["circuit.gates"] = sum(s.get("gates", 0) for s in spans if s["name"] == "circuit.build")
    out["circuit.simulate_s"] = total("circuit.simulate")
    out["circuit.digit_reversal_s"] = total("circuit.digit_reversal")
    out["circuit.dft_matrix_s"] = total("circuit.dft_matrix")
    kernel_spans = [s for s in spans if s["name"].startswith("kernels.")]
    out["circuit.buffer_mb"] = max(
        (2 * s["batch"] * s["dim"] * 16 / MIB for s in kernel_spans), default=0.0)
    for kind in ("single_qudit", "diagonal"):
        mine = [s for s in kernel_spans if s["name"] == f"kernels.{kind}"]
        seconds = out[f"kernels.{kind}_s"]
        gigabytes = sum(s["bytes"] for s in mine) / 1e9
        out[f"kernels.{kind}_calls"] = len(mine)
        out[f"kernels.{kind}_gb"] = gigabytes
        out[f"kernels.{kind}_gbps"] = gigabytes / seconds if seconds > 0 else 0.0
    return out
