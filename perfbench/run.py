"""Benchmark of the qudit-qft CLI, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload verify-dense --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` runs the workload as ``qudit-qft`` CLI subprocesses, one at a
time, and reports the end-to-end metrics.  ``--trace 1`` runs the same
command in this process, first untraced and then with spans around every
layer, and reports the per-layer metrics.  ``--workload all`` runs every
workload in turn, each in a fresh process of this script, and prefixes each
metric with its workload's name.
``--smoke`` runs every workload in both modes at tiny sizes.  Every output
is checked against an oracle that does not use the package.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A JSON record with
the environment, the samples and the result of each run is written under
``.bench_results/``; a traced run also writes its spans there as JSON lines.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing
from workloads import SMOKE_WORKLOADS, WORKLOADS, CheckFailed, Workload, check_output
from workloads import column_norm_drift, oracle_distance

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
SCRATCH = ROOT / ".bench_tmp"

CLI_MAIN = "import sys; from qudit_qft.cli import main; sys.exit(main())"
CLI_SETUP = "from qudit_qft.cli import build_parser; build_parser()"
SETUP_RUNS = 11
# Samples of the CLI command per run, at the least; more while the run's
# --seconds allow.  Two keep the median of the 15 s workloads off a single
# noisy sample.
MIN_SAMPLES = 2


def declared_units() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# ---------------------------------------------------------------- children

def run_child(argv: list[str], stderr_path: Path) -> tuple[int, float, float]:
    """Run one child to completion: exit code, wall seconds, peak RSS in MiB.

    The RSS comes from the rusage ``wait4`` returns for this child alone.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    wall = perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024


def measure_setup(scratch: Path, runs: int) -> list[float]:
    """Wall time of children that import the CLI and build its parser.

    One unmeasured child first writes the bytecode caches, a cost an
    installed package pays once, not on every run.
    """
    argv = [sys.executable, "-c", CLI_SETUP]
    times = []
    for i in range(runs + 1):
        code, wall, _ = run_child(argv, scratch / "setup.err")
        if code != 0:
            raise SystemExit(f"setup child failed with exit code {code}: "
                             f"{(scratch / 'setup.err').read_text()[-2000:]}")
        if i:
            times.append(wall)
    return times


def _passes(w: Workload, seed: int, path: Path) -> bool:
    try:
        check_output(w, seed, path.read_text())
        return True
    except Exception:
        print(f"{w.name}: output check failed:\n{traceback.format_exc()}", file=sys.stderr)
        return False


def measure_cli(w: Workload, seed: int, seconds: float, scratch: Path,
                min_samples: int) -> dict:
    """Run the workload's CLI command ``min_samples`` times, then on until
    the next run would end after ``seconds``.

    Between runs the output is only hashed.  Each distinct output is checked
    against the oracle after the last run, so the checks neither delay the
    runs nor raise this process's peak RSS: a child spawned through a
    shared address space has that peak folded into its own ``ru_maxrss``.
    """
    out = scratch / "out"
    argv = [sys.executable, "-c", CLI_MAIN, *w.cli_args(seed, str(out))]
    walls, rss, digests = [], [], []
    start = perf_counter()
    while True:
        out.unlink(missing_ok=True)
        code, wall, peak = run_child(argv, scratch / "cli.err")
        walls.append(wall)
        rss.append(peak)
        digests.append(None)
        if code != 0:
            print(f"{w.name}: run {len(walls)} exited with {code}:\n"
                  f"{(scratch / 'cli.err').read_text()[-2000:]}", file=sys.stderr)
        elif not out.is_file():
            print(f"{w.name}: run {len(walls)} wrote no output", file=sys.stderr)
        else:
            with open(out, "rb") as fh:
                digests[-1] = hashlib.file_digest(fh, "blake2b").hexdigest()
            out.replace(scratch / f"out-{digests[-1]}")
        if len(walls) >= min_samples and perf_counter() - start + wall > seconds:
            break
    own_peak = _own_peak_rss_mib()
    verdicts = {d: _passes(w, seed, scratch / f"out-{d}") for d in set(digests) if d}
    failed = sum(1 for d in digests if not verdicts.get(d))
    return {"walls": walls, "rss": rss, "failed": failed, "bench_peak_rss_mb": own_peak}


def _own_peak_rss_mib() -> float:
    """This process's peak RSS, which bounds a child's reading from below."""
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM")) / 1024


# ---------------------------------------------------------------- traced

def run_in_process(argv: list[str], tracer: tracing.Tracer | None) -> tuple[float, list]:
    """Run one CLI command's handler here; returns its seconds and amplitudes."""
    from qudit_qft import cli

    args = cli.build_parser().parse_args(argv)
    captured: list = []
    with tracing.instrument(tracer, captured):
        if tracer is None:
            start = perf_counter()
            code = args.handler(args)
            seconds = perf_counter() - start
        else:
            with tracer.span("cli.handler") as record:
                code = args.handler(args)
            seconds = record["end"] - record["start"]
    if code != 0:
        raise CheckFailed(f"handler returned {code}")
    return seconds, captured


def digest(path: Path, arrays: list) -> str:
    h = hashlib.blake2b(path.read_bytes())
    for a in arrays:
        h.update(np.ascontiguousarray(a).data)
    return h.hexdigest()


def health(w: Workload, seed: int, text: str, arrays: list) -> dict:
    """Oracle distance and norm drift of the traced run's result.

    ``verify`` and ``bounds`` print no amplitudes; their figures come from
    the captured compiled matrix, or from compiling the workload's circuit
    again after the run when the CLI compiled none.
    """
    figures = check_output(w, seed, text)
    if "norm_drift" not in figures:
        matrix = next((a for a in arrays if np.ndim(a) == 2), None)
        if matrix is None:
            from qudit_qft import build_qft_circuit, circuit_to_matrix
            matrix = circuit_to_matrix(build_qft_circuit(w.radix, w.digits, w.keep_depth))
        figures["norm_drift"] = column_norm_drift(matrix)
        if "oracle_max_err" not in figures:
            figures["oracle_max_err"] = oracle_distance(w, matrix)
    return {"check." + k: v for k, v in figures.items()}


def measure_layers(w: Workload, seed: int, seconds: float, scratch: Path) -> dict:
    """Untraced then traced in-process runs until the next pair would pass
    ``seconds``.  Each pair's outputs and amplitudes must be bit-identical."""
    out = scratch / "out"
    argv = w.cli_args(seed, str(out))
    pairs, spans, failed, attempt = [], [], 0, 0
    checked, figures = None, {}
    start = perf_counter()
    while True:
        began = perf_counter()
        attempt += 1
        tracer = tracing.Tracer(f"{w.name}-seed{seed}-pair{attempt}")
        try:
            plain_s, arrays = run_in_process(argv, None)
            plain = digest(out, arrays)
            del arrays
            traced_s, arrays = run_in_process(argv, tracer)
            if digest(out, arrays) != plain:
                raise CheckFailed("traced amplitudes differ from the untraced run")
            metrics = tracing.layer_metrics(tracer.spans)
            metrics["cli.output_mb"] = out.stat().st_size / tracing.MIB
            metrics["bench.trace_overhead_frac"] = traced_s / plain_s - 1.0
            if plain != checked:
                figures = health(w, seed, out.read_text(), arrays)
                checked = plain
            del arrays
            pairs.append({**metrics, **figures})
        except Exception:
            failed += 1
            print(f"{w.name}: traced pair {attempt} failed:\n{traceback.format_exc()}",
                  file=sys.stderr)
        spans.extend(tracer.spans)
        if perf_counter() - start + (perf_counter() - began) > seconds:
            return {"pairs": pairs, "spans": spans, "failed": failed, "attempted": attempt}


# ---------------------------------------------------------------- records

def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, asked from the library."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
        for path in paths:
            lib = ctypes.CDLL(path)
            for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
                if hasattr(lib, symbol):
                    return int(getattr(lib, symbol)())
    except OSError:
        pass
    return None


def _last_level_cache_bytes() -> int | None:
    best = None
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            level = int(Path(index, "level").read_text())
            size = Path(index, "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 2 ** 10, "M": 2 ** 20, "G": 2 ** 30}.get(size[-1:], 1)
        value = int(size.rstrip("KMG")) * scale
        if best is None or level > best[0]:
            best = (level, value)
    return best and best[1]


def environment(w: Workload) -> dict:
    from qudit_qft import kernels

    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "blas_threads": min(_blas_threads() or nproc, nproc),
        "python": platform.python_version(),
        "numpy": np.__version__,
        # Only the numpy path remains once the backend switch is gone.
        "kernel_backend": getattr(kernels, "active_backend", lambda: "numpy")(),
        "last_level_cache_bytes": _last_level_cache_bytes(),
        "working_set_bytes": w.working_set_bytes,
    }


def write_record(w: Workload, seed: int, seconds: float, trace: int, env: dict,
                 result: dict, samples: dict, spans: list) -> None:
    RESULTS.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{seed}-trace{trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    record = {"workload": w.name, "seed": seed, "seconds": seconds,
              "trace": trace, "environment": env, "samples": samples, "result": result}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans:
        with open(RESULTS / f"{stem}.spans.jsonl", "w") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in spans)


# ---------------------------------------------------------------- entry point

def run_workload(w: Workload, seed: int, seconds: float, trace: int, scratch: Path,
                 setup_runs: int, min_samples: int, units: dict) -> tuple[dict, dict, list]:
    """Measure one workload in one mode: the result line, samples and spans."""
    if trace:
        measured = measure_layers(w, seed, seconds, scratch)
        pairs = measured["pairs"]
        values = {k: statistics.median(p[k] for p in pairs) for k in pairs[0]} if pairs else {}
        attempted, samples = measured["attempted"], {"pairs": pairs}
    else:
        setup = measure_setup(scratch, setup_runs)
        measured = measure_cli(w, seed, seconds, scratch, min_samples)
        attempted = len(measured["walls"])
        values = {
            "wall_s": statistics.median(measured["walls"]),
            "peak_rss_mb": statistics.median(measured["rss"]),
            "setup_s": statistics.median(setup),
            "success_rate": 1.0 - measured["failed"] / attempted,
        }
        samples = {"wall_s": measured["walls"], "peak_rss_mb": measured["rss"], "setup_s": setup,
                   "bench_peak_rss_mb": measured["bench_peak_rss_mb"]}
    failed = measured["failed"]
    if failed == 0 and set(values) != set(units):
        raise SystemExit(f"metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items() if k in units},
    }
    return result, samples, measured.get("spans", [])


def run_each(runs: list[tuple[str, int]], args) -> dict:
    """Run each (workload, trace) pair in a fresh process of this script, so
    no run inherits the memory or patches another left behind."""
    results = {}
    for name, trace in runs:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd + (["--smoke"] if args.smoke else []),
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        label = name + (".traced" if args.smoke and trace else "")
        try:
            results[label] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{label}: no result (exit code {proc.returncode})", file=sys.stderr)
            results[label] = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    for label, result in results.items():
        for metric, m in result["metrics"].items():
            print(f"{label:24s} {metric:28s} {m['value']:.6g} {m['unit']}")
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{label}.{metric}": m for label, r in results.items()
                    for metric, m in r["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; with --workload all, both trace modes")
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "qudit_qft" / "cli.py").is_file():
        print(f"error: no qudit_qft sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        traces = (0, 1) if args.smoke else (args.trace,)
        final = run_each([(name, t) for name in WORKLOADS for t in traces], args)
        print(json.dumps(final))
        return 0 if final["correct"] else 1

    sys.path.insert(0, str(SRC))
    import qudit_qft

    if not Path(qudit_qft.__file__).resolve().is_relative_to(SRC):
        print(f"error: qudit_qft imported from {qudit_qft.__file__}, not {SRC}", file=sys.stderr)
        return 2
    end_to_end, per_layer = declared_units()
    if args.smoke:
        w, seconds, setup_runs, min_samples = SMOKE_WORKLOADS[args.workload], 0.0, 1, 1
    else:
        w, seconds, setup_runs, min_samples = (WORKLOADS[args.workload], args.seconds,
                                               SETUP_RUNS, MIN_SAMPLES)
    env = environment(w)
    scratch = SCRATCH / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        result, samples, spans = run_workload(w, args.seed, seconds, args.trace, scratch,
                                              setup_runs, min_samples,
                                              per_layer if args.trace else end_to_end)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if not args.smoke:
        write_record(w, args.seed, seconds, args.trace, env, result, samples, spans)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
