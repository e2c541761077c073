"""Throughput comparison of the numba and numpy kernel paths.

Times the two hot kernels (single-qudit gate application and diagonal
phase multiplication) on full-size batches, plus an end-to-end exact-QFT
compilation, under each available backend.  Also reports the largest
numerical deviation between the paths.

Run:  python benchmarks/bench_backends.py [--repeat N]
"""

import argparse
import time

import numpy as np

from qudit_qft import build_qft_circuit, chrestenson_gate, circuit_to_matrix, kernels
from qudit_qft.circuit import GateOp, _fused_phases

CASES = [(2, 10), (3, 6), (4, 5)]


def timed(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_single_qudit(q: int, n: int, backend: str, repeat: int):
    dim = q ** n
    rng = np.random.default_rng(7)
    src = np.ascontiguousarray(
        rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    )
    dst = np.empty_like(src)
    gate = chrestenson_gate(q)
    stride = q ** (n // 2)
    with kernels.use_backend(backend):
        kernels.apply_single_qudit(src, dst, q, stride, gate)  # warm up jit
        seconds = timed(
            lambda: kernels.apply_single_qudit(src, dst, q, stride, gate), repeat
        )
    return seconds, dst.copy()


def bench_diagonal(q: int, n: int, backend: str, repeat: int):
    dim = q ** n
    rng = np.random.default_rng(11)
    base = np.ascontiguousarray(
        rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    )
    phases = _fused_phases(q, n, (GateOp.controlled_phase(0, n - 1, 2),))
    with kernels.use_backend(backend):
        amps = base.copy()
        kernels.apply_diagonal(amps, phases)  # warm up jit
        amps = base.copy()
        seconds = timed(lambda: kernels.apply_diagonal(amps, phases), repeat)
    result = base.copy()
    with kernels.use_backend(backend):
        kernels.apply_diagonal(result, phases)
    return seconds, result


def bench_compile(q: int, n: int, backend: str, repeat: int):
    circuit = build_qft_circuit(q, n)
    with kernels.use_backend(backend):
        matrix = circuit_to_matrix(circuit)  # warm up jit
        seconds = timed(lambda: circuit_to_matrix(circuit), repeat)
    return seconds, matrix


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3,
                        help="timing repetitions, best-of (default 3)")
    args = parser.parse_args()

    backends = kernels.available_backends()
    print(f"available backends: {', '.join(backends)}")
    if "numba" not in backends:
        print("numba not installed; timing the numpy path only")

    header = f"{'workload':<34}" + "".join(f"{b + ' [s]':>12}" for b in backends)
    if len(backends) == 2:
        header += f"{'speedup':>10}{'max |diff|':>12}"
    print(header)
    print("-" * len(header))

    benches = [
        ("single-qudit gate", bench_single_qudit),
        ("diagonal phase", bench_diagonal),
        ("exact transform compile", bench_compile),
    ]
    for q, n in CASES:
        for label, bench in benches:
            times = {}
            outputs = {}
            for backend in backends:
                times[backend], outputs[backend] = bench(q, n, backend, args.repeat)
            line = f"{label + f' q={q} n={n}':<34}"
            line += "".join(f"{times[b]:>12.4f}" for b in backends)
            if len(backends) == 2:
                speedup = times["numpy"] / times["numba"]
                deviation = float(
                    np.abs(outputs["numba"] - outputs["numpy"]).max()
                )
                line += f"{speedup:>10.2f}{deviation:>12.2e}"
            print(line)


if __name__ == "__main__":
    main()
