"""Benchmark the Jacobi sweep kernel that `lamda.svd` runs against the
scalar cyclic loop it replaced (`tests/oracles.py::jacobi_sweeps_cyclic_ref`).

Usage: PYTHONPATH=src python benchmarks/bench_svd.py [--sizes 32,64,128,256] [--repeats 3]

The operands are the toy model's weight shapes (64x64, 64x256, 256x64) and,
for each size n, a 2n x n matrix, all Gaussian and laid out as `svd` hands
them to the kernel. For every repeat both kernels run on the same operand,
must converge, and must give byte-equal factors, sweep counts and worst
off-diagonals. Each row prints the sweeps, the kernel's global waves
(batched numpy steps, counted in an untimed run; a wave of wide rows counts
once per slice), the best wall time of each kernel and each one's
tracemalloc peak (an untimed run).
"""

import argparse
import os
import sys
import time
import tracemalloc

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))

from oracles import jacobi_sweeps_cyclic_ref  # noqa: E402

from lamda import kernels  # noqa: E402

TOY_SHAPES = ((64, 64), (64, 256), (256, 64))


def _operands(w):
    """The `at` that svd hands the kernel for weight w."""
    work = w.T if w.shape[1] > w.shape[0] else w
    return np.array(work.T, order="C", copy=True)


def _run(kernel, at0):
    at, vt = at0.copy(), np.eye(at0.shape[0])
    start = time.perf_counter()
    sweeps, worst, converged = kernel(at, vt, 1e-12, 60)
    elapsed = time.perf_counter() - start
    assert converged
    return elapsed, (at.tobytes(), vt.tobytes(), sweeps, np.float64(worst).tobytes())


def _peak_kb(kernel, at0):
    at, vt = at0.copy(), np.eye(at0.shape[0])
    tracemalloc.start()
    try:
        kernel(at, vt, 1e-12, 60)
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


def _waves(at0):
    """How many waves the kernel runs on at0."""
    count = [0]
    wave = kernels._wave

    def counted(*args):
        count[0] += 1
        return wave(*args)

    kernels._wave = counted
    try:
        kernels.jacobi_sweeps(at0.copy(), np.eye(at0.shape[0]), 1e-12, 60)
    finally:
        kernels._wave = wave
    return count[0]


def _row(label, shape, repeats):
    best_ref = best_kernel = float("inf")
    for rep in range(repeats):
        at0 = _operands(np.random.default_rng(rep).normal(size=shape))
        t_ref, out_ref = _run(jacobi_sweeps_cyclic_ref, at0)
        t_kernel, out_kernel = _run(kernels.jacobi_sweeps, at0)
        assert out_kernel == out_ref, f"{label}: kernel and cyclic loop differ"
        best_ref, best_kernel = min(best_ref, t_ref), min(best_kernel, t_kernel)
    print(f"{label:>12} {out_ref[2]:>6} {_waves(at0):>6} {best_ref:>10.4f} {best_kernel:>10.4f} "
          f"{best_ref / best_kernel:>8.1f}x {_peak_kb(jacobi_sweeps_cyclic_ref, at0):>9.0f} "
          f"{_peak_kb(kernels.jacobi_sweeps, at0):>9.0f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="32,64,128,256",
                        help="comma-separated column counts (rows = 2x)")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    shapes = [(f"toy {r}x{c}", (r, c)) for r, c in TOY_SHAPES]
    shapes += [(f"{2 * n}x{n}", (2 * n, n)) for n in (int(s) for s in args.sizes.split(","))]

    print(f"{'matrix':>12} {'sweeps':>6} {'waves':>6} {'loop (s)':>10} {'kernel (s)':>10} "
          f"{'speed-up':>9} {'loop KB':>9} {'kernel KB':>9}")
    for label, shape in shapes:
        _row(label, shape, args.repeats)


if __name__ == "__main__":
    main()
