"""Benchmark the Jacobi sweep kernel that `lamda.svd` runs against the
scalar cyclic loop it replaced (`tests/oracles.py::jacobi_sweeps_cyclic_ref`).

Usage: PYTHONPATH=src python benchmarks/bench_svd.py [--sizes 32,64,128,256] [--repeats 3]

Each size is a 2n x n Gaussian matrix, laid out as `svd` hands it to the
kernel. For every repeat both kernels run on the same matrix, must
converge, and must give byte-equal factors, sweep counts and worst
off-diagonals; the best wall time of each is printed.
"""

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))

from oracles import jacobi_sweeps_cyclic_ref  # noqa: E402

from lamda.kernels import jacobi_sweeps  # noqa: E402


def _run(kernel, w):
    at = np.array(w.T, order="C", copy=True)
    vt = np.eye(at.shape[0])
    start = time.perf_counter()
    sweeps, worst, converged = kernel(at, vt, 1e-12, 60)
    elapsed = time.perf_counter() - start
    assert converged
    return elapsed, (at.tobytes(), vt.tobytes(), sweeps, np.float64(worst).tobytes())


def _time(n, repeats):
    best_ref = best_wave = float("inf")
    for rep in range(repeats):
        w = np.random.default_rng(rep).normal(size=(2 * n, n))
        t_ref, out_ref = _run(jacobi_sweeps_cyclic_ref, w)
        t_wave, out_wave = _run(jacobi_sweeps, w)
        assert out_wave == out_ref, f"{2 * n}x{n}: kernel and cyclic loop differ"
        best_ref, best_wave = min(best_ref, t_ref), min(best_wave, t_wave)
    return best_ref, best_wave


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="32,64,128,256",
                        help="comma-separated column counts (rows = 2x)")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    print(f"{'matrix':>12} {'cyclic loop (s)':>16} {'wavefront (s)':>14} {'speed-up':>9}")
    for n in sizes:
        ref, wave = _time(n, args.repeats)
        print(f"{2 * n:>5}x{n:<6} {ref:>16.4f} {wave:>14.4f} {ref / wave:>8.1f}x")


if __name__ == "__main__":
    main()
