"""Benchmark the Jacobi sweep kernel that `lamda.svd` runs against the
scalar cyclic loop it replaced (`tests/oracles.py::jacobi_sweeps_cyclic_ref`),
and one kernel call per operand against one call per stack of operands.

Usage: PYTHONPATH=src python benchmarks/bench_svd.py [--sizes 32,64,128,256] [--repeats 3]

The operands are the toy model's weight shapes (64x64, 64x256, 256x64) and,
for each size n, a 2n x n matrix, all Gaussian and laid out as `svd` hands
them to the kernel. For every repeat both kernels run on the same operand,
must converge, and must give byte-equal factors, sweep counts and worst
off-diagonals. Each row prints the sweeps, the kernel's global waves
(batched numpy steps, counted in an untimed run), the best wall time of
each kernel and each one's tracemalloc peak from the operand on (an
untimed run): the loop's working copies of `at` and `vt`, or the kernel's
buffer, and their temporaries.

A second table takes the 10 spectral-init operands of the `finetune-toy-lamda`
backbone (`perfbench/workloads.py`: the toy model pre-trained for 100 steps on
`copy`, seed 0; six 64x64 and four 64x256 operands) and runs them through
the kernel one at a time and stacked by shape, as `svd_many` does, and one
64x64 operand alone, and then runs `svd_many` of the 10 weights, as a
fine-tune's set-up does. The first two ways must give byte-equal factors,
sweep counts and worst off-diagonals. Each row prints the kernel calls, the
best wall time over the repeats (the ways alternate), the time per operand
and the tracemalloc peak of an untimed run, inputs excluded (the kernel
rows drop each call's results; `svd_many` keeps its decompositions).

A third table runs each toy shape's operand through the kernel with
`compute_uv` True (the full SVD) and False (singular values only, as
`lamda analyze` runs it). Both must give byte-equal `at`, sweep
counts and worst off-diagonals. Each row prints the best wall time of each
over the repeats (the two alternate) and each one's tracemalloc peak.

A fourth table runs `svd_many` of the backbone's 10 weights, as a fine-tune's
set-up does, in one fresh child interpreter per repeat
(`OPENBLAS_NUM_THREADS=1`). Each row is one child: the wall time and the
minor page faults (`resource.getrusage`) of its first call, the one every
`lamda` process pays, and of a second call in the same process.

A fifth table runs `lamda analyze` in process (`cli.main`) on float32
containers of `layers` layers, each one d x d and one d x 4d Gaussian
matrix, for the (d, layers) of `ANALYZE_ROWS`, with the perfbench
workload's budget (ranks 4,8,12, target 8) and an energy CSV. It
decomposes every matrix. Each row prints the container's bytes, the best
wall time over the repeats and the tracemalloc peak of one more run.
"""

import argparse
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))

from oracles import jacobi_sweeps_cyclic_ref  # noqa: E402

from lamda import cli, container, kernels  # noqa: E402
from lamda.model import ToyTransformerConfig  # noqa: E402
from lamda.svd import svd_many  # noqa: E402
from lamda.train import TrainRunConfig, pretrain_backbone  # noqa: E402

TOY_SHAPES = ((64, 64), (64, 256), (256, 64))
# (d, layers) of the analyze table: one layer per width, then more layers at d 64.
ANALYZE_ROWS = ((64, 1), (128, 1), (256, 1), (512, 1), (64, 4), (64, 16))
# The finetune-toy-lamda backbone (perfbench/workloads.py).
BACKBONE = dict(layers=2, d_model=64, heads=4, ffn_dim=256, vocab=32, context=16)
PRETRAIN = dict(task_id="copy", steps=100, lr=3e-3, batch_size=16, seed=0)


def _operands(w):
    """A C-contiguous copy of the operand that svd hands the kernel for weight w."""
    return np.array(w if w.shape[1] > w.shape[0] else w.T, order="C", copy=True)


def _per_problem(at, vt, sweeps, worst, converged):
    """Bytes of one kernel call's (at, vt, sweeps, worst, converged), per problem."""
    return [(at[b].tobytes(), vt[b].tobytes(), int(sweeps[b]), worst[b].tobytes(),
             bool(converged[b])) for b in range(len(at))]


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - start, out


def _peak_kb(fn, *args):
    """The tracemalloc peak of fn(*args), its arguments excluded."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


def _sweep_each(stacks):
    """One kernel call per stack of operands, each call's results dropped."""
    for stack in stacks:
        kernels.jacobi_sweeps(stack, True, 1e-12, 60)


def _waves(at0):
    """How many waves the kernel runs on at0."""
    count = [0]
    wave = kernels._wave

    def counted(*args):
        count[0] += 1
        return wave(*args)

    kernels._wave = counted
    try:
        _sweep_each([[at0]])
    finally:
        kernels._wave = wave
    return count[0]


def _row(label, shape, repeats):
    best_ref = best_kernel = float("inf")
    for rep in range(repeats):
        at0 = _operands(np.random.default_rng(rep).normal(size=shape))
        t_ref, out_ref = _timed(jacobi_sweeps_cyclic_ref, [at0], True, 1e-12, 60)
        t_kernel, out_kernel = _timed(kernels.jacobi_sweeps, [at0], True, 1e-12, 60)
        (ref,) = _per_problem(*out_ref)
        assert ref[4], f"{label}: the cyclic loop did not converge"
        assert _per_problem(*out_kernel) == [ref], f"{label}: kernel and cyclic loop differ"
        best_ref, best_kernel = min(best_ref, t_ref), min(best_kernel, t_kernel)
    print(f"{label:>12} {ref[2]:>6} {_waves(at0):>6} {best_ref:>10.4f} {best_kernel:>10.4f} "
          f"{best_ref / best_kernel:>8.1f}x "
          f"{_peak_kb(jacobi_sweeps_cyclic_ref, [at0], True, 1e-12, 60):>9.0f} "
          f"{_peak_kb(_sweep_each, [[at0]]):>9.0f}")


def _backbone_weights():
    """The backbone's spectral-init weights as float64, in module order."""
    cfg = ToyTransformerConfig(**BACKBONE)
    weights = pretrain_backbone(cfg, **PRETRAIN)
    modules = [f"L{i}.{k}" for i in range(cfg.layers) for k in TrainRunConfig.adapted_kinds]
    return {m: np.asarray(weights[m], dtype=np.float64) for m in modules}


def _one_at_a_time(ats):
    """Results of one kernel call per operand, per operand; their wall time."""
    elapsed, outs = _timed(lambda: [kernels.jacobi_sweeps([at], True, 1e-12, 60) for at in ats])
    return elapsed, [run for out in outs for run in _per_problem(*out)]


def _stacks(ats):
    """One stack per operand shape, in order of first appearance: (indices, operands)."""
    groups = {}
    for i, at in enumerate(ats):
        groups.setdefault(at.shape, []).append(i)
    return [(idx, [ats[i] for i in idx]) for idx in groups.values()]


def _stacked(ats):
    """Results of one kernel call per stack, per operand; their wall time."""
    stacks = _stacks(ats)
    elapsed, outs = _timed(
        lambda: [kernels.jacobi_sweeps(stack, True, 1e-12, 60) for _, stack in stacks])
    runs = [None] * len(ats)
    for (idx, _), out in zip(stacks, outs):
        for i, run in zip(idx, _per_problem(*out)):
            runs[i] = run
    return elapsed, runs


def _stack_table(weights, repeats):
    ats = [_operands(w) for w in weights.values()]
    best_one = best_stacked = best_single = best_many = float("inf")
    for _ in range(repeats):
        t_one, out_one = _one_at_a_time(ats)
        t_stacked, out_stacked = _stacked(ats)
        t_single, _ = _one_at_a_time(ats[:1])
        t_many, _ = _timed(svd_many, weights)
        assert out_stacked == out_one, "stacked and one-at-a-time kernels differ"
        assert all(run[4] for run in out_one)
        best_one, best_stacked = min(best_one, t_one), min(best_stacked, t_stacked)
        best_single, best_many = min(best_single, t_single), min(best_many, t_many)
    stacks = [stack for _, stack in _stacks(ats)]
    peaks = (
        _peak_kb(_sweep_each, [[at] for at in ats]),
        _peak_kb(_sweep_each, stacks),
        _peak_kb(_sweep_each, [ats[:1]]),
        _peak_kb(svd_many, weights),
    )
    print(f"{'backbone operands':>24} {'calls':>5} {'time (s)':>9} {'per op (ms)':>11} "
          f"{'peak KB':>8}")
    rows = (("10, one at a time", len(ats), best_one, len(ats)),
            ("10, stacked by shape", len(stacks), best_stacked, len(ats)),
            ("one 64x64 alone", 1, best_single, 1),
            ("10, svd_many", len(stacks), best_many, len(ats)))
    for (label, calls, best, count), peak in zip(rows, peaks):
        print(f"{label:>24} {calls:>5} {best:>9.4f} {best / count * 1e3:>11.2f} {peak:>8.0f}")
    print(f"stacked: {best_one / best_stacked:.2f}x the one-at-a-time speed")


def _values_only_row(label, shape, repeats):
    at0 = _operands(np.random.default_rng(0).normal(size=shape))
    best, outs = {True: float("inf"), False: float("inf")}, {}
    for _ in range(repeats):
        for compute_uv in (True, False):
            elapsed, (at, _, sweeps, worst, converged) = _timed(
                kernels.jacobi_sweeps, [at0], compute_uv, 1e-12, 60)
            best[compute_uv] = min(best[compute_uv], elapsed)
            assert converged[0]
            outs[compute_uv] = (at.tobytes(), int(sweeps[0]), worst.tobytes())
        assert outs[False] == outs[True], f"{label}: values-only and full kernels differ"
    peaks = [_peak_kb(kernels.jacobi_sweeps, [at0], compute_uv, 1e-12, 60)
             for compute_uv in (True, False)]
    print(f"{label:>12} {outs[True][1]:>6} {best[True]:>9.4f} {best[False]:>11.4f} "
          f"{best[True] / best[False]:>8.2f}x {peaks[0]:>8.0f} {peaks[1]:>10.0f}")


# One child's first and second `svd_many` of the weights saved at argv[1]:
# prints wall seconds and minor page faults of each.
_CHILD = """
import resource, sys, time
import numpy as np
from lamda.svd import svd_many
with np.load(sys.argv[1]) as saved:
    weights = {key: saved[key] for key in saved.files}
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    svd_many(weights)
    elapsed = time.perf_counter() - start
    print(elapsed, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _cold_table(weights, children):
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    print(f"{'fresh process':>13} {'first (ms)':>10} {'faults':>8} {'second (ms)':>11} "
          f"{'faults':>8}")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "weights.npz")
        np.savez(path, **weights)
        for child in range(children):
            lines = subprocess.run([sys.executable, "-c", _CHILD, path], env=env, check=True,
                                   stdout=subprocess.PIPE, text=True).stdout.splitlines()
            (first, first_faults), (second, second_faults) = (line.split() for line in lines)
            print(f"{child + 1:>13} {float(first) * 1e3:>10.0f} {first_faults:>8} "
                  f"{float(second) * 1e3:>11.0f} {second_faults:>8}")


def _analyze_row(d, layers, repeats):
    rng = np.random.default_rng(d)
    weights = {}
    for i in range(layers):
        weights[f"L{i}.q"] = rng.normal(size=(d, d)).astype(np.float32)
        weights[f"L{i}.ffn1"] = rng.normal(size=(d, 4 * d)).astype(np.float32)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "w.ldwt")
        container.write_weights(path, weights)
        argv = ["analyze", "--weights", path, "--ranks", "4,8,12", "--target", "8",
                "--scores-out", os.path.join(tmp, "scores.json"),
                "--energy-csv", os.path.join(tmp, "energy.csv")]
        best = float("inf")
        for _ in range(repeats):
            elapsed, code = _timed(cli.main, argv)
            assert code == 0, f"lamda analyze exited with {code}"
            best = min(best, elapsed)
        print(f"{d:>5} {layers:>6} {os.path.getsize(path):>11} {best:>9.3f} "
              f"{_peak_kb(cli.main, argv):>8.0f}")


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
    print()
    weights = _backbone_weights()
    _stack_table(weights, args.repeats)
    print()
    print(f"{'matrix':>12} {'sweeps':>6} {'full (s)':>9} {'values (s)':>11} {'speed-up':>9} "
          f"{'full KB':>8} {'values KB':>10}")
    for r, c in TOY_SHAPES:
        _values_only_row(f"toy {r}x{c}", (r, c), args.repeats)
    print()
    _cold_table(weights, args.repeats)
    print()
    print(f"{'d':>5} {'layers':>6} {'bytes':>11} {'time (s)':>9} {'peak KB':>8}")
    for d, layers in ANALYZE_ROWS:
        _analyze_row(d, layers, args.repeats)


if __name__ == "__main__":
    main()
