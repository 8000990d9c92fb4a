"""Benchmark for the lamda package: fine-tune and analyze workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload finetune-toy-lamda --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

One run pins itself to one CPU, makes its inputs from `--seed`, checks that
`tests/data/golden_config.json` still reproduces `golden_loss.csv`
bit-exactly, then repeats the workload's operation for about `--seconds`
and checks every output.

`--trace 0` prints the end-to-end metrics of BENCHMARK.json, measured with
nothing wrapped but a clock probe on `svd`. `--trace 1` wraps every layer's public functions (see
tracer.py), repeats the operation the same way, removes the wrappers, runs
one more operation untraced to price the tracing, and prints the per-layer
metrics of BENCHMARK.json. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. A failed output check
or operation exits 1; a missing package, data file or bad argument exits 2
without printing a result.

Each run writes a record with its provenance to perfbench/_work/, and a
traced run writes its spans there as JSON lines.
"""

import os

# Pinned before numpy loads: a second BLAS thread on a small box makes
# small matmuls many times slower, and the golden series is f32.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"
os.environ["LDA_FLOAT_MODE"] = "f32"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
WORKLOAD_NAMES = ("finetune-toy-lamda", "analyze-plan-count")

E2E_METRICS = [  # (name, unit, better)
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("steps_per_s", "1/s", "higher"),
    ("step_ms_p50", "ms", "lower"),
    ("step_ms_p90", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("eval_loss", "nats", "lower"),
]


class UsageError(Exception):
    """The benchmark cannot run here; exit 2 without a result."""


ALLOWED_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def pin_to_one_cpu():
    """Run on one CPU from here on, threads started later included.

    The analyze pool runs six threads that take turns holding the GIL.
    Spread over two CPUs of a shared host, each hand-over waits for the
    other CPU to be scheduled, and the same operation took 3 to 5.3 s from
    one run to the next; on one CPU it tracks the SVD work. The pool's
    cost on every CPU is still measured, in the traced run.
    """
    if ALLOWED_CPUS:
        os.sched_setaffinity(0, {ALLOWED_CPUS[0]})


@contextlib.contextmanager
def every_cpu():
    """Let the calling thread, and threads it starts, use every allowed CPU."""
    if ALLOWED_CPUS:
        os.sched_setaffinity(0, ALLOWED_CPUS)
    try:
        yield
    finally:
        pin_to_one_cpu()


def check_declarations(spec, layer_metrics):
    """Every metric this benchmark prints must be declared with its unit and direction."""
    want = {"end_to_end": {n: (u, b) for n, u, b in E2E_METRICS},
            "per_layer": {n: (u, b) for n, u, b in layer_metrics}}
    for section in want:
        have = {m["name"]: (m["unit"], m["better"]) for m in spec[section]}
        if want[section] != have:
            diff = set(want[section].items()) ^ set(have.items())
            raise UsageError(f"BENCHMARK.json {section} disagrees with the benchmark: {sorted(diff)}")


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def import_package():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "lamda", "__init__.py")):
        raise UsageError(f"no lamda package under {src}")
    sys.path.insert(0, src)
    import lamda

    if os.path.dirname(os.path.dirname(os.path.abspath(lamda.__file__))) != src:
        raise UsageError(f"imported lamda from {lamda.__file__}, not from {src}")
    return lamda


# ------------------------------------------------------------ provenance


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args):
    from lamda import kernels
    from lamda.tensor import get_float_mode

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        blas_name = blas_version = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_allowed": len(ALLOWED_CPUS), "pinned_cpu": ALLOWED_CPUS[0] if ALLOWED_CPUS else None,
        "blas": blas_name, "blas_version": blas_version, "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "float_mode": get_float_mode(),
        "svd_kernel": "numba" if getattr(kernels, "USING_NUMBA", False) else "numpy",
        "python": platform.python_version(), "numpy": np.__version__,
        "machine": platform.machine(), "git_commit": _git_commit(),
    }


# --------------------------------------------------------------- checks


def golden_check():
    """The committed golden config must reproduce its loss series bit-exactly."""
    from lamda.config import load_run_config
    from lamda.train import train
    from workloads import require

    data = os.path.join(ROOT, "tests", "data")
    try:
        cfg = load_run_config(os.path.join(data, "golden_config.json"))
        with open(os.path.join(data, "golden_loss.csv"), newline="", encoding="utf-8") as fh:
            golden = list(csv.DictReader(fh))
    except OSError as exc:
        raise UsageError(f"golden data missing: {exc}") from None
    rows = train(cfg).metrics
    require(len(rows) == len(golden), f"golden series has {len(golden)} rows, run has {len(rows)}")
    for want, (step, loss, _, _) in zip(golden, rows):
        require(int(want["step"]) == step and want["loss"] == repr(float(loss)),
                f"golden loss differs at step {step}: {loss!r} != {want['loss']}")


# ---------------------------------------------------------- measurement


def measure(workload, inp, seconds, tracer=None, check=None):
    """Repeat the operation for about `seconds` (at least once).

    No operation starts that would end past the deadline, judged by the
    fastest so far, so a run overshoots `seconds` by little. `check(rec)`,
    if given, checks each operation's outputs as soon as it ends, so that
    they need not be kept. Returns (records, failures, snapshots). With a
    tracer, each operation is one span of its own run id, and the tensor
    counters are snapshotted at every training step so per-step values
    exclude set-up and evaluation.
    """
    records, failures, snapshots = [], 0, {}
    deadline = time.perf_counter() + seconds
    fastest = float("inf")
    while True:
        k = len(records) + failures
        gc.collect()  # the last operation's garbage is not this one's cost
        on_step = span = None
        if tracer is not None:
            tracer.run = k

            def on_step(k=k):
                snap = tracer.snapshot()
                snapshots.setdefault(k, [snap, snap])[1] = snap

            span = tracer.open("op")
        t0 = time.perf_counter()
        rec = None
        try:
            rec = workload.run_op(inp, k, on_step)
            rec.run = k
            records.append(rec)
        except Exception:  # a failed operation is counted, and the run goes on
            failures += 1
            traceback.print_exc()
        finally:
            if span is not None:
                tracer.close(span)
        if rec is not None and check is not None:
            check(rec)
        now = time.perf_counter()
        fastest = min(fastest, now - t0)
        if now + fastest > deadline:
            return records, failures, snapshots


def end_to_end(records, setup_samples, loss):
    """End-to-end metrics of a run's operations, each timed phase at its best.

    The operations of a run do the same work, phase by phase and unit by
    unit. On a shared host the same phase takes up to twice as long while
    other tenants are busy, in spells from a fraction of a second up to
    minutes, so each phase and unit is taken at its fastest over the run's
    operations (best of R, as `timeit` reports); a spell longer than the
    run still shows in every timing. `run_s` sums the best phases,
    `steps_per_s` divides the units by the best steady-state phases, and
    the step percentiles are over the best time of each unit. `setup_s` is
    the median set-up.
    """
    phases = np.min([rec.phases for rec in records], axis=0)
    units = np.min([rec.unit_s for rec in records], axis=0)
    setup = list(setup_samples) + [rec.setup_s for rec in records]
    metrics = {
        "setup_s": float(np.median(setup)),
        "run_s": float(np.sum(phases)),
        "steps_per_s": len(units) / float(np.sum(phases[records[0].steady])),
        "step_ms_p50": float(np.percentile(units, 50)) * 1e3,
        "step_ms_p90": float(np.percentile(units, 90)) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "eval_loss": loss,
    }
    samples = {"setup_s": len(setup), "run_s": len(records), "steps_per_s": len(records),
               "step_ms_p50": len(units), "step_ms_p90": len(units)}
    return metrics, samples


def run_workload(args, workload, inp):
    """Returns (metrics, samples, attempted, failed, extra record fields)."""
    if not args.trace:
        setup = workload.setup_samples(inp)
        records, failures, _ = measure(workload, inp, args.seconds,
                                       check=lambda rec: workload.check(inp, rec))
        if not records:
            return {}, {}, failures, failures, {}
        workload.check_repeats(records)
        metrics, samples = end_to_end(records, setup, workload.eval_loss(inp, records))
        extra = {"op_run_s": [rec.run_s for rec in records]}
        return metrics, samples, len(records) + failures, failures, extra

    from layers import layer_metrics
    from tracer import Patcher, Tracer, install

    tracer, patcher = Tracer(), Patcher()
    install(tracer, patcher)
    try:
        records, failures, snapshots = measure(workload, inp, args.seconds, tracer)
    finally:
        patcher.restore()
    patcher.verify_restored()
    if not records:
        return {}, {}, failures, failures, {}
    for rec in records:  # checked now, so that the checks are not traced
        workload.check(inp, rec)
    workload.check_repeats(records)
    untraced = workload.run_op(inp, "untraced")
    workload.check(inp, untraced)
    serial = every_cpu_phase = 0.0
    if hasattr(workload, "serial_svd_s"):
        serial = workload.serial_svd_s(inp)
        # The pool once more with every CPU this process may use, as a
        # user runs it: its cost then depends on the scheduler.
        with every_cpu():
            rec = workload.run_op(inp, "every-cpu")
        workload.check(inp, rec)
        every_cpu_phase = sum(rec.phases[rec.steady])
    metrics = layer_metrics(tracer, records, snapshots, untraced, serial, every_cpu_phase)
    spans_path = os.path.join(WORK, f"{args.workload}-seed{args.seed}.spans.jsonl")
    tracer.write(spans_path)
    extra = {"spans_file": os.path.relpath(spans_path, ROOT), "spans": len(tracer.spans),
             "wrapped_attributes": patcher.patched,
             "traced_run_s": [rec.run_s for rec in records], "untraced_run_s": untraced.run_s,
             "traced_steps_per_s": [rec.units_per_s for rec in records],
             "untraced_steps_per_s": untraced.units_per_s}
    extra_ops = 2 if serial else 1
    return metrics, {"ops": len(records)}, len(records) + extra_ops + failures, failures, extra


def run_one(args):
    pin_to_one_cpu()
    spec = load_spec()
    import_package()
    from layers import LAYER_METRICS

    check_declarations(spec, LAYER_METRICS)
    import workloads
    from lamda.tensor import get_float_mode

    if get_float_mode() != "f32":
        raise UsageError("float mode is not f32")
    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    scratch = os.path.join(WORK, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    prov = provenance(args)
    print("provenance: " + json.dumps(prov, sort_keys=True), flush=True)
    units = {n: u for n, u, _ in (E2E_METRICS if not args.trace else LAYER_METRICS)}
    try:
        try:
            golden_check()
            inp = workload.prepare(args.seed, scratch)
            metrics, samples, attempted, failed, extra = run_workload(args, workload, inp)
            correct = True
        except workloads.CheckFailed as exc:
            print(f"output check failed: {exc}", file=sys.stderr)
            metrics, samples, attempted, failed, extra = {}, {}, 1, 0, {}
            correct = False
        except UsageError:
            raise
        except Exception:  # the program raised outside a repeated operation
            traceback.print_exc()
            metrics, samples, attempted, failed, extra = {}, {}, 1, 1, {}
            correct = False
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if correct and not failed and set(metrics) != set(units):
        raise UsageError(f"metrics printed {sorted(metrics)} differ from those declared")
    for name, value in metrics.items():
        note = f"  (n={samples[name]})" if name in samples else ""
        print(f"{name} = {value:.6g} {units[name]}{note}")
    print(f"error_rate = {failed / attempted:.6g}  ({failed} of {attempted} operations failed)")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}
    record = dict(result, provenance=prov, samples=samples, **extra)
    with open(os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result), flush=True)
    return 0 if correct and not failed else 1


def run_all(args):
    """Run each workload in a child process and print one table."""
    results, code = {}, 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            results[name] = None
            code = code or 1
    print(json.dumps(results))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except UsageError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
