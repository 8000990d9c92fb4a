"""Per-layer metrics from one traced run.

Times marked "per step" are summed over the training steps after the
first (the window between the first and the last `metrics_hook` call of
each operation) and divided by the number of those steps. Other values are
per operation. A layer that does not run on a workload reads 0.
"""

import bisect
from collections import defaultdict

import numpy as np

from tracer import END, NAME, PARENT, RUN, START, TENSOR_OPS, outermost, self_times

# The phases of one training step, called directly by train(): the per-layer
# metric that times each, and its span names.
STEP_PHASES = {
    "freeze": ("freezing.update_s", ("freezing.rows", "freezing.event", "freezing.live_rows")),
    "batch": ("tasks.batch_s", ("tasks.batch",)),
    "forward": ("model.loss_s", ("model.loss",)),
    "backward": ("tape.backward_s", ("tape.backward",)),
    "retained": ("train.retained_count_s", ("train.retained_count",)),
    "adam": ("train.adam_s", ("train.adam",)),
}

LAYER_METRICS = [  # (name, unit, better)
    ("tensor.nodes_per_step", "count", "lower"),
    ("tensor.matmul_frozen_operands", "count", "lower"),
    *[(f"tensor.calls.{op}", "count", "lower") for op in TENSOR_OPS],
    *[(f"tensor.fwd_s.{op}", "s", "lower") for op in TENSOR_OPS],
    ("tape.backward_s", "s", "lower"),
    ("model.loss_s", "s", "lower"),
    ("model.forward_s", "s", "lower"),
    ("model.attn_s", "s", "lower"),
    ("adapter.forward_s", "s", "lower"),
    ("adapter.build_calls", "count", "lower"),
    ("adapter.build_s", "s", "lower"),
    ("svd.calls", "count", "lower"),
    ("svd.distinct_inputs", "count", "lower"),
    ("svd.useful_ratio", "ratio", "higher"),
    ("svd.busy_s", "s", "lower"),
    ("svd.max_call_s", "s", "lower"),
    ("allocator.score_s", "s", "lower"),
    ("allocator.allocate_s", "s", "lower"),
    ("cli.analyze.svd_phase_s", "s", "lower"),
    ("cli.analyze.pool_speedup", "ratio", "higher"),
    ("cli.analyze.pool_speedup_every_cpu", "ratio", "higher"),
    ("train.step_s", "s", "lower"),
    ("train.adam_s", "s", "lower"),
    ("train.retained_count_s", "s", "lower"),
    ("train.live_params_mean", "count", "lower"),
    ("train.retained_floats", "count", "lower"),
    ("freezing.update_s", "s", "lower"),
    ("freezing.events", "count", "lower"),
    ("tasks.batch_s", "s", "lower"),
    ("container.write_s", "s", "lower"),
    ("container.bytes_written", "B", "lower"),
    ("container.read_s", "s", "lower"),
    ("container.bytes_read", "B", "lower"),
    ("trace.step_coverage", "ratio", "higher"),
    ("trace.overhead_run_s", "ratio", "lower"),
    ("trace.overhead_steps_per_s", "ratio", "lower"),
    ("trace.spans_per_op", "count", "lower"),
]


def step_accounting(spans, windows):
    """Total step wall time, and the share of it that phase spans cover.

    Each step becomes a span whose children are the phase spans that start
    inside it; the step's self time is what no phase accounts for.
    """
    phase_names = [n for _, names in STEP_PHASES.values() for n in names]
    tree, first_step = [], {}
    for run, marks in windows.items():
        first_step[run] = len(tree)
        tree += [["step", t0, t1, None, run] for t0, t1 in zip(marks, marks[1:])]
    n_steps = len(tree)
    for i in outermost(spans, phase_names):
        name, start, end, _, run = spans[i]
        marks = windows.get(run)
        if marks is None:
            continue
        k = bisect.bisect_left(marks, start)  # marks[k-1] < start <= marks[k]: step k
        if 1 <= k < len(marks):
            tree.append([name, start, end, first_step[run] + k - 1, run])
    wall = sum(s[END] - s[START] for s in tree[:n_steps])
    unaccounted = sum(self_times(tree)[:n_steps])
    return wall, (1.0 - unaccounted / wall) if wall else 0.0


def layer_metrics(tracer, records, snapshots, untraced, serial_svd_s, every_cpu_svd_phase_s):
    """Per-layer metrics of the traced `records`, each tagged with its run id.

    The analyze pool's speed-up is the serial sum of the same SVDs over the
    pool's SVD phase: on the benchmark's one CPU, and on every CPU in one
    more untraced operation.
    """
    spans = tracer.spans
    n_ops = len(records)
    windows = {rec.run: rec.marks for rec in records if len(rec.marks) > 1}
    n_steps = sum(len(marks) - 1 for marks in windows.values())
    out = defaultdict(float)

    def per_op(value):
        return value / n_ops

    def per_step(value):
        return value / n_steps if n_steps else 0.0

    def durations(names, in_steps=False):
        total = 0.0
        for i in outermost(spans, names):
            span = spans[i]
            marks = windows.get(span[RUN])
            if in_steps and (marks is None or not marks[0] < span[START] <= marks[-1]):
                continue
            total += span[END] - span[START]
        return total

    counts = defaultdict(int)
    for (_run, key), value in tracer.counts.items():
        counts[key] += value
    if counts["tape.backward_calls"]:
        out["tensor.nodes_per_step"] = counts["tape.nodes"] / counts["tape.backward_calls"]
        out["tensor.matmul_frozen_operands"] = (
            counts["tensor.matmul_frozen_operands"] / counts["tape.backward_calls"])
    for k, (first, last) in snapshots.items():
        if k not in windows:
            continue
        for op in TENSOR_OPS:
            out[f"tensor.calls.{op}"] += per_step(last[0].get(op, 0) - first[0].get(op, 0))
            out[f"tensor.fwd_s.{op}"] += per_step(last[1].get(op, 0.0) - first[1].get(op, 0.0))

    for metric, names in (("model.forward_s", ["model.forward"]), ("model.attn_s", ["model.attn"]),
                          ("adapter.forward_s", ["adapter.forward"])):
        out[metric] = per_step(durations(names, in_steps=True))
    for metric, names in STEP_PHASES.values():
        out[metric] = per_step(durations(names, in_steps=True))
    wall, coverage = step_accounting(spans, windows)
    out["train.step_s"] = per_step(wall)
    out["trace.step_coverage"] = coverage

    builds = [i for i, s in enumerate(spans) if s[NAME] == "adapter.build"]
    own = self_times(spans)
    out["adapter.build_calls"] = per_op(len(builds))
    out["adapter.build_s"] = per_op(sum(own[i] for i in builds))

    svd = [s for s in spans if s[NAME] == "svd"]
    if svd:
        calls = len(svd)
        distinct = sum(len(d) for d in tracer.digests.values())
        out["svd.calls"] = per_op(calls)
        out["svd.distinct_inputs"] = per_op(distinct)
        out["svd.useful_ratio"] = distinct / calls
        out["svd.busy_s"] = per_op(sum(s[END] - s[START] for s in svd))
        out["svd.max_call_s"] = max(s[END] - s[START] for s in svd)
    out["allocator.score_s"] = per_op(durations(["allocator.score"]))
    out["allocator.allocate_s"] = per_op(durations(["allocator.allocate"]))

    phases = []
    for i, span in enumerate(spans):
        if span[NAME] != "cli.analyze":
            continue
        inside = [s for s in svd if s[PARENT] == i]
        if inside:
            phases.append(max(s[END] for s in inside) - min(s[START] for s in inside))
    if phases:
        phase = float(np.mean(phases))
        out["cli.analyze.svd_phase_s"] = phase
        if serial_svd_s:
            out["cli.analyze.pool_speedup"] = serial_svd_s / phase
            out["cli.analyze.pool_speedup_every_cpu"] = serial_svd_s / every_cpu_svd_phase_s

    rows = [row for rec in records if rec.marks for row in rec.output[0]]
    if rows:
        out["train.live_params_mean"] = float(np.mean([r[2] for r in rows]))
        out["train.retained_floats"] = float(np.mean([r[3] for r in rows]))
    out["freezing.events"] = per_op(sum(1 for s in spans if s[NAME] == "freezing.event"))
    out["container.write_s"] = per_op(durations(["container.write"]))
    out["container.read_s"] = per_op(durations(["container.read"]))
    out["container.bytes_written"] = per_op(counts["container.bytes_written"])
    out["container.bytes_read"] = per_op(counts["container.bytes_read"])

    traced_run = float(np.median([r.run_s for r in records]))
    traced_rate = float(np.median([r.units_per_s for r in records]))
    out["trace.overhead_run_s"] = traced_run / untraced.run_s
    out["trace.overhead_steps_per_s"] = untraced.units_per_s / traced_rate
    out["trace.spans_per_op"] = per_op(len(spans))
    return {name: float(out[name]) for name, _, _ in LAYER_METRICS}
