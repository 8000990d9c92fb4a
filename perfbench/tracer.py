"""Spans and counters for the benchmark's traced run.

`install` wraps the public functions of each lamda layer in place: the
module function, every other binding of the same function object in a
loaded lamda module (names taken with `from ... import`), and class
methods. `Patcher.restore` puts every original back, and
`Patcher.verify_restored` proves it, so an untraced operation later in the
same process runs the unmodified package.

Layer boundaries record spans `[name, start, end, parent, run]` in memory;
`Tracer.write` saves them as JSON lines at the end. Tensor primitives run
about a thousand times per training step, so they record only a call count
and their summed time (`leaf_calls`, `leaf_s`), not spans.
"""

import functools
import hashlib
import json
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np

TENSOR_OPS = ("matmul", "add", "scale", "transpose", "slice_rows", "slice_cols",
              "concat_cols", "concat_rows", "softmax_rows", "layer_norm", "gelu",
              "embedding", "cross_entropy")

# (module, function, span name). Several functions may share a span name;
# a layer's time is then the sum over its outermost spans.
FUNCTION_SPANS = (
    ("lamda.svd", "svd", "svd"),
    ("lamda.adapter", "build_adapter", "adapter.build"),
    ("lamda.adapter", "build_lora", "adapter.build"),
    ("lamda.allocator", "score_modules", "allocator.score"),
    ("lamda.allocator", "score_from_sigma", "allocator.score"),
    ("lamda.allocator", "allocate", "allocator.allocate"),
    ("lamda.freezing", "trainable_rows", "freezing.rows"),
    ("lamda.train", "build_run", "train.build_run"),
    ("lamda.train", "count_retained_activations", "train.retained_count"),
    ("lamda.container", "write_weights", "container.write"),
    ("lamda.container", "save_checkpoint", "container.write"),
    ("lamda.container", "read_weights", "container.read"),
    ("lamda.container", "load_checkpoint", "container.read"),
    ("lamda.cli", "cmd_analyze", "cli.analyze"),
    ("lamda.cli", "cmd_plan", "cli.plan"),
    ("lamda.cli", "cmd_count", "cli.count"),
)

# (module, class, method, span name)
METHOD_SPANS = (
    ("lamda.tensor", "Tape", "backward", "tape.backward"),
    ("lamda.model", "ToyTransformer", "loss", "model.loss"),
    ("lamda.model", "ToyTransformer", "forward", "model.forward"),
    ("lamda.model", "ToyTransformer", "mhsa_forward", "model.attn"),
    ("lamda.adapter", "AdapterState", "forward", "adapter.forward"),
    ("lamda.adapter", "LoraState", "forward", "adapter.forward"),
    ("lamda.adapter", "AdapterState", "set_trainable_rows", "freezing.event"),
    ("lamda.train", "Adam", "step", "train.adam"),
    ("lamda.train", "Adam", "zero_grad", "train.adam"),
    ("lamda.train", "Adam", "live_scalars", "train.adam"),
    ("lamda.train", "Adam", "set_live_rows", "freezing.live_rows"),
    ("lamda.tasks", "_PairTask", "batch", "tasks.batch"),
    ("lamda.tasks", "ModSumTask", "batch", "tasks.batch"),
    ("lamda.tasks", "TextTask", "batch", "tasks.batch"),
)

NAME, START, END, PARENT, RUN = range(5)


class Patcher:
    """Replaces attributes of modules and classes and puts the originals back."""

    def __init__(self):
        self._saved = []  # (owner, attribute, original)

    def wrap_function(self, module, name, make_wrapper):
        """Wrap `module.name` and every binding of the same object in lamda."""
        original = vars(module)[name]
        wrapper = make_wrapper(original)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "")
            if mod_name != "lamda" and not mod_name.startswith("lamda."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)
        return wrapper

    def wrap_attr(self, owner, name, make_wrapper):
        """Wrap one attribute of one module or class, leaving other bindings."""
        self._set(owner, name, make_wrapper(vars(owner)[name]))

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    @property
    def patched(self):
        return len(self._saved)

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)

    def verify_restored(self):
        """Raise unless every wrapped attribute holds its original object again."""
        for owner, attr, original in self._saved:
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"wrapper left on {owner.__name__}.{attr}")


class Tracer:
    """Spans and counters of one traced run, kept in memory until `write`."""

    def __init__(self):
        self.spans = []
        self.run = 0  # set by the caller before each operation
        self.leaf_calls = defaultdict(int)
        self.leaf_s = defaultdict(float)
        self.counts = defaultdict(int)  # (run, key) -> count
        self.digests = defaultdict(set)  # run -> svd input digests
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        """Start a span under the innermost open one; returns its index for `close`."""
        stack = self._stack()
        parent = stack[-1] if stack else self._pool_parent()
        rec = [name, 0.0, 0.0, parent, self.run]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(rec)
        stack.append(idx)
        rec[START] = time.perf_counter()
        return idx

    def close(self, idx):
        self.spans[idx][END] = time.perf_counter()
        self._stack().pop()

    def _pool_parent(self):
        # A worker thread's first span belongs to whatever the main thread
        # is waiting in (the CLI's thread pool).
        main = self._main_stack
        return main[-1] if main else None

    def span(self, name, before=None, after=None):
        """Decorator factory: record a span around each call.

        `before(tracer, args)` and `after(tracer, args)` run outside the
        timed interval, for counters that need the arguments.
        """
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(self, args)
                idx = self.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.close(idx)
                    if after is not None:
                        after(self, args)
            return wrapper
        return make

    def leaf(self, name, after=None):
        """Decorator factory: count calls and sum their time, no span.

        `after(tracer, args, result)` runs outside the timed interval.
        """
        calls, busy = self.leaf_calls, self.leaf_s

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    busy[name] += time.perf_counter() - t0
                    calls[name] += 1
                if after is not None:
                    after(self, args, result)
                return result
            return wrapper
        return make

    def snapshot(self):
        return dict(self.leaf_calls), dict(self.leaf_s)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")


# ------------------------------------------------------------- counters


def _count_svd_input(tracer, args):
    w = np.ascontiguousarray(args[0])
    digest = hashlib.sha1(str((w.dtype.str, w.shape)).encode() + w.tobytes()).hexdigest()
    with tracer._lock:
        tracer.digests[tracer.run].add(digest)


def _count_frozen_operands(tracer, args, out):
    if out._parents:  # recorded on the tape, so backward will visit it
        tracer.counts[tracer.run, "tensor.matmul_frozen_operands"] += (
            (not args[0].requires_grad) + (not args[1].requires_grad))


def _count_tape(tracer, args):
    run = tracer.run
    tracer.counts[run, "tape.nodes"] += len(args[0].nodes)
    tracer.counts[run, "tape.backward_calls"] += 1


def _bytes_counter(key):
    def after(tracer, args):
        tracer.counts[tracer.run, key] += os.path.getsize(args[0])
    return after


SPAN_COUNTERS = {
    "svd": (_count_svd_input, None),
    "tape.backward": (_count_tape, None),
    "container.write": (None, _bytes_counter("container.bytes_written")),
    "container.read": (None, _bytes_counter("container.bytes_read")),
}


def install(tracer, patcher):
    """Wrap every layer function named above; returns the patch count."""
    import importlib

    tensor = importlib.import_module("lamda.tensor")
    for op in TENSOR_OPS:
        after = _count_frozen_operands if op == "matmul" else None
        patcher.wrap_function(tensor, op, tracer.leaf(op, after))
    for mod_name, fn_name, span in FUNCTION_SPANS:
        module = importlib.import_module(mod_name)
        patcher.wrap_function(module, fn_name, tracer.span(span, *SPAN_COUNTERS.get(span, (None, None))))
    for mod_name, cls_name, method, span in METHOD_SPANS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        patcher.wrap_attr(cls, method, tracer.span(span, *SPAN_COUNTERS.get(span, (None, None))))
    return patcher.patched


# ------------------------------------------------------------ span maths


def union_length(intervals, lo=None, hi=None):
    """Length of the union of (start, end) intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if lo is not None:
            start = max(start, lo)
        if hi is not None:
            end = min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    return [span[END] - span[START]
            - union_length(children[i], span[START], span[END])
            for i, span in enumerate(spans)]


def outermost(spans, names):
    """Indices of spans named in `names` with no ancestor also named in `names`."""
    names = set(names)
    picked = []
    for i, span in enumerate(spans):
        if span[NAME] not in names:
            continue
        parent = span[PARENT]
        while parent is not None and spans[parent][NAME] not in names:
            parent = spans[parent][PARENT]
        if parent is None:
            picked.append(i)
    return picked
