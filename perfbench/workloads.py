"""The benchmark workloads: seeded inputs, one timed operation, output checks.

A workload's operation is what a user waits for: a fine-tune plus the
checkpoint and backbone save of `lamda finetune`, or `lamda analyze`,
`lamda plan` and `lamda count` on a weight container. Every operation is
timed from its start to the end of its last write, and its unit of work
(a training step, or one module's SVD) is timed as well.
"""

import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from lamda import accounting, cli, container, freezing
from lamda.model import ToyTransformer, ToyTransformerConfig
from lamda.train import TrainRunConfig, eval_loss, pretrain_backbone, train

from tracer import Patcher

TOY_MODEL = dict(layers=2, d_model=64, heads=4, ffn_dim=256, vocab=32, context=16)
# The analyze workload's budget, count settings and eval task.
ANALYZE_RUN = dict(method="lamda++", task="modsum", budget_ranks=(4, 8, 12), budget_target=8,
                   ti_fraction=0.3, batch_size=16)
SIGMA_RTOL = 1e-10  # analyze vs np.linalg.svd, relative to the largest sigma


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


@dataclass
class OpRecord:
    """One operation's timings, laid out the same way in every operation.

    `phases` are consecutive and add up to the operation's wall time: first
    the set-up phases, then the steady-state phases `phases[steady]`, then
    the finish (the saves of a fine-tune; scores, `plan` and `count` after
    the SVDs of `analyze`). `unit_s` times each unit of work (a training
    step, or one module's SVD) in a fixed order.
    """
    start: float
    end: float
    phases: list
    steady: slice
    unit_s: list
    marks: list = field(default_factory=list)  # fine-tune: end of each step
    output: object = None
    run: object = None  # the tracer's run id of this operation

    @property
    def run_s(self):
        return self.end - self.start

    @property
    def setup_s(self):
        return sum(self.phases[:self.steady.start])

    @property
    def units_per_s(self):
        return len(self.unit_s) / sum(self.phases[self.steady])


def probe_calls(patcher, owner, name, calls):
    """Wrap `owner.name` to append (start, end, first argument, result) per call."""
    def make(fn):
        def wrapper(arg, *args, **kwargs):
            t0 = time.perf_counter()
            out = fn(arg, *args, **kwargs)
            calls.append((t0, time.perf_counter(), arg, out))
            return out
        return wrapper
    patcher.wrap_attr(owner, name, make)


@dataclass
class Inputs:
    workdir: str
    cfg: TrainRunConfig
    backbone: dict
    extra: dict = field(default_factory=dict)


def _bitwise_equal(a, b):
    return set(a) == set(b) and all(
        np.asarray(a[k]).dtype == np.asarray(b[k]).dtype
        and np.asarray(a[k]).shape == np.asarray(b[k]).shape
        and np.asarray(a[k]).tobytes() == np.asarray(b[k]).tobytes() for k in a)


# ------------------------------------------------------------- fine-tune


class Finetune:
    def __init__(self, name, model, run, pretrain):
        self.name = name
        self.model = model
        self.run = run
        self.pretrain = pretrain  # pretrain_backbone kwargs

    def prepare(self, seed, workdir):
        model_cfg = ToyTransformerConfig(**self.model)
        cfg = TrainRunConfig(seed=seed, model=model_cfg, **self.run)
        return Inputs(workdir, cfg, pretrain_backbone(model_cfg, **self.pretrain))

    def setup_samples(self, inp):
        return []  # every operation gives one

    def run_op(self, inp, index, on_step=None):
        out_dir = os.path.join(inp.workdir, f"op{index}")
        os.makedirs(out_dir, exist_ok=True)
        backbone = {name: w.copy() for name, w in inp.backbone.items()}
        marks = []

        def hook(_row):
            marks.append(time.perf_counter())
            if on_step is not None:
                on_step()

        calls = []  # the spectral inits' SVDs split the set-up into short phases
        patcher = Patcher()
        probe_calls(patcher, sys.modules["lamda.svd"], "svd", calls)
        try:
            start = time.perf_counter()
            result = train(inp.cfg, backbone_weights=backbone, metrics_hook=hook)
            tensors, meta = container.checkpoint_from_result(result)
            container.save_checkpoint(os.path.join(out_dir, "checkpoint.ldck"), tensors, meta)
            weights = result.model.weights()
            container.write_weights(os.path.join(out_dir, "backbone.ldwt"), weights)
            end = time.perf_counter()
        finally:
            patcher.restore()
        edges = [start, *[t for c in calls for t in c[:2]], *marks, end]
        require(edges == sorted(edges), "an SVD ran after the first training step")
        return OpRecord(start=start, end=end, phases=list(np.diff(edges)),
                        steady=slice(2 * len(calls) + 1, -1), unit_s=list(np.diff(marks)),
                        marks=marks, output=(out_dir, result, tensors, meta, weights))

    def check(self, inp, rec):
        out_dir, result, tensors, meta, weights = rec.output
        cfg = inp.cfg
        rows = result.metrics
        require(len(rows) == cfg.total_steps, f"{len(rows)} metric rows for {cfg.total_steps} steps")
        require(all(math.isfinite(row[1]) for row in rows), "non-finite training loss")

        spec = self.model_spec(cfg)
        ranks = {m: st.config.rank for m, st in result.model.adapters.items()}
        report = accounting.count_lamda_effective(spec, ranks, cfg.ti_fraction)
        act = {m["module"]: m["activation_floats"] for m in report.per_module}
        for t, loss, live, retained in rows:
            live_rows = {m: freezing.trainable_rows(result.schedules[m], t) for m in ranks}
            want = sum(act[m] * (2 if live_rows[m] else 1) for m in ranks)
            require(retained == want, f"step {t}: {retained} retained floats, closed form {want}")
            want = accounting.live_trainable_params(spec, ranks, live_rows)
            require(live == want, f"step {t}: {live} live params, closed form {want}")
        require(rows[-1][3] == report.activation_floats["adapter_core_input"],
                "retained floats after the freeze horizon differ from b*n*r per module")
        # The schedule rounds each step's row count, so its mean matches the
        # time-averaged closed form to within one step in t_i.
        horizon = max(sched.freeze_iters for sched in result.schedules.values())
        live_mean = float(np.mean([row[2] for row in rows]))
        rel = abs(live_mean - report.effective_params) / report.effective_params
        require(rel <= 1.0 / horizon,
                f"live params mean {live_mean} vs effective {report.effective_params} (rel {rel:.2e})")

        back, back_meta = container.load_checkpoint(os.path.join(out_dir, "checkpoint.ldck"))
        require(back_meta == meta and _bitwise_equal(back, tensors),
                "checkpoint does not read back bitwise")
        back = container.read_weights(os.path.join(out_dir, "backbone.ldwt"))
        require(_bitwise_equal(back, weights), "backbone container does not read back bitwise")
        loss = eval_loss(result.model, cfg.task, cfg)
        require(math.isfinite(loss), "non-finite eval loss")
        rec.output = (rows, loss)  # the model goes, so memory does not grow with the run

    def model_spec(self, cfg):
        m = cfg.model
        return accounting.ModelSpec(name=self.name, layers=m.layers, d_model=m.d_model,
                                    ffn_dim=m.ffn_dim, adapted_kinds=cfg.adapted_kinds,
                                    seq_len=m.context, batch=cfg.batch_size)

    def check_repeats(self, records):
        require(all(rec.output == records[0].output for rec in records),
                "repeated runs gave different losses")

    def eval_loss(self, inp, records):
        return records[-1].output[1]


# --------------------------------------------------------------- analyze


class _SetupReached(Exception):
    pass


class Analyze:
    layer = 0
    kinds = ("q", "k", "v", "o", "ffn1", "ffn2")
    setup_repeats = 30

    def prepare(self, seed, workdir):
        model_cfg = ToyTransformerConfig(**TOY_MODEL)
        cfg = TrainRunConfig(seed=seed, model=model_cfg, **ANALYZE_RUN)
        weights = ToyTransformer(model_cfg, seed=seed).weights()
        path = os.path.join(workdir, "backbone.ldwt")
        container.write_weights(path, weights)
        require(_bitwise_equal(container.read_weights(path), weights),
                "weight container does not read back bitwise")
        budget = os.path.join(workdir, "budget.json")
        with open(budget, "w", encoding="utf-8") as fh:
            json.dump({"ranks": list(cfg.budget_ranks), "target": cfg.budget_target}, fh)
        modules = [f"L{self.layer}.{k}" for k in self.kinds]
        oracle = {m: np.linalg.svd(np.asarray(weights[m], dtype=np.float64), compute_uv=False)
                  for m in modules}
        return Inputs(workdir, cfg, weights,
                      extra=dict(path=path, budget=budget, modules=modules, oracle=oracle))

    def _analyze_argv(self, inp, out_dir):
        cfg = inp.cfg
        return ["analyze", "--weights", inp.extra["path"],
                "--ranks", ",".join(map(str, cfg.budget_ranks)),
                "--target", str(cfg.budget_target),
                "--modules", ",".join(inp.extra["modules"]),
                "--scores-out", os.path.join(out_dir, "scores.json"),
                "--energy-csv", os.path.join(out_dir, "energy.csv")]

    def setup_samples(self, inp):
        """Time `lamda analyze` up to its first SVD call, several times.

        A probe on the CLI's `svd` binding stops each run at that call, so
        a sample costs only the set-up itself. The first is a warm-up.
        """
        out_dir = os.path.join(inp.workdir, "setup")
        os.makedirs(out_dir, exist_ok=True)
        argv = self._analyze_argv(inp, out_dir)
        samples = []
        for _ in range(self.setup_repeats + 1):
            reached = []

            def stop(_fn):
                def wrapper(*_args, **_kwargs):
                    reached.append(time.perf_counter())
                    raise _SetupReached
                return wrapper

            patcher = Patcher()
            patcher.wrap_attr(cli, "svd", stop)
            start = time.perf_counter()
            try:
                cli.main(argv)
            except _SetupReached:
                pass
            finally:
                patcher.restore()
            require(reached, "lamda analyze finished without calling svd")
            samples.append(min(reached) - start)
        return samples[1:]

    def run_op(self, inp, index, on_step=None):
        out_dir = os.path.join(inp.workdir, f"op{index}")
        os.makedirs(out_dir, exist_ok=True)
        calls = []  # (start, end, input, decomposition), appended from the pool's threads
        cfg = inp.cfg
        argvs = [
            self._analyze_argv(inp, out_dir),
            ["plan", "--scores", os.path.join(out_dir, "scores.json"),
             "--budget", inp.extra["budget"], "--out", os.path.join(out_dir, "plan.json")],
            ["count", "--model-preset", "llama2-7b", "--method", "lamda",
             "--rank", str(cfg.budget_target), "--ti", str(cfg.ti_fraction),
             "--json", os.path.join(out_dir, "count.json")],
        ]
        patcher = Patcher()
        probe_calls(patcher, cli, "svd", calls)
        try:
            start = time.perf_counter()
            codes = [cli.main(argv) for argv in argvs]
            end = time.perf_counter()
        finally:
            patcher.restore()
        for argv, code in zip(argvs, codes):
            require(code == 0, f"lamda {argv[0]} exited with {code}")
        require(len(calls) == len(inp.extra["modules"]),
                f"lamda analyze made {len(calls)} SVD calls")
        # The pool runs the calls at once; order them by module, as listed.
        calls.sort(key=lambda c: self._module_of(inp, c[2]))
        first, last = min(c[0] for c in calls), max(c[1] for c in calls)
        return OpRecord(start=start, end=end, phases=[first - start, last - first, end - last],
                        steady=slice(1, 2), unit_s=[c[1] - c[0] for c in calls],
                        output=(out_dir, calls))

    def _module_of(self, inp, w):
        match = [i for i, m in enumerate(inp.extra["modules"])
                 if np.array_equal(w, inp.backbone[m])]
        require(len(match) == 1, "an SVD input matches no analysed module")
        return match[0]

    def check(self, inp, rec):
        out_dir, calls = rec.output
        cfg, modules, oracle = inp.cfg, inp.extra["modules"], inp.extra["oracle"]
        seen = []
        for _, _, w, dec in calls:
            sigma = dec.sigma
            match = [m for m in modules if np.array_equal(w, inp.backbone[m])]
            require(len(match) == 1, "an SVD input matches no analysed module")
            want = oracle[match[0]]
            err = np.max(np.abs(sigma - want)) / want[0]
            require(err <= SIGMA_RTOL, f"{match[0]}: sigma off np.linalg.svd by {err:.2e} (rel)")
            seen.append(match[0])
        require(sorted(seen) == sorted(modules), f"SVD calls cover {sorted(seen)}")

        def energy(m, r):
            return float(np.sum(oracle[m][:r] ** 2))

        def close(got, want):
            return abs(got - want) <= SIGMA_RTOL * abs(want)

        with open(os.path.join(out_dir, "scores.json"), encoding="utf-8") as fh:
            scores = {s["module"]: s for s in json.load(fh)["modules"]}
        require(sorted(scores) == sorted(modules), "scores cover the wrong modules")
        lo, hi, target = cfg.budget_ranks[0], cfg.budget_ranks[-1], cfg.budget_target
        for m, s in scores.items():
            require(close(s["e_lo"], energy(m, lo)) and close(s["e_hi"], energy(m, hi))
                    and close(s["e_target"], energy(m, target)),
                    f"{m}: energies differ from np.linalg.svd")
        with open(os.path.join(out_dir, "energy.csv"), newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        require(len(rows) == len(modules) * 32, f"{len(rows)} energy rows")
        for row in rows:
            m, r = row["module"], int(row["rank"])
            want = energy(m, r) / energy(m, len(oracle[m]))
            require(close(float(row["energy_ratio"]), want), f"{m} rank {r}: energy ratio")
        with open(os.path.join(out_dir, "plan.json"), encoding="utf-8") as fh:
            plan = json.load(fh)
        require(sorted(plan["ranks"]) == sorted(modules)
                and set(plan["ranks"].values()) <= set(cfg.budget_ranks)
                and plan["mean_rank"] == target, f"bad rank plan {plan}")
        with open(os.path.join(out_dir, "count.json"), encoding="utf-8") as fh:
            count = json.load(fh)
        require(count["method"] == "lamda" and count["effective_params"] > 0,
                "bad count report")

        rec.output = None

    def check_repeats(self, records):
        """Each analysis is checked against the oracle on its own."""

    def eval_loss(self, inp, records):
        """Eval loss of the backbone read back from the analysed container."""
        weights = container.read_weights(inp.extra["path"])
        loss = eval_loss(ToyTransformer(inp.cfg.model, weights=weights), inp.cfg.task, inp.cfg)
        require(math.isfinite(loss), "non-finite eval loss")
        return loss

    def serial_svd_s(self, inp):
        """The same SVDs as one analyze operation, run one after another."""
        from lamda.svd import svd

        weights = container.read_weights(inp.extra["path"])
        total = 0.0
        for m in inp.extra["modules"]:
            t0 = time.perf_counter()
            svd(weights[m])
            total += time.perf_counter() - t0
        return total


WORKLOADS = {
    "finetune-toy-lamda": Finetune(
        "finetune-toy-lamda", TOY_MODEL,
        dict(method="lamda", task="reverse", rank=8, init_mode="spectral_top",
             ti_fraction=0.3, total_steps=120, lr=3e-4, batch_size=8),
        # A fixed pre-trained model, so the seed varies only the fine-tuning
        # data; the low rate keeps eval_loss from hinging on the seed.
        pretrain=dict(task_id="copy", steps=100, lr=3e-3, batch_size=16, seed=0)),
    "analyze-plan-count": Analyze(),
}
