"""Adam trainer wiring the adapters, the freezing schedule, and the
per-step instrumentation (live trainable parameters, retained adapter
activations) together.
"""

import hashlib
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import allocator as _alloc
from . import freezing as _freeze
from .accounting import KINDS
from .adapter import AdapterConfig, build_adapter, build_lora
from .errors import ConfigError, NumericalError
from .model import ToyTransformer, ToyTransformerConfig
from .svd import svd_many
from .tasks import make_task
from .tensor import Tape, Tensor, get_float_mode

METHODS = ("full", "lora", "lamda", "lamda++")


@dataclass
class TrainRunConfig:
    method: str = "lamda"
    task: str = "copy"
    rank: int = 8
    budget_ranks: tuple[int, ...] = ()  # lamda++ candidate ranks
    budget_target: int = 0
    rank_plan: dict[str, int] = field(default_factory=dict)  # explicit module -> rank
    reverse_allocation: bool = False
    alpha: float = 1.0
    init_mode: str = "spectral_top"
    ti_fraction: float = 0.3
    total_steps: int = 2000
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 8
    seed: int = 0
    adapted_kinds: tuple[str, ...] = ("q", "k", "v", "ffn1", "ffn2")
    model: ToyTransformerConfig = field(default_factory=ToyTransformerConfig)

    def validate(self):
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        for kind in self.adapted_kinds:
            if kind not in KINDS:
                raise ConfigError(f"unknown adapted kind {kind!r}; expected one of {KINDS}")
        for key, low in (("total_steps", 1), ("batch_size", 1), ("seed", 0)):
            if getattr(self, key) < low:
                raise ConfigError(f"{key} must be >= {low}, got {getattr(self, key)}")
        for key in ("lr", "adam_eps", "alpha"):
            if not getattr(self, key) > 0:
                raise ConfigError(f"{key} must be > 0, got {getattr(self, key)}")
        for key in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, key) < 1.0:
                raise ConfigError(f"{key} must be in [0, 1), got {getattr(self, key)}")
        if not 0.0 <= self.ti_fraction <= 1.0:
            raise ConfigError(f"ti_fraction {self.ti_fraction} outside [0, 1]")
        # lora and lamda read `rank`; lamda++ reads its rank_plan, or else its
        # budget. A rank key that the run would not read is an error, not a
        # silent default.
        unread = () if self.rank_budget() else ("budget_ranks", "budget_target",
                                                "reverse_allocation")
        if self.method != "lamda++":
            unread = ("rank_plan",) + unread
        for key in unread:
            if getattr(self, key):
                raise ConfigError(f"{key} does nothing in a {self.method} run"
                                  + (" with a rank_plan" if self.method == "lamda++" else ""))

    def rank_budget(self):
        """The budget a lamda++ run without a rank_plan allocates its ranks from; else None."""
        if self.method != "lamda++" or self.rank_plan:
            return None
        if not self.budget_ranks:
            raise ConfigError("lamda++ needs budget_ranks/budget_target or rank_plan")
        return _alloc.RankBudget(ranks=tuple(self.budget_ranks), target=self.budget_target)

    def digest(self):
        doc = asdict(self)
        doc["float_mode"] = get_float_mode()
        blob = json.dumps(doc, sort_keys=True, default=list).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


class Adam:
    """Adam with row masking: only rows < live receive updates and keep
    moment buffers, so frozen rows stay bitwise untouched. A parameter
    added without `live_rows` has every row live.

    Slots of one shape and dtype form a group: their data and moments
    become views of one stacked buffer each, and a step updates the live
    rows of a group's members with one set of array operations. Each
    element sees the same IEEE operations in the same order as a
    slot-by-slot update, so the bits are the same. A parameter that is not
    finite after a step ends the run with a `NumericalError`.
    """

    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.slots = {}
        self._groups = None  # (names, slots, data, m, v) per shape; built by step()

    def add_param(self, name, tensor, live_rows=None):
        self.slots[name] = {
            "tensor": tensor,
            "live": tensor.data.shape[0] if live_rows is None else live_rows,
            "m": np.zeros_like(tensor.data),
            "v": np.zeros_like(tensor.data),
        }
        self._groups = None

    def _group(self):
        """Stack each shape's slots and rebind their arrays to views of the stacks."""
        names = {}
        for name, slot in self.slots.items():
            data = slot["tensor"].data
            names.setdefault((data.shape, data.dtype.str), []).append(name)
        self._groups = []
        for group in names.values():
            slots = [self.slots[name] for name in group]
            data = np.stack([slot["tensor"].data for slot in slots])
            m = np.stack([slot["m"] for slot in slots])
            v = np.stack([slot["v"] for slot in slots])
            for i, slot in enumerate(slots):
                slot["tensor"].data, slot["m"], slot["v"] = data[i], m[i], v[i]
            self._groups.append((group, slots, data, m, v))

    def set_live_rows(self, name, rows):
        slot = self.slots[name]
        slot["live"] = rows
        slot["m"][rows:] = 0.0  # dropped moments for frozen rows
        slot["v"][rows:] = 0.0
        slot["tensor"].requires_grad = rows > 0

    def live_scalars(self):
        total = 0
        for slot in self.slots.values():
            data = slot["tensor"].data
            total += slot["live"] * (data.size // data.shape[0])
        return total

    def step(self):
        if self._groups is None:
            self._group()
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for names, slots, data, m_all, v_all in self._groups:
            members = {}  # live rows -> indices of the members with a gradient
            for i, slot in enumerate(slots):
                if slot["tensor"].grad is not None and slot["live"] > 0:
                    members.setdefault(slot["live"], []).append(i)
            for live, idx in members.items():
                # Every member: views of the stacks; some: gathered copies.
                sel = slice(None) if len(idx) == len(slots) else idx
                g = np.stack([slots[i]["tensor"].grad[:live] for i in idx])
                m, v = m_all[sel, :live], v_all[sel, :live]
                # v += (1 - b2) * (g * g - v), m += (1 - b1) * (g - m) and
                # lr * (m / bc1) / (sqrt(v / bc2) + eps), each operation in
                # place on a fresh buffer (a * b and a + b commute exactly).
                # An overflow shows as a non-finite parameter, reported below.
                with np.errstate(over="ignore", invalid="ignore"):
                    buf = g * g
                    buf -= v
                    buf *= 1.0 - self.beta2
                    v += buf
                    g -= m
                    g *= 1.0 - self.beta1
                    m += g
                    np.divide(v, bc2, out=buf)
                    np.sqrt(buf, out=buf)
                    buf += self.eps
                    np.divide(m, bc1, out=g)
                    g *= self.lr
                    g /= buf
                    data[sel, :live] -= g
                if not isinstance(sel, slice):
                    m_all[sel, :live], v_all[sel, :live] = m, v
            if members and not np.isfinite(data).all():
                bad = next(name for name, x in zip(names, data) if not np.isfinite(x).all())
                raise NumericalError(f"parameter {bad} is not finite after Adam step "
                                     f"{self.t} (lr={self.lr})")

    def zero_grad(self):
        for slot in self.slots.values():
            slot["tensor"].grad = None


def count_retained_activations(tape):
    """Floats the backward pass must retain to update trainable parameters:
    the float arrays that tape nodes keep for the gradient of a trainable
    leaf (`Node._saved`; an embedding's integer ids are not floats). Every
    leaf on a run's tape is a parameter. Each array counts once."""
    retained = {}
    for node in tape.nodes:
        for sink, act in node._saved:
            if (act is not None and act.dtype.kind == "f" and isinstance(sink, Tensor)
                    and sink.requires_grad):
                retained[id(act)] = act.size
    return int(sum(retained.values()))


@dataclass
class TrainResult:
    config: TrainRunConfig
    metrics: list  # rows: (step, loss, live_params, retained_floats)
    model: ToyTransformer
    optimizer: Adam
    schedules: dict

    def loss_series(self):
        return [row[1] for row in self.metrics]


def build_run(cfg, backbone_weights=None):
    """Model, optimizer and freeze schedules for a run config.

    `full` trains every backbone tensor. Otherwise the backbone stays
    frozen and each adapted module gets an adapter: LoRA trains `a` and
    `b`; LaMDA trains the core `s` and the rows of `b` that its freeze
    schedule leaves live at step 0. Optimizer slots follow sorted module
    order, which is the checkpoint order.
    """
    cfg.validate()
    model = ToyTransformer(cfg.model, weights=backbone_weights, seed=cfg.seed)
    opt = Adam(cfg.lr, cfg.beta1, cfg.beta2, cfg.adam_eps)
    schedules = {}
    if cfg.method == "full":
        for name, t in model.params.items():
            t.requires_grad = True
            opt.add_param(name, t)
        return model, opt, schedules

    module_ids = model.linear_module_ids(cfg.adapted_kinds)
    weights = {m: model.params[m].data for m in module_ids}
    budget = cfg.rank_budget()  # a LaMDA++ budget ranks the modules by their spectra
    if cfg.rank_plan:  # only lamda++ has one
        missing = [m for m in module_ids if m not in cfg.rank_plan]
        extra = sorted(set(cfg.rank_plan) - set(module_ids))
        if missing:
            raise ConfigError(f"rank_plan misses modules: {missing}")
        if extra:
            raise ConfigError(f"rank_plan names modules that are not adapted: {extra}")
        ranks = {m: int(cfg.rank_plan[m]) for m in module_ids}
    elif not budget:
        ranks = {m: cfg.rank for m in module_ids}
    decompositions = {}
    if cfg.method != "lora":
        # Every rank must fit its weight before any SVD runs. A budget gives
        # each module one of its candidate ranks, so its largest is checked.
        for m, w in weights.items():
            AdapterConfig(rank=budget.ranks[-1] if budget else ranks[m], shape=w.shape,
                          alpha=cfg.alpha, init_mode=cfg.init_mode).validate()
        if budget or cfg.init_mode != "kaiming":
            # Spectral init and budget scoring share one SVD per weight.
            decompositions = svd_many(weights)
    if budget:
        scores = _alloc.score_modules(weights, budget, decompositions)
        ranks = _alloc.allocate(scores, budget, reverse=cfg.reverse_allocation).ranks
    ti = int(round(cfg.ti_fraction * cfg.total_steps))
    for i, module in enumerate(sorted(ranks)):
        w, r, seed = model.params[module].data, ranks[module], cfg.seed * 7919 + i
        if cfg.method == "lora":
            st = build_lora(w, r, alpha=cfg.alpha, seed=seed)
            opt.add_param(f"{module}.a", st.a)
            opt.add_param(f"{module}.b", st.b)
        else:
            acfg = AdapterConfig(rank=r, shape=w.shape, alpha=cfg.alpha, init_mode=cfg.init_mode)
            st = build_adapter(w, acfg, seed=seed, dec=decompositions.get(module))
            schedules[module] = _freeze.FreezeSchedule(
                rank=r, freeze_iters=ti, total_iters=cfg.total_steps)
            rows = _freeze.trainable_rows(schedules[module], 0)
            if rows != r:
                st.set_trainable_rows(rows)
            opt.add_param(f"{module}.s", st.s)
            opt.add_param(f"{module}.b", st.b, live_rows=rows)
        model.adapters[module] = st
    return model, opt, schedules


def eval_loss(model, task_id, cfg, batches=4, seed=10_000):
    """Mean loss on freshly drawn eval batches; no graph is recorded."""
    task = make_task(task_id, cfg.model.vocab, cfg.model.context, seed=seed)
    losses = []
    for _ in range(batches):
        inputs, targets = task.batch(cfg.batch_size)
        losses.append(float(model.loss(inputs, targets).data))
    return float(np.mean(losses))


def train(cfg, backbone_weights=None, metrics_hook=None):
    """Run fine-tuning (or full training); returns per-step metrics and state.

    Metrics rows are (step, loss, live_trainable_params, retained_floats).
    Aborts with a diagnostic if the loss goes non-finite. A step's graph
    (its tape, loss and every array a backward reads) is dropped once its
    retained floats are counted, before the optimizer update, so one step's
    graph at most is alive at a time.
    """
    model, opt, schedules = build_run(cfg, backbone_weights)
    task = make_task(cfg.task, cfg.model.vocab, cfg.model.context, seed=cfg.seed + 1)
    metrics = []

    for t in range(cfg.total_steps):
        for module, sched in schedules.items():
            rows = _freeze.trainable_rows(sched, t)
            st = model.adapters[module]
            if rows != st.trainable_rows:
                st.set_trainable_rows(rows)
                opt.set_live_rows(f"{module}.b", rows)

        inputs, targets = task.batch(cfg.batch_size)
        with Tape() as tape:
            loss = model.loss(inputs, targets)
            loss_val = float(loss.data)
            if not np.isfinite(loss_val):
                raise NumericalError(
                    f"loss diverged at step {t} (method={cfg.method}, "
                    f"task={cfg.task}, lr={cfg.lr})"
                )
            tape.backward(loss)
        retained = count_retained_activations(tape)
        del loss, tape  # step t's graph goes before the update and step t+1
        opt.step()
        opt.zero_grad()
        row = (t, loss_val, opt.live_scalars(), retained)
        metrics.append(row)
        if metrics_hook is not None:
            metrics_hook(row)

    return TrainResult(
        config=cfg, metrics=metrics, model=model, optimizer=opt, schedules=schedules
    )


def pretrain_backbone(model_cfg, task_id="copy", steps=1500, lr=3e-3,
                      batch_size=16, seed=0):
    """Seeded full-parameter pre-training run; returns the backbone weights."""
    cfg = TrainRunConfig(
        method="full", task=task_id, total_steps=steps, lr=lr,
        batch_size=batch_size, seed=seed, model=model_cfg,
    )
    result = train(cfg)
    return result.model.weights()
