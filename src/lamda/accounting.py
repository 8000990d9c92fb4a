"""Analytical cost model: trainable/effective parameter counts, optimizer
state, gradient memory, and stored-activation footprints for LoRA vs. the
low-dimensional adapter, as pure functions of a model spec.

The effective count under gradual freezing is, per module,
    (t_i / T) * (r * d_out) / 2  +  r^2
i.e. the time average of the linearly shrinking trainable up-projection
plus the always-trainable core.
"""

import json
from dataclasses import dataclass, field
from importlib import resources

from .config import from_json
from .errors import ConfigError
from .svd import check_rank

# The adapted linear modules of one transformer layer, in the order the toy
# model draws their weights.
KINDS = ("q", "k", "v", "o", "ffn1", "ffn2")


def kind_shape(kind, d_model, ffn_dim):
    """(d_in, d_out) of a module of `kind`: d x d in attention, d x f and f x d in the FFN."""
    if kind == "ffn1":
        return d_model, ffn_dim
    if kind == "ffn2":
        return ffn_dim, d_model
    if kind in KINDS:
        return d_model, d_model
    raise ConfigError(f"unknown module kind {kind!r}")


@dataclass
class ModelSpec:
    name: str
    layers: int
    d_model: int
    ffn_dim: int
    adapted_kinds: tuple[str, ...]
    seq_len: int = 1024
    batch: int = 1
    bytes_per_scalar: int = 4

    def __post_init__(self):
        if not self.adapted_kinds:
            raise ConfigError("adapted_kinds must be non-empty")
        for k in self.adapted_kinds:
            if k not in KINDS:
                raise ConfigError(f"unknown module kind {k!r}")
        for v in (self.layers, self.d_model, self.ffn_dim, self.seq_len, self.batch):
            if v <= 0:
                raise ConfigError("model spec dimensions must be positive")

    def modules(self):
        """(module id, (d_in, d_out)) for every adapted linear module."""
        for layer in range(self.layers):
            for kind in self.adapted_kinds:
                yield f"L{layer}.{kind}", kind_shape(kind, self.d_model, self.ffn_dim)


def load_preset(name):
    try:
        text = resources.files("lamda.presets").joinpath(f"{name}.json").read_text()
    except FileNotFoundError:
        raise ConfigError(f"unknown model preset {name!r}") from None
    return from_json(ModelSpec, json.loads(text), f"preset {name!r}")


def list_presets():
    return sorted(
        p.name[:-5]
        for p in resources.files("lamda.presets").iterdir()
        if p.name.endswith(".json")
    )


@dataclass
class CostReport:
    method: str
    trainable_params: float  # steady-state trainable scalar count
    effective_params: float  # time-averaged count under gradual freezing
    optimizer_state_bytes: float
    gradient_bytes: float
    activation_floats: dict  # line item -> floats stored per step
    per_module: list = field(default_factory=list)

    def csv_rows(self):
        header = ["module", "trainable_params", "effective_params", "activation_floats"]
        rows = [header]
        for m in self.per_module:
            rows.append([m["module"], m["trainable_params"], m["effective_params"],
                         m["activation_floats"]])
        rows.append(["TOTAL", self.trainable_params, self.effective_params,
                     sum(self.activation_floats.values())])
        return rows


def _module_rank(ranks, module, d_in, d_out):
    """`module`'s rank from one int or a {module id: rank} map, checked to
    fit its d_in x d_out weight."""
    if isinstance(ranks, dict):
        if module not in ranks:
            raise ConfigError(f"no rank assigned for module {module!r}")
        ranks = ranks[module]
    return check_rank(ranks, (d_in, d_out), module)


def count_lora(spec, rank):
    """LoRA: both projections trainable. `adapter_input` is the per-module
    closed form, the b*n*d_in-float input of every module. The engine keeps
    q, k and v's shared input once, plus each module's r-wide `x @ a`.
    """
    per_module = []
    total = 0
    act = 0
    for module, (d_in, d_out) in spec.modules():
        p = (d_in + d_out) * _module_rank(rank, module, d_in, d_out)
        a = spec.batch * spec.seq_len * d_in
        per_module.append(
            {"module": module, "trainable_params": p, "effective_params": p,
             "activation_floats": a}
        )
        total += p
        act += a
    return CostReport(
        method="lora",
        trainable_params=float(total),
        effective_params=float(total),
        optimizer_state_bytes=optimizer_state_bytes(total, spec.bytes_per_scalar),
        gradient_bytes=float(total) * spec.bytes_per_scalar,
        activation_floats={"adapter_input": float(act)},
        per_module=per_module,
    )


def count_lamda_effective(spec, ranks, ti_fraction):
    """Effective (time-averaged) counts under gradual up-projection freezing.

    `ranks` is a single int or a {module id: rank} map. Steady-state
    fields (trainable params, optimizer, gradient) describe the post-
    freeze regime where only the r x r cores remain live.
    """
    if not 0.0 <= ti_fraction <= 1.0:
        raise ConfigError(f"ti_fraction {ti_fraction} outside [0, 1]")
    per_module = []
    steady = 0
    effective = 0.0
    act_core = 0.0
    for module, (d_in, d_out) in spec.modules():
        r = _module_rank(ranks, module, d_in, d_out)
        core = r * r
        eff = ti_fraction * (r * d_out) / 2.0 + core
        a_core = spec.batch * spec.seq_len * r
        per_module.append(
            {"module": module, "rank": r, "trainable_params": core,
             "effective_params": eff, "activation_floats": a_core}
        )
        steady += core
        effective += eff
        act_core += a_core
    report = CostReport(
        method="lamda",
        trainable_params=float(steady),
        effective_params=effective,
        optimizer_state_bytes=optimizer_state_bytes(steady, spec.bytes_per_scalar),
        gradient_bytes=float(steady) * spec.bytes_per_scalar,
        activation_floats={"adapter_core_input": act_core},
        per_module=per_module,
    )
    if ti_fraction > 0:  # a second r-wide intermediate per module while rows are live
        report.activation_floats["up_projection_input_while_trainable"] = act_core
    return report


def activation_footprint(spec, method, ranks, include_trainable_up=False):
    """Floats stored per step for the adapter paths: the `activation_floats`
    of `count_lora` or of `count_lamda_effective`.

    LoRA retains the d_in-wide input per module; the low-dimensional
    adapter retains one r-wide intermediate per module (plus a second
    r-wide one while up-projection rows are still trainable).
    """
    method = method.lower()
    if method == "lora":
        return count_lora(spec, ranks).activation_floats
    if method != "lamda":
        raise ConfigError(f"method must be 'lora' or 'lamda', got {method!r}")
    ti_fraction = 1.0 if include_trainable_up else 0.0
    return count_lamda_effective(spec, ranks, ti_fraction).activation_floats


def optimizer_state_bytes(live_trainable_params, bytes_per_scalar=4):
    """Adam: two moment buffers per live trainable scalar."""
    return 2.0 * live_trainable_params * bytes_per_scalar


def live_trainable_params(spec, ranks, rows_by_module):
    """Live trainable scalars mid-schedule: core + still-trainable up rows."""
    total = 0
    for module, (d_in, d_out) in spec.modules():
        r = _module_rank(ranks, module, d_in, d_out)
        rows = rows_by_module[module] if isinstance(rows_by_module, dict) else rows_by_module
        total += r * r + rows * d_out
    return total
