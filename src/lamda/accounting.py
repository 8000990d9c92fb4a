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
    """(d_in, d_out) of a module of a known `kind`: d x d in attention, d x f
    and f x d in the FFN."""
    return {"ffn1": (d_model, ffn_dim), "ffn2": (ffn_dim, d_model)}.get(kind, (d_model, d_model))


def check_kinds(kinds):
    """The one check of a spec's or a run's adapted kinds: at least one,
    each in KINDS, none listed twice."""
    if not kinds:
        raise ConfigError("adapted_kinds must be non-empty")
    for i, kind in enumerate(kinds):
        if kind not in KINDS:
            raise ConfigError(f"unknown adapted kind {kind!r}; expected one of {KINDS}")
        if kind in kinds[:i]:
            raise ConfigError(f"adapted kind {kind!r} is listed twice")


def check_ti_fraction(ti_fraction):
    """The one check of a freeze horizon, as a fraction of the run: [0, 1]."""
    if not 0.0 <= ti_fraction <= 1.0:
        raise ConfigError(f"ti_fraction {ti_fraction} outside [0, 1]")


def module_ranks(shapes, ranks):
    """{module: rank} for a {module id: (d_in, d_out)} map and one rank setting,
    an int or a {module id: rank} map: the one rank-map check. A map missing
    modules (naming all), then one naming modules `shapes` lacks, then a rank
    that does not fit its module (`svd.check_rank`) is a ConfigError."""
    if not isinstance(ranks, dict):
        ranks = dict.fromkeys(shapes, ranks)
    missing = [m for m in shapes if m not in ranks]
    if missing:
        raise ConfigError(f"no rank assigned: rank_plan misses modules {missing}")
    extra = sorted(set(ranks) - set(shapes))
    if extra:
        raise ConfigError(f"rank_plan names modules that are not adapted: {extra}")
    return {m: check_rank(ranks[m], shape, m) for m, shape in shapes.items()}


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
        check_kinds(self.adapted_kinds)
        for v in (self.layers, self.d_model, self.ffn_dim, self.seq_len, self.batch):
            if v <= 0:
                raise ConfigError("model spec dimensions must be positive")

    def modules(self):
        """(module id, (d_in, d_out)) for every adapted linear module."""
        for layer in range(self.layers):
            for kind in self.adapted_kinds:
                yield f"L{layer}.{kind}", kind_shape(kind, self.d_model, self.ffn_dim)


def load_preset(name):
    """The bundled preset `name`, one of `list_presets()`; any other name,
    a path among them, is an unknown preset."""
    if name not in list_presets():
        raise ConfigError(f"unknown model preset {name!r}")
    text = resources.files("lamda.presets").joinpath(f"{name}.json").read_text()
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


def _ranked(spec, ranks):
    """(module, d_in, d_out, r) for every adapted module of `spec`, in order:
    the one walk over the modules, with `ranks` checked by `module_ranks`."""
    shapes = dict(spec.modules())
    for module, r in module_ranks(shapes, ranks).items():
        yield module, *shapes[module], r


def _report(method, spec, ranks, activation_key, row):
    """The CostReport summed, in module order, from one per-module table:
    `row(d_in, d_out, r)` gives a module's trainable, effective and stored
    activation counts, the last summed under `activation_key`."""
    per_module = [{"module": module, **row(d_in, d_out, r)}
                  for module, d_in, d_out, r in _ranked(spec, ranks)]
    trainable = float(sum(m["trainable_params"] for m in per_module))
    return CostReport(
        method=method,
        trainable_params=trainable,
        effective_params=float(sum(m["effective_params"] for m in per_module)),
        optimizer_state_bytes=optimizer_state_bytes(trainable, spec.bytes_per_scalar),
        gradient_bytes=trainable * spec.bytes_per_scalar,
        activation_floats={activation_key: float(sum(m["activation_floats"]
                                                     for m in per_module))},
        per_module=per_module,
    )


def count_lora(spec, rank):
    """LoRA: both projections trainable. `adapter_input` is the per-module
    closed form, the b*n*d_in-float input of every module. The engine keeps
    q, k and v's shared input once, plus each module's r-wide `x @ a`.
    """
    def row(d_in, d_out, r):
        p = (d_in + d_out) * r
        return {"trainable_params": p, "effective_params": p,
                "activation_floats": spec.batch * spec.seq_len * d_in}

    return _report("lora", spec, rank, "adapter_input", row)


def count_lamda_effective(spec, ranks, ti_fraction):
    """Effective (time-averaged) counts under gradual up-projection freezing.

    `ranks` is a single int or a {module id: rank} map. Steady-state
    fields (trainable params, optimizer, gradient) describe the post-
    freeze regime where only the r x r cores remain live.
    """
    check_ti_fraction(ti_fraction)

    def row(d_in, d_out, r):
        return {"rank": r, "trainable_params": r * r,
                "effective_params": ti_fraction * (r * d_out) / 2.0 + r * r,
                "activation_floats": spec.batch * spec.seq_len * r}

    report = _report("lamda", spec, ranks, "adapter_core_input", row)
    floats = report.activation_floats
    if ti_fraction > 0:  # a second r-wide intermediate per module while rows are live
        floats["up_projection_input_while_trainable"] = floats["adapter_core_input"]
    return report


def cost_report(spec, method, ranks, ti_fraction):
    """The report of `method` ('lora' or 'lamda', in any case): the one
    dispatch from a method name to a report. `ti_fraction` must lie in
    [0, 1] for both methods, though LoRA freezes nothing and does not read it."""
    method = method.lower()
    if method not in ("lora", "lamda"):
        raise ConfigError(f"method must be 'lora' or 'lamda', got {method!r}")
    check_ti_fraction(ti_fraction)
    if method == "lora":
        return count_lora(spec, ranks)
    return count_lamda_effective(spec, ranks, ti_fraction)


def activation_footprint(spec, method, ranks):
    """Floats stored per step for the adapter paths once every up-projection
    row is frozen: the `activation_floats` of the report at t_i = 0.

    LoRA retains the d_in-wide input per module; the low-dimensional
    adapter retains one r-wide intermediate per module.
    """
    return cost_report(spec, method, ranks, 0.0).activation_floats


def optimizer_state_bytes(live_trainable_params, bytes_per_scalar=4):
    """Adam: two moment buffers per live trainable scalar."""
    return 2.0 * live_trainable_params * bytes_per_scalar


def live_trainable_params(spec, ranks, rows_by_module):
    """Live trainable scalars mid-schedule: core + still-trainable up rows,
    from a {module id: rows} map."""
    return sum(r * r + rows_by_module[module] * d_out
               for module, _, d_out, r in _ranked(spec, ranks))
