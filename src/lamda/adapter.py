"""Adapted linear layers.

AdapterState is the low-dimensional adapter: a frozen residual main path,
a frozen down-projection `a`, a trainable r x r core `s`, and a row-wise
freezable up-projection `b`, so `y = x @ w_res + alpha * ((x @ a) @ s) @ b`.
LoraState is the plain LoRA baseline, `y = x @ w + alpha * (x @ a) @ b`.
Both forwards are one `tensor.adapted_linear` tape node, which keeps only
the r-wide activations (and, for LoRA's trainable `a`, the input) that
their gradients read.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import svd as _svd
from .errors import ConfigError
from .tensor import Tensor, adapted_linear
# Unused here; perfbench's self-test checks that its tracer also wraps this
# module's binding of `matmul`.
from .tensor import matmul  # noqa: F401

INIT_MODES = ("spectral_top", "spectral_tail", "kaiming")


@dataclass
class AdapterConfig:
    rank: int
    shape: tuple  # (d_in, d_out)
    alpha: float = 1.0  # 1.0 keeps spectral init an exact reconstruction
    init_mode: str = "spectral_top"

    def __post_init__(self):
        _svd.check_rank(self.rank, self.shape)
        if self.init_mode not in INIT_MODES:
            raise ConfigError(f"init_mode must be one of {INIT_MODES}")


@dataclass
class AdapterState:
    w_res: Tensor  # frozen residual main path, d_in x d_out
    a: Tensor  # frozen down projection, d_in x r
    s: Tensor  # trainable core, r x r
    b: Tensor  # up projection, r x d_out; rows >= trainable_rows are frozen
    trainable_rows: int
    config: AdapterConfig

    def forward(self, x):
        """y = x @ w_res + alpha * ((x @ a) @ s) @ b.

        The association order matters: the only adapter-path intermediates
        the tape retains are (x @ a) and ((x @ a) @ s), both of width r.
        """
        return adapted_linear(x, self.w_res, self.a, self.s, self.b, self.config.alpha)

    def tensors(self):
        """The adapter's tensors by name, in checkpoint order."""
        return {"w_res": self.w_res, "a": self.a, "s": self.s, "b": self.b}

    def set_trainable_rows(self, rows):
        if not 0 <= rows <= self.config.rank:
            raise ConfigError(f"trainable_rows {rows} out of [0, {self.config.rank}]")
        self.trainable_rows = rows
        self.b.requires_grad = rows > 0

    def merged_weight(self):
        """Dense equivalent w_res + alpha * a @ s @ b (reference/reporting only)."""
        return self.w_res.data + self.config.alpha * (self.a.data @ self.s.data @ self.b.data)


@dataclass
class LoraState:
    w: Tensor  # frozen
    a: Tensor  # trainable, kaiming-normal init
    b: Tensor  # trainable, zero init => exact identity at construction
    alpha: float = 1.0

    def forward(self, x):
        return adapted_linear(x, self.w, self.a, None, self.b, self.alpha)

    def tensors(self):
        """The adapter's tensors by name, in checkpoint order."""
        return {"a": self.a, "b": self.b, "w": self.w}


def kaiming_normal(rng, fan_in, shape):
    """He-normal for rectified units: std = sqrt(2 / fan_in), seeded."""
    return rng.normal(0.0, math.sqrt(2.0 / fan_in), size=shape)


def build_adapter(w, cfg, seed=0, dec=None):
    """Construct an AdapterState from a pre-trained weight matrix.

    `dec`, if given, is `svd(w)` already computed; spectral init then uses it
    instead of decomposing `w` again.
    """
    w = np.asarray(w)
    if w.shape != tuple(cfg.shape):
        raise ConfigError(f"weight shape {w.shape} != configured {cfg.shape}")
    r = cfg.rank

    if cfg.init_mode == "kaiming":
        rng = np.random.default_rng(seed)
        a = kaiming_normal(rng, w.shape[0], (w.shape[0], r))
        b = kaiming_normal(rng, r, (r, w.shape[1]))
        s = np.zeros((r, r))  # zero core kills the adapter path at init
        w_res = w
    else:
        if dec is None:
            dec = _svd.svd(w)
        split = (
            _svd.split_spectrum(dec, r)
            if cfg.init_mode == "spectral_top"
            else _svd.split_spectrum_tail(dec, r)
        )
        a, b, w_res = split.a, split.b, split.w_res
        s = np.eye(r)

    return AdapterState(
        w_res=Tensor(w_res, name="w_res"),
        a=Tensor(a, name="a"),
        s=Tensor(s, requires_grad=True, name="s"),
        b=Tensor(b, requires_grad=True, name="b"),
        trainable_rows=r,
        config=cfg,
    )


def build_lora(w, rank, alpha=1.0, seed=0):
    w = np.asarray(w)
    _svd.check_rank(rank, w.shape)
    rng = np.random.default_rng(seed)
    a = kaiming_normal(rng, w.shape[0], (w.shape[0], rank))
    return LoraState(
        w=Tensor(w, name="w"),
        a=Tensor(a, requires_grad=True, name="a"),
        b=Tensor(np.zeros((rank, w.shape[1])), requires_grad=True, name="b"),
        alpha=alpha,
    )
