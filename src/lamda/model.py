"""Small decoder-style transformer used to exercise the adapters.

Post-norm residual blocks: X' = LayerNorm(X + MHSA(X)) and
Y = LayerNorm(X' + FFN(X')), with GELU in the FFN and causal masking by
default (disable via `causal=False` for encoder-style tests). Linear
layers carry no bias. Adapted linear modules are addressed as
"L{layer}.{kind}" with kind in `accounting.KINDS`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .accounting import KINDS, kind_shape
from .errors import ConfigError, ShapeError
from .tensor import (Tensor, add, attention, cross_entropy, dtype, embedding,
                     gelu, layer_norm, matmul)
# Unused here; perfbench's self-test checks that its tracer also wraps the
# names other lamda modules bind with `from ... import`, using this one.
from .tensor import slice_cols  # noqa: F401

MASK_VALUE = -1e9  # large finite penalty; exp() underflows to exactly 0


@dataclass
class ToyTransformerConfig:
    layers: int = 2
    d_model: int = 64
    heads: int = 4
    ffn_dim: int = 256
    vocab: int = 64
    context: int = 32
    causal: bool = True
    ln_eps: float = 1e-5

    def __post_init__(self):
        for key in ("layers", "d_model", "heads", "ffn_dim", "vocab", "context"):
            if getattr(self, key) < 1:
                raise ConfigError(f"model {key} must be >= 1, got {getattr(self, key)}")
        if self.d_model % self.heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by heads {self.heads}"
            )
        # A row of one feature has zero variance, so layer_norm divides by sqrt(ln_eps).
        if self.ln_eps < 0 or (self.ln_eps == 0 and self.d_model == 1):
            raise ConfigError(f"model ln_eps must be >= 0, and > 0 when d_model is 1; "
                              f"got {self.ln_eps} with d_model {self.d_model}")


def backbone_shapes(cfg):
    """{name: shape} of the backbone tensors of a `cfg` model, in the order
    `ToyTransformer` draws them."""
    d = cfg.d_model
    shapes = {"tok_emb": (cfg.vocab, d), "pos_emb": (cfg.context, d), "head": (d, cfg.vocab)}
    for i in range(cfg.layers):
        for kind in KINDS:
            shapes[f"L{i}.{kind}"] = kind_shape(kind, d, cfg.ffn_dim)
        for ln in ("ln1", "ln2"):
            shapes[f"L{i}.{ln}.g"] = shapes[f"L{i}.{ln}.b"] = (d,)
    return shapes


def _check_backbone(weights, cfg):
    """A ConfigError naming the first tensor of `weights` whose name or shape
    is not that of `backbone_shapes(cfg)`, or the first tensor it lacks."""
    shapes = backbone_shapes(cfg)
    for name, shape in shapes.items():
        if name not in weights:
            raise ConfigError(f"backbone has no tensor {name!r}, which the model config needs")
        if np.shape(weights[name]) != shape:
            raise ConfigError(f"backbone tensor {name!r} has shape {np.shape(weights[name])}; "
                              f"the model config needs {shape}")
    extra = [name for name in weights if name not in shapes]
    if extra:
        raise ConfigError(f"backbone tensor {extra[0]!r} is not part of the configured model")


class ToyTransformer:
    """Backbone parameters plus optional per-module adapters. Weights passed
    in must have the names and shapes of `backbone_shapes(cfg)`."""

    def __init__(self, cfg, weights=None, seed=0):
        self.cfg = cfg
        self.adapters = {}  # module id -> AdapterState | LoraState
        self._masks = {}
        if weights is None:
            weights = self._init_weights(seed)
        else:
            _check_backbone(weights, cfg)
        self.params = {name: Tensor(w, name=name) for name, w in weights.items()}

    def _init_weights(self, seed):
        """Embeddings ~ N(0, 0.02^2), linear d_in x d_out weights ~ N(0, 1/d_in),
        LayerNorm gains 1 and biases 0."""
        rng = np.random.default_rng(seed)
        w = {}
        for name, shape in backbone_shapes(self.cfg).items():
            if len(shape) == 1:
                w[name] = (np.ones if name.endswith(".g") else np.zeros)(shape)
            else:
                std = 0.02 if name.endswith("_emb") else 1.0 / math.sqrt(shape[0])
                w[name] = rng.normal(0.0, std, size=shape)
        return w

    # -------------------------------------------------------------- plumbing

    def weights(self):
        """Backbone arrays by name (adapters excluded)."""
        return {name: t.data.copy() for name, t in self.params.items()}

    def set_backbone_trainable(self, trainable):
        for t in self.params.values():
            t.requires_grad = trainable

    def linear_module_ids(self, kinds):
        return [f"L{i}.{k}" for i in range(self.cfg.layers) for k in kinds]

    def linear(self, x, module):
        st = self.adapters.get(module)
        if st is not None:
            return st.forward(x)
        return matmul(x, self.params[module])

    def _mask(self, n):
        dt = dtype()
        if (n, dt) not in self._masks:
            self._masks[n, dt] = np.triu(np.full((n, n), MASK_VALUE), k=1).astype(dt)
        return self._masks[n, dt]

    # --------------------------------------------------------------- forward

    def mhsa_forward(self, x, layer, n):
        """Multi-head causal attention over (b*n) x d rows grouped by sequence."""
        cfg = self.cfg
        q = self.linear(x, f"L{layer}.q")
        k = self.linear(x, f"L{layer}.k")
        v = self.linear(x, f"L{layer}.v")
        mask = self._mask(n) if cfg.causal else None
        out = attention(q, k, v, n, cfg.heads, mask)
        return self.linear(out, f"L{layer}.o")

    def block_forward(self, x, layer, n):
        cfg = self.cfg
        attn = self.mhsa_forward(x, layer, n)
        x1 = layer_norm(add(x, attn), self.params[f"L{layer}.ln1.g"],
                        self.params[f"L{layer}.ln1.b"], cfg.ln_eps)
        ffn = self.linear(gelu(self.linear(x1, f"L{layer}.ffn1")), f"L{layer}.ffn2")
        return layer_norm(add(x1, ffn), self.params[f"L{layer}.ln2.g"],
                          self.params[f"L{layer}.ln2.b"], cfg.ln_eps)

    def forward(self, tokens):
        """tokens: (b, n) int array -> logits Tensor of shape (b*n, vocab)."""
        tokens = np.asarray(tokens)
        b, n = tokens.shape
        if n > self.cfg.context:
            raise ShapeError(f"sequence length {n} exceeds context {self.cfg.context}")
        pos = np.tile(np.arange(n), b)
        x = add(embedding(self.params["tok_emb"], tokens.reshape(-1)),
                embedding(self.params["pos_emb"], pos))
        for i in range(self.cfg.layers):
            x = self.block_forward(x, i, n)
        return matmul(x, self.params["head"])

    def loss(self, tokens, targets):
        return cross_entropy(self.forward(tokens), np.asarray(targets).reshape(-1))
