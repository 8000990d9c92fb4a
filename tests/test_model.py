import numpy as np
import pytest

from lamda.accounting import KINDS, ModelSpec
from lamda.adapter import AdapterConfig, build_adapter
from lamda.errors import ConfigError, ShapeError
from lamda.model import ToyTransformer, ToyTransformerConfig
from lamda.tensor import Tape, float_mode


def _small_cfg(**overrides):
    base = dict(layers=1, d_model=16, heads=2, ffn_dim=32, vocab=11, context=8)
    base.update(overrides)
    return ToyTransformerConfig(**base)


@pytest.mark.parametrize("kind", KINDS)
def test_weight_shape_matches_cost_model(kind):
    d, f = 16, 40
    want = {"q": (d, d), "k": (d, d), "v": (d, d), "o": (d, d),
            "ffn1": (d, f), "ffn2": (f, d)}[kind]
    spec = ModelSpec(name="toy", layers=1, d_model=d, ffn_dim=f, adapted_kinds=(kind,))
    model = ToyTransformer(_small_cfg(ffn_dim=f))
    assert dict(spec.modules()) == {f"L0.{kind}": want}
    assert model.params[f"L0.{kind}"].data.shape == want


def test_config_validation():
    with pytest.raises(ConfigError, match="divisible"):
        ToyTransformerConfig(d_model=10, heads=4)


def test_forward_shapes():
    model = ToyTransformer(_small_cfg())
    tokens = np.zeros((3, 8), dtype=np.int64)
    logits = model.forward(tokens)
    assert logits.data.shape == (24, 11)


def test_context_overflow():
    model = ToyTransformer(_small_cfg(context=4))
    with pytest.raises(ShapeError, match="context"):
        model.forward(np.zeros((1, 5), dtype=np.int64))


def test_causal_mask_blocks_future(f64):
    """Changing a future token must not affect earlier logits."""
    model = ToyTransformer(_small_cfg(), seed=3)
    base = np.array([[1, 2, 3, 4, 5, 6, 7, 8]])
    bumped = base.copy()
    bumped[0, -1] = 9
    a = model.forward(base).data
    b = model.forward(bumped).data
    assert np.array_equal(a[:-1], b[:-1])
    assert not np.array_equal(a[-1], b[-1])


def test_mask_cached_per_length_and_dtype():
    """One mask array per (n, float mode), reused by every forward; the
    causal check above also holds with f32 arithmetic."""
    model = ToyTransformer(_small_cfg(), seed=3)
    for mode, dt in (("f32", np.float32), ("f64", np.float64)):
        with float_mode(mode):
            mask = model._mask(8)
            assert mask.dtype == dt
            base = np.array([[1, 2, 3, 4, 5, 6, 7, 8]])
            bumped = base.copy()
            bumped[0, -1] = 9
            a, b = model.forward(base).data, model.forward(bumped).data
            assert np.array_equal(a[:-1], b[:-1]) and not np.array_equal(a[-1], b[-1])
            assert model._mask(8) is mask
    assert set(model._masks) == {(8, np.float32), (8, np.float64)}


def test_non_causal_attends_everywhere(f64):
    model = ToyTransformer(_small_cfg(causal=False), seed=3)
    base = np.array([[1, 2, 3, 4, 5, 6, 7, 8]])
    bumped = base.copy()
    bumped[0, -1] = 9
    assert not np.array_equal(model.forward(base).data[0],
                              model.forward(bumped).data[0])


def test_batch_sequences_are_independent(f64):
    model = ToyTransformer(_small_cfg(), seed=5)
    s1 = np.array([1, 2, 3, 4, 5, 6, 7, 8])
    s2 = np.array([8, 7, 6, 5, 4, 3, 2, 1])
    both = model.forward(np.stack([s1, s2])).data
    assert np.abs(both[:8] - model.forward(s1[None]).data).max() <= 1e-12
    assert np.abs(both[8:] - model.forward(s2[None]).data).max() <= 1e-12


def test_adapter_routing_preserves_function_at_init(f64):
    cfg = _small_cfg()
    model = ToyTransformer(cfg, seed=7)
    tokens = np.array([[1, 2, 3, 4, 5, 6, 7, 8]])
    before = model.forward(tokens).data.copy()
    for module in model.linear_module_ids(("q", "v", "ffn1")):
        w = model.params[module].data
        model.adapters[module] = build_adapter(
            w, AdapterConfig(rank=4, shape=w.shape), seed=1
        )
    after = model.forward(tokens).data
    assert np.abs(after - before).max() <= 1e-8


def test_loss_gradients_reach_all_backbone_params(f64):
    model = ToyTransformer(_small_cfg(), seed=9)
    model.set_backbone_trainable(True)
    tokens = np.array([[1, 2, 3, 4, 5, 6, 7, 8]])
    targets = np.array([[2, 3, 4, 5, 6, 7, 8, 9]])
    with Tape() as tape:
        grads = tape.backward(model.loss(tokens, targets))
    got = {t.name for t in grads}
    assert got == set(model.params)


def test_weights_returns_copies():
    model = ToyTransformer(_small_cfg())
    w = model.weights()
    w["head"][:] = 0.0
    assert np.abs(model.params["head"].data).max() > 0


def test_seeded_init_is_deterministic():
    a = ToyTransformer(_small_cfg(), seed=13).weights()
    b = ToyTransformer(_small_cfg(), seed=13).weights()
    assert all(np.array_equal(a[k], b[k]) for k in a)
