import io
import struct
from dataclasses import replace

import numpy as np
import pytest

from lamda.container import (checkpoint_from_result, load_checkpoint,
                             read_weights, read_weights_stream,
                             save_checkpoint, write_weights,
                             write_weights_stream)
from lamda.errors import ConfigError, NumericalError
from lamda.model import ToyTransformerConfig
from lamda.train import TrainRunConfig, train


def _tensors():
    rng = np.random.default_rng(0)
    return {
        "w": rng.normal(size=(3, 4)).astype(np.float32),
        "bias": rng.normal(size=7).astype(np.float64),
        "scalar": np.float64(3.25).reshape(()),
        "empty-name-ok é": np.zeros((2, 2), dtype=np.float32),
    }


def test_weights_round_trip_bitwise(tmp_path):
    path = tmp_path / "w.ldwt"
    tensors = _tensors()
    write_weights(path, tensors)
    back = read_weights(path)
    assert list(back) == list(tensors)  # order preserved
    for name, arr in tensors.items():
        assert back[name].dtype == arr.dtype
        assert back[name].shape == np.asarray(arr).shape
        assert np.asarray(arr).tobytes() == back[name].tobytes()


def test_write_is_deterministic():
    a, b = io.BytesIO(), io.BytesIO()
    write_weights_stream(a, _tensors())
    write_weights_stream(b, _tensors())
    assert a.getvalue() == b.getvalue()


def test_rejects_non_finite():
    buf = io.BytesIO()
    with pytest.raises(NumericalError, match="non-finite"):
        write_weights_stream(buf, {"w": np.array([np.nan], dtype=np.float32)})


def test_rejects_unsupported_dtype():
    with pytest.raises(ConfigError, match="dtype"):
        write_weights_stream(io.BytesIO(), {"w": np.zeros(2, dtype=np.int32)})


def test_bad_magic():
    with pytest.raises(ConfigError, match="magic"):
        read_weights_stream(io.BytesIO(b"NOPE" + b"\x00" * 16))


def test_truncated_payload():
    buf = io.BytesIO()
    write_weights_stream(buf, {"w": np.ones((4, 4), dtype=np.float32)})
    cut = buf.getvalue()[:-8]
    with pytest.raises(ConfigError, match="truncated"):
        read_weights_stream(io.BytesIO(cut))


def test_unsupported_version():
    buf = io.BytesIO()
    write_weights_stream(buf, {"w": np.ones(1, dtype=np.float32)})
    raw = bytearray(buf.getvalue())
    raw[4:6] = struct.pack("<H", 99)
    with pytest.raises(ConfigError, match="version"):
        read_weights_stream(io.BytesIO(bytes(raw)))


def test_checkpoint_round_trip(tmp_path):
    path = tmp_path / "c.ldck"
    tensors = _tensors()
    meta = {"step": 10, "note": "unit", "nested": {"k": [1, 2]}}
    save_checkpoint(path, tensors, meta)
    back_t, back_m = load_checkpoint(path)
    assert back_m == meta
    for name, arr in tensors.items():
        assert np.asarray(arr).tobytes() == back_t[name].tobytes()


def test_checkpoint_rejects_weight_file(tmp_path):
    path = tmp_path / "w.ldwt"
    write_weights(path, {"w": np.ones(1, dtype=np.float32)})
    with pytest.raises(ConfigError, match="checkpoint"):
        load_checkpoint(path)


def test_checkpoint_from_train_result(tmp_path):
    cfg = TrainRunConfig(
        method="lamda", task="copy", rank=2, total_steps=6, batch_size=2,
        adapted_kinds=("q",),
        model=ToyTransformerConfig(layers=1, d_model=16, heads=2, ffn_dim=32,
                                   vocab=11, context=8),
    )
    result = train(cfg)
    tensors, meta = checkpoint_from_result(result)
    assert meta["step"] == 6 and meta["adam_t"] == 6
    assert meta["method"] == "lamda"
    assert meta["trainable_rows"] == {"L0.q": result.model.adapters["L0.q"].trainable_rows}
    assert "backbone/tok_emb" in tensors
    assert "adapter/L0.q/s" in tensors and "opt/L0.q.s/m" in tensors
    path = tmp_path / "run.ldck"
    save_checkpoint(path, tensors, meta)
    back_t, back_m = load_checkpoint(path)
    assert back_m == meta
    s = result.model.adapters["L0.q"].s.data
    assert back_t["adapter/L0.q/s"].tobytes() == s.tobytes()
    assert [k for k in tensors if k.startswith("adapter/")] == [
        "adapter/L0.q/w_res", "adapter/L0.q/a", "adapter/L0.q/s", "adapter/L0.q/b"]

    lora, _ = checkpoint_from_result(train(replace(cfg, method="lora")))
    assert [k for k in lora if k.startswith("adapter/")] == [
        "adapter/L0.q/a", "adapter/L0.q/b", "adapter/L0.q/w"]
