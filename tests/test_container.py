import io
import math
import os
import stat
import struct
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lamda.container import (CHECKPOINT_MAGIC, WEIGHT_MAGIC, checkpoint_from_result,
                             load_checkpoint, read_weights, read_weights_stream,
                             save_checkpoint, write_weights, write_weights_stream)
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


@pytest.mark.parametrize("write", [
    write_weights, lambda path, tensors: save_checkpoint(path, tensors, {"step": 1}),
], ids=["weights", "checkpoint"])
def test_failed_write_leaves_old_file(tmp_path, write):
    """A writer that raises mid-stream leaves the old bytes and no temp file."""
    path = tmp_path / "out.bin"
    write(path, _tensors())
    before = path.read_bytes()
    bad = {"w": np.ones((2, 2), dtype=np.float32), "nan": np.array([np.nan])}
    with pytest.raises(NumericalError):
        write(path, bad)  # "w" is written before "nan" is refused
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["out.bin"]


def _container_bytes(tensors):
    buf = io.BytesIO()
    write_weights_stream(buf, tensors)
    return buf.getvalue()


@pytest.mark.parametrize("target_exists", [True, False], ids=["target", "dangling"])
def test_write_through_a_symlink_keeps_the_link(tmp_path, target_exists):
    """The link is followed: its target is replaced, or made, and the link
    stays a link."""
    target, link = tmp_path / "real.ldwt", tmp_path / "link.ldwt"
    if target_exists:
        target.write_bytes(b"old")
    link.symlink_to("real.ldwt")
    write_weights(link, _tensors())
    assert link.is_symlink() and os.readlink(link) == "real.ldwt"
    assert target.read_bytes() == _container_bytes(_tensors())
    assert sorted(os.listdir(tmp_path)) == ["link.ldwt", "real.ldwt"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_write_to_a_fifo_writes_in_place(tmp_path):
    """A FIFO is written in place, not replaced by a regular file."""
    fifo, got = tmp_path / "fifo", []
    os.mkfifo(fifo)
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    write_weights(fifo, _tensors())
    reader.join(timeout=60)
    assert got == [_container_bytes(_tensors())]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode) and os.listdir(tmp_path) == ["fifo"]


def test_checkpoint_rejects_weight_file(tmp_path):
    path = tmp_path / "w.ldwt"
    write_weights(path, {"w": np.ones(1, dtype=np.float32)})
    with pytest.raises(ConfigError, match="checkpoint"):
        load_checkpoint(path)


@pytest.mark.parametrize("blob", [b"\xff\xfe{}", b"{not json"], ids=["not-utf8", "not-json"])
def test_checkpoint_rejects_malformed_metadata(tmp_path, blob):
    path = tmp_path / "c.ldck"
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + struct.pack("<HI", 1, len(blob)) + blob)
        write_weights_stream(fh, {"w": np.ones(1, dtype=np.float32)})
    with pytest.raises(ConfigError, match="metadata"):
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


def _container(name=b"w", ndim=None, dims=(2,), data=b"\x00" * 8, tail=b""):
    """Hand-built one-tensor f32 container; each field may be malformed."""
    ndim = len(dims) if ndim is None else ndim
    return (WEIGHT_MAGIC + struct.pack("<HI", 1, 1) + struct.pack("<H", len(name)) + name
            + struct.pack("<BB", 0, ndim) + struct.pack(f"<{len(dims)}Q", *dims) + data + tail)


@pytest.mark.parametrize("raw, error, match", [
    pytest.param(_container(dims=(2**62,)), ConfigError, "truncated", id="dim-2**62"),
    pytest.param(_container(dims=(0, 2**64 - 1), data=b""), ConfigError, "shape",
                 id="zero-size-dim-too-large"),
    pytest.param(_container(dims=(1,) * 65, data=b"\x00" * 4), ConfigError, "shape",
                 id="65-dims"),
    pytest.param(_container(name=b"\xff\xfe"), ConfigError, "UTF-8", id="name-not-utf8"),
    pytest.param(_container(tail=b"\x00"), ConfigError, "trailing", id="trailing-byte"),
    pytest.param(_container(data=np.array([1.0, np.nan], dtype="<f4").tobytes()),
                 NumericalError, "non-finite", id="nan-tensor"),
    pytest.param(_container(data=np.array([np.inf, 1.0], dtype="<f4").tobytes()),
                 NumericalError, "non-finite", id="inf-tensor"),
])
def test_malformed_container_is_rejected(raw, error, match):
    with pytest.raises(error, match=match):
        read_weights_stream(io.BytesIO(raw))


def test_hand_built_container_reads():
    assert read_weights_stream(io.BytesIO(_container()))["w"].tobytes() == b"\x00" * 8


def _valid_bytes():
    buf = io.BytesIO()
    write_weights_stream(buf, _tensors())
    return buf.getvalue()


_VALID = _valid_bytes()
_corrupted = st.tuples(st.integers(0, len(_VALID) - 1), st.integers(0, 255)).map(
    lambda at: _VALID[:at[0]] + bytes([at[1]]) + _VALID[at[0] + 1:])
_truncated = st.integers(0, len(_VALID) - 1).map(lambda n: _VALID[:n])


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.binary(max_size=256), _corrupted, _truncated))
@example(_VALID)
@example(WEIGHT_MAGIC + struct.pack("<HI", 1, 2**32 - 1))
def test_any_bytes_give_tensors_or_a_documented_error(raw):
    """Whatever the bytes, reading ends in tensors, ConfigError or NumericalError."""
    try:
        tensors = read_weights_stream(io.BytesIO(raw))
    except (ConfigError, NumericalError):
        return
    for arr in tensors.values():
        assert arr.dtype in (np.float32, np.float64) and np.all(np.isfinite(arr))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(3, 5), (), (0,), (0, 4)])
def test_read_arrays_are_contiguous_writable_and_own_their_memory(tmp_path, dtype, shape):
    """A read backbone is trained in place, so no tensor may be a view of a
    read buffer."""
    tensors = {"t": np.arange(math.prod(shape), dtype=dtype).reshape(shape)}
    write_weights(tmp_path / "w.ldwt", tensors)
    save_checkpoint(tmp_path / "c.ldck", tensors, {})
    for back in (read_weights(tmp_path / "w.ldwt"), load_checkpoint(tmp_path / "c.ldck")[0]):
        arr = back["t"]
        assert arr.dtype == dtype and arr.shape == shape
        assert arr.flags.c_contiguous and arr.flags.writeable and arr.flags.owndata
        assert arr.tobytes() == tensors["t"].tobytes()


def test_short_tensor_data_names_the_tensor():
    """A stream that ends inside a tensor's data, though its length said the
    data was there, is a ConfigError naming that tensor."""

    class ShortRead(io.BytesIO):
        def readinto(self, buf):
            return super().readinto(memoryview(buf).cast("B")[:-1])

    with pytest.raises(ConfigError, match="truncated container while reading data of 'w'"):
        read_weights_stream(ShortRead(_container()))
