"""Bit-exact file formats.

Weight container ("LDWT"): magic, u16 version, u32 tensor count, then per
tensor: u16 name length + UTF-8 name, u8 dtype (0=f32, 1=f64), u8 ndim,
u64 dims, raw little-endian data. No alignment padding; names unique.

Checkpoint ("LDCK"): magic, u16 version, u32 JSON metadata length, the
UTF-8 JSON metadata, then an embedded weight container payload.

A weight container ends its stream. Readers reject whatever does not
parse as one: a short or overlong stream, a name that is not UTF-8, a
shape numpy cannot hold or one larger than the bytes left (ConfigError),
and non-finite data, which the writer refuses too (NumericalError).
`index_weights_stream` makes every check but the last from the headers
alone; `read_tensor` reads one indexed tensor and makes the last.

`write_weights`, `save_checkpoint` and the CLI's outputs are written
through `atomic_open`, so a regular file holds either its old bytes or all
of its new ones, never a torn write.
"""

import contextlib
import io
import json
import math
import os
import struct
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NumericalError

WEIGHT_MAGIC = b"LDWT"
CHECKPOINT_MAGIC = b"LDCK"
FORMAT_VERSION = 1

_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODE_FOR = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_ONE_ITEM = bytes(max(dtype.itemsize for dtype in _DTYPE_CODES.values()))


@contextlib.contextmanager
def atomic_open(path, mode="wb", **kwargs):
    """Open `path`, symlinks followed, for writing. A regular or absent file
    is written to a temp file next to it, which replaces it when the block
    ends; if the block raises, the temp file is deleted and the file is left
    as it was. Any other file that exists (a FIFO, a device) is written in
    place, as replacing it would turn it into a regular file."""
    path = os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, mode, **kwargs) as fh:
            yield fh
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_weights_stream(fh, tensors):
    fh.write(WEIGHT_MAGIC)
    fh.write(struct.pack("<HI", FORMAT_VERSION, len(tensors)))
    for name, arr in tensors.items():
        arr = np.asarray(arr)
        if arr.dtype not in _CODE_FOR:
            raise ConfigError(f"tensor {name!r} has unsupported dtype {arr.dtype}")
        if not np.all(np.isfinite(arr)):
            raise NumericalError(f"refusing to serialize non-finite tensor {name!r}")
        raw = name.encode("utf-8")
        fh.write(struct.pack("<H", len(raw)))
        fh.write(raw)
        fh.write(struct.pack("<BB", _CODE_FOR[arr.dtype], arr.ndim))
        for dim in arr.shape:
            fh.write(struct.pack("<Q", dim))
        fh.write(np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")))


def _read_exact(fh, n, what):
    buf = fh.read(n)
    if len(buf) != n:
        raise ConfigError(f"truncated container while reading {what}")
    return buf


class TensorEntry(NamedTuple):
    """Where one tensor of a weight container lies: its data starts at byte
    `offset` of the stream."""
    name: str
    dtype: np.dtype
    shape: tuple
    offset: int


def index_weights_stream(fh):
    """{name: TensorEntry} of the weight container that runs to the end of
    `fh`, in file order, read from the headers alone."""
    start = fh.tell()
    end = fh.seek(0, io.SEEK_END)
    fh.seek(start)
    if _read_exact(fh, 4, "magic") != WEIGHT_MAGIC:
        raise ConfigError("not a weight container (bad magic)")
    version, count = struct.unpack("<HI", _read_exact(fh, 6, "header"))
    if version != FORMAT_VERSION:
        raise ConfigError(f"unsupported container version {version}")
    index = {}
    for _ in range(count):
        (nlen,) = struct.unpack("<H", _read_exact(fh, 2, "name length"))
        try:
            name = _read_exact(fh, nlen, "name").decode("utf-8")
        except UnicodeDecodeError:
            raise ConfigError("tensor name is not valid UTF-8") from None
        code, ndim = struct.unpack("<BB", _read_exact(fh, 2, "tensor header"))
        if code not in _DTYPE_CODES:
            raise ConfigError(f"tensor {name!r}: unknown dtype code {code}")
        dims = struct.unpack(f"<{ndim}Q", _read_exact(fh, 8 * ndim, "dims"))
        dtype = _DTYPE_CODES[code]
        nbytes = math.prod(dims) * dtype.itemsize
        offset = fh.tell()
        if nbytes > end - offset:
            raise ConfigError(
                f"truncated container: tensor {name!r} of shape {dims} needs "
                f"{nbytes} bytes, {end - offset} are left"
            )
        try:  # numpy checks the shape of a zero-stride view, which allocates nothing
            np.ndarray(dims, dtype, _ONE_ITEM, strides=(0,) * ndim)
        except (ValueError, OverflowError):
            raise ConfigError(f"tensor {name!r}: shape {dims} is not an array shape") from None
        if name in index:
            raise ConfigError(f"duplicate tensor name {name!r}")
        index[name] = TensorEntry(name, dtype, dims, offset)
        fh.seek(offset + nbytes)
    if fh.tell() != end:
        raise ConfigError(f"{end - fh.tell()} trailing bytes after the last tensor")
    return index


def read_tensor(fh, entry):
    """The data of one indexed tensor of `fh`, a fresh array."""
    data = np.empty(entry.shape, entry.dtype)
    fh.seek(entry.offset)
    if fh.readinto(data) != data.nbytes:
        raise ConfigError(f"truncated container while reading data of {entry.name!r}")
    if not np.isfinite(data).all():
        raise NumericalError(f"tensor {entry.name!r} holds non-finite values")
    return data


def read_weights_stream(fh):
    """The tensors of the weight container that runs to the end of `fh`."""
    return {name: read_tensor(fh, entry) for name, entry in index_weights_stream(fh).items()}


def write_weights(path, tensors):
    with atomic_open(path) as fh:
        write_weights_stream(fh, tensors)


def read_weights(path):
    with open(path, "rb") as fh:
        return read_weights_stream(fh)


def save_checkpoint(path, tensors, meta):
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    with atomic_open(path) as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<HI", FORMAT_VERSION, len(blob)))
        fh.write(blob)
        write_weights_stream(fh, tensors)


def load_checkpoint(path):
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, "magic") != CHECKPOINT_MAGIC:
            raise ConfigError("not a checkpoint (bad magic)")
        version, mlen = struct.unpack("<HI", _read_exact(fh, 6, "header"))
        if version != FORMAT_VERSION:
            raise ConfigError(f"unsupported checkpoint version {version}")
        try:
            meta = json.loads(_read_exact(fh, mlen, "metadata").decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
            raise ConfigError(f"checkpoint metadata is not UTF-8 JSON: {exc}") from None
        tensors = read_weights_stream(fh)
    return tensors, meta


def checkpoint_from_result(result):
    """Flatten a TrainResult into (tensors, meta) for save_checkpoint."""
    tensors = {}
    for name, t in result.model.params.items():
        tensors[f"backbone/{name}"] = t.data
    for module, st in result.model.adapters.items():
        for attr, t in st.tensors().items():
            tensors[f"adapter/{module}/{attr}"] = t.data
    for name, slot in result.optimizer.slots.items():
        tensors[f"opt/{name}/m"] = slot["m"]
        tensors[f"opt/{name}/v"] = slot["v"]
    meta = {
        "step": result.config.total_steps,
        "adam_t": result.optimizer.t,
        "method": result.config.method,
        "config_hash": result.config.digest(),
        # The LaMDA modules, each with a freeze schedule.
        "trainable_rows": {m: result.model.adapters[m].trainable_rows for m in result.schedules},
    }
    return tensors, meta
