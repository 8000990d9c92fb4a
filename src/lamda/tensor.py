"""Dense 2-D tensors with a tape-based reverse-mode autodiff engine.

Conventions: row-major numpy storage, rows = tokens and cols = features.
One global float mode per run: f32, the default, for training, and f64
for verification, switched with set_float_mode() or float_mode().

Gradients are only computed inside a `with Tape() as tape:` block; ops
executed outside a tape compute values but record nothing, which is what
evaluation passes use.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .errors import ContractError, NumericalError, ShapeError

_MODES = {"f32": np.float32, "f64": np.float64}
_dtype = np.float32

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def set_float_mode(mode):
    global _dtype
    if mode not in _MODES:
        raise ContractError(f"float mode must be one of {sorted(_MODES)}, got {mode!r}")
    _dtype = _MODES[mode]


def get_float_mode():
    return "f32" if _dtype is np.float32 else "f64"


def dtype():
    return _dtype


@contextlib.contextmanager
def float_mode(mode):
    prev = get_float_mode()
    set_float_mode(mode)
    try:
        yield
    finally:
        set_float_mode(prev)


class Tensor:
    """A dense array plus the bookkeeping needed to replay its backward rule."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward", "_op",
                 "_saved")

    def __init__(self, data, requires_grad=False, name=None):
        self.data = np.asarray(data, dtype=_dtype)
        self.grad = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents = ()
        self._backward = None
        self._op = None
        self._saved = ()  # (operand, array its gradient reads) pairs of a tape node

    @property
    def shape(self):
        return self.data.shape

    @property
    def is_leaf(self):
        return not self._parents

    def __repr__(self):
        tag = self.name or self._op or "tensor"
        return f"Tensor({tag}, shape={self.data.shape}, grad={self.requires_grad})"


class Tape:
    """Ordered record of grad-requiring ops; replayed in reverse by backward()."""

    def __init__(self):
        self.nodes = []

    def __enter__(self):
        global _active_tape
        if _active_tape is not None:
            raise ContractError("tapes do not nest")
        _active_tape = self
        return self

    def __exit__(self, *exc):
        global _active_tape
        _active_tape = None
        return False

    def backward(self, loss):
        """Seed d(loss)=1 and replay recorded ops in reverse.

        Returns a map {leaf Tensor: gradient array} covering every
        requires_grad leaf reached from the loss.
        """
        if loss.data.size != 1:
            raise ContractError(f"loss must be scalar, got shape {loss.data.shape}")
        if loss._backward is None and not loss.requires_grad:
            raise ContractError("loss does not depend on any trainable tensor")
        loss.grad = np.ones_like(loss.data)
        for node in reversed(self.nodes):
            if node.grad is None or node._backward is None:
                continue
            node._backward(node.grad)
        grads = {}
        for node in self.nodes:
            for p in node._parents:
                if p.is_leaf and p.requires_grad and p.grad is not None:
                    grads[p] = p.grad
        return grads


_active_tape = None


def _record(data, parents, backward, op, saved=()):
    out = Tensor(data)
    out.requires_grad = any(p.requires_grad for p in parents)
    if out.requires_grad and _active_tape is not None:
        out._parents = tuple(parents)
        out._backward = backward
        out._op = op
        out._saved = saved
        _active_tape.nodes.append(out)
    return out


def _accum(t, g):
    if not t.requires_grad:
        return
    # No in-place grad mutation anywhere, so sharing the first array is safe.
    t.grad = g if t.grad is None else t.grad + g


# ---------------------------------------------------------------- primitives


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul shapes do not chain: {a.data.shape} x {b.data.shape}")
    out_data = a.data @ b.data

    def backward(g):
        # Frozen operands (backbone residuals, PMA, the head) get no gradient.
        if a.requires_grad:
            _accum(a, g @ b.data.T)
        if b.requires_grad:
            _accum(b, a.data.T @ g)

    return _record(out_data, (a, b), backward, "matmul", ((b, a.data), (a, b.data)))


def adapted_linear(x, w, a, s, b, alpha=1.0):
    """x @ w + alpha * ((x @ a) @ s) @ b as one tape node; `s=None` gives the
    LoRA form x @ w + alpha * (x @ a) @ b.

    It runs the numpy products of the matmul/scale/add composition it
    replaces, in the same order, and adds the adapter path's gradient into
    `x` before the main path's, as that composition's tape does, so both
    give the same bits. Products whose target needs no gradient are
    skipped. The backward keeps only x, x @ a and (x @ a) @ s, the inputs
    its weight gradients read; the d_out-wide intermediates are freed.
    """
    factors = (a, b) if s is None else (a, s, b)
    dims = [x.data.shape, w.data.shape] + [f.data.shape for f in factors]
    if (any(len(dim) != 2 for dim in dims) or dims[0][1] != dims[1][0]
            or dims[0][1] != dims[2][0] or dims[1][1] != dims[-1][1]
            or any(p[1] != q[0] for p, q in zip(dims[2:], dims[3:]))):
        raise ShapeError(f"adapted_linear shapes do not chain: x {dims[0]}, w {dims[1]}, "
                         f"adapter {dims[2:]}")
    out_data = x.data @ w.data
    ins = [x.data]  # the input of each factor: x, x @ a, then (x @ a) @ s
    for f in factors[:-1]:
        ins.append(ins[-1] @ f.data)
    path = ins[-1] @ factors[-1].data
    c = None if alpha == 1.0 else _dtype(alpha)
    if c is not None:
        path *= c
    out_data += path  # the composition's main + path, in place
    live = [x.requires_grad]  # whether each factor's input needs a gradient
    for f in factors[:-1]:
        live.append(live[-1] or f.requires_grad)

    def backward(g):
        gk = g if c is None else g * c
        for k in reversed(range(len(factors))):
            f = factors[k]
            if f.requires_grad:
                _accum(f, ins[k].T @ gk)
            if not live[k]:
                break
            gk = gk @ f.data.T
        else:  # x's adapter-path share goes in before its main-path share
            _accum(x, gk)
        if x.requires_grad:
            _accum(x, g @ w.data.T)
        if w.requires_grad:
            _accum(w, x.data.T @ g)

    saved = ((w, x.data),) + tuple(zip(factors, ins))
    return _record(out_data, (x, w) + factors, backward, "adapted_linear", saved)


def add(a, b):
    """Elementwise add; `b` may be a length-d row broadcast over a's rows."""
    bias = a.data.shape != b.data.shape
    if bias and b.data.reshape(-1).shape[0] != a.data.shape[-1]:
        raise ShapeError(f"add shapes incompatible: {a.data.shape} + {b.data.shape}")
    out_data = a.data + b.data

    def backward(g):
        _accum(a, g)
        if bias:
            _accum(b, g.sum(axis=0).reshape(b.data.shape))
        else:
            _accum(b, g)

    return _record(out_data, (a, b), backward, "add")


def sub(a, b):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"sub shapes differ: {a.data.shape} - {b.data.shape}")
    out_data = a.data - b.data

    def backward(g):
        _accum(a, g)
        _accum(b, -g)

    return _record(out_data, (a, b), backward, "sub")


def mul(a, b):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul shapes differ: {a.data.shape} * {b.data.shape}")
    out_data = a.data * b.data

    def backward(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _record(out_data, (a, b), backward, "mul")


def scale(a, c):
    c = _dtype(c)
    out_data = a.data * c

    def backward(g):
        _accum(a, g * c)

    return _record(out_data, (a,), backward, "scale")


def transpose(a):
    out_data = a.data.T.copy()

    def backward(g):
        _accum(a, g.T.copy())

    return _record(out_data, (a,), backward, "transpose")


def gelu(a):
    """tanh-form GELU: 0.5*x*(1 + tanh(c*(x + 0.044715*x^3))).

    Each product and sum updates a fresh buffer in place. Every step is the
    IEEE operation of the plain formula on the same two operands (a + b
    and a * b commute exactly), so the bits are the formula's, with fewer
    temporaries.
    """
    x = a.data
    c, k = _dtype(_GELU_C), _dtype(_GELU_A)
    t = k * x
    t *= x
    t *= x
    t += x
    t *= c
    np.tanh(t, out=t)
    out_data = _dtype(0.5) * x
    out_data *= 1 + t

    def backward(g):
        # 0.5 * (1 + t) + 0.5 * x * (1 - t * t) * (c * (1 + 3 * k * x * x))
        dinner = (3 * k) * x
        dinner *= x
        dinner += 1
        dinner *= c
        slope = t * t
        np.subtract(1, slope, out=slope)
        slope *= 0.5 * x
        slope *= dinner
        da = 1 + t
        da *= 0.5
        da += slope
        da *= g
        _accum(a, da)

    return _record(out_data, (a,), backward, "gelu")


def softmax_rows(a):
    z = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    out_data = e / e.sum(axis=1, keepdims=True)

    def backward(g):
        dot = (g * out_data).sum(axis=1, keepdims=True)
        _accum(a, out_data * (g - dot))

    return _record(out_data, (a,), backward, "softmax")


def attention(q, k, v, n, heads, mask=None):
    """Multi-head softmax(Q Kᵀ / sqrt(d_h) + mask) V as one tape node.

    q, k, v are (b*n) x d rows grouped into length-n sequences; head h owns
    columns [h*d_h, (h+1)*d_h). `mask` is an optional additive n x n array.
    The heads run as (b, h, n, d_h) stacks through batched matmuls in the
    same operand layouts and operation order as slicing out each sequence
    and head and composing matmul, scale, add and softmax_rows, so both
    give the same bits.
    """
    shapes = (q.data.shape, k.data.shape, v.data.shape)
    if q.data.ndim != 2 or len(set(shapes)) != 1:
        raise ShapeError(f"attention q, k, v must share one 2-D shape, got {shapes}")
    rows, d = q.data.shape
    if rows % n != 0:
        raise ShapeError(f"attention: {rows} rows of {q.data.shape} do not split "
                         f"into length-{n} sequences")
    if d % heads != 0:
        raise ShapeError(f"attention: width {d} of {q.data.shape} does not split "
                         f"into {heads} heads")
    if mask is not None:
        mask = np.asarray(mask, dtype=_dtype)
        if mask.shape != (n, n):
            raise ShapeError(f"attention mask shape {mask.shape} is not {(n, n)}")
    b, dh = rows // n, d // heads
    c = _dtype(1.0 / math.sqrt(dh))

    def heads_of(x):  # (b*n, d) -> (b, h, n, d_h) view
        return x.reshape(b, n, heads, dh).transpose(0, 2, 1, 3)

    def merge(x):  # (b, h, n, d_h) -> (b*n, d)
        return x.transpose(0, 2, 1, 3).reshape(rows, d)

    qs = np.ascontiguousarray(heads_of(q.data))
    kt = np.ascontiguousarray(heads_of(k.data).transpose(0, 1, 3, 2))
    vs = np.ascontiguousarray(heads_of(v.data))
    scores = (qs @ kt) * c
    if mask is not None:
        scores = scores + mask
    z = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)
    out_data = merge(p @ vs)

    def backward(g):
        gs = heads_of(g)
        dp = gs @ vs.transpose(0, 1, 3, 2)
        dot = (dp * p).sum(axis=-1, keepdims=True)
        ds = (p * (dp - dot)) * c
        _accum(q, merge(ds @ kt.transpose(0, 1, 3, 2)))
        _accum(k, merge((qs.transpose(0, 1, 3, 2) @ ds).transpose(0, 1, 3, 2)))
        _accum(v, merge(p.transpose(0, 1, 3, 2) @ gs))

    return _record(out_data, (q, k, v), backward, "attention")


def _row_mean(x):
    """x.mean(axis=1, keepdims=True) with the same bits and less overhead.

    np.mean divides the same row sum by the count in f64 and rounds back to
    the array dtype; f64 has more than twice f32's precision plus two bits,
    so that double rounding gives the correctly rounded quotient, which is
    what dividing in the array dtype gives.
    """
    return x.sum(axis=1, keepdims=True) / x.shape[1]


def layer_norm(a, gain, bias, eps=1e-5):
    x = a.data
    d = x.shape[-1]
    if d == 1 and eps == 0:
        raise NumericalError("layer_norm is degenerate for d=1 with eps=0")
    xc = x - _row_mean(x)
    inv = 1.0 / np.sqrt(_row_mean(xc * xc) + _dtype(eps))
    xhat = xc * inv
    gdat = gain.data.reshape(1, -1)
    out_data = xhat * gdat + bias.data.reshape(1, -1)

    def backward(g):
        gg = g * gdat
        m1 = _row_mean(gg)
        m2 = _row_mean(gg * xhat)
        _accum(a, (gg - m1 - xhat * m2) * inv)
        _accum(gain, (g * xhat).sum(axis=0).reshape(gain.data.shape))
        _accum(bias, g.sum(axis=0).reshape(bias.data.shape))

    return _record(out_data, (a, gain, bias), backward, "layer_norm")


def embedding(table, ids):
    ids = np.asarray(ids, dtype=np.int64).reshape(-1)
    if ids.min(initial=0) < 0 or ids.max(initial=0) >= table.data.shape[0]:
        raise ShapeError(f"embedding ids out of range for table {table.data.shape}")
    out_data = table.data[ids]

    def backward(g):
        if table.requires_grad:
            gt = np.zeros_like(table.data)
            np.add.at(gt, ids, g)
            _accum(table, gt)

    return _record(out_data, (table,), backward, "embedding")


def cross_entropy(logits, targets):
    """Mean cross-entropy with integrated log-softmax; target -1 is ignored."""
    targets = np.asarray(targets, dtype=np.int64).reshape(-1)
    z = logits.data
    if targets.shape[0] != z.shape[0]:
        raise ShapeError(f"{targets.shape[0]} targets for {z.shape[0]} logit rows")
    valid = targets >= 0
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise ContractError("cross_entropy: no unmasked targets")
    zs = z - z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(zs).sum(axis=1, keepdims=True))
    logp = zs - lse
    picked = np.where(valid, logp[np.arange(z.shape[0]), np.maximum(targets, 0)], 0.0)
    out_data = np.asarray(-picked.sum() / n_valid, dtype=_dtype)

    def backward(g):
        p = np.exp(logp)
        p[np.arange(z.shape[0]), np.maximum(targets, 0)] -= 1.0
        p[~valid] = 0.0
        _accum(logits, (float(g) / n_valid) * p.astype(_dtype))

    return _record(out_data, (logits,), backward, "cross_entropy")


def concat_cols(tensors):
    widths = [t.data.shape[1] for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=1)

    def backward(g):
        j = 0
        for t, w in zip(tensors, widths):
            _accum(t, g[:, j : j + w])
            j += w

    return _record(out_data, tuple(tensors), backward, "concat_cols")


def concat_rows(tensors):
    heights = [t.data.shape[0] for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=0)

    def backward(g):
        i = 0
        for t, h in zip(tensors, heights):
            _accum(t, g[i : i + h])
            i += h

    return _record(out_data, tuple(tensors), backward, "concat_rows")


def slice_rows(a, i0, i1):
    out_data = a.data[i0:i1].copy()

    def backward(g):
        ga = np.zeros_like(a.data)
        ga[i0:i1] = g
        _accum(a, ga)

    return _record(out_data, (a,), backward, "slice_rows")


def slice_cols(a, j0, j1):
    out_data = a.data[:, j0:j1].copy()

    def backward(g):
        ga = np.zeros_like(a.data)
        ga[:, j0:j1] = g
        _accum(a, ga)

    return _record(out_data, (a,), backward, "slice_cols")


def tensor_sum(a):
    out_data = np.asarray(a.data.sum(), dtype=_dtype)

    def backward(g):
        _accum(a, np.full_like(a.data, float(g)))

    return _record(out_data, (a,), backward, "sum")
