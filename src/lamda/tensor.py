"""Dense 2-D tensors with a tape-based reverse-mode autodiff engine.

Conventions: row-major numpy storage, rows = tokens and cols = features.
One global float mode per run: f32, the default, for training, and f64
for verification, switched with set_float_mode() or float_mode().

Gradients are only computed inside a `with Tape() as tape:` block; ops
executed outside a tape compute values but record nothing, which is what
evaluation passes use.
"""

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
    """A dense array; a result recorded on a tape points to its tape node."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_node", "__weakref__")

    def __init__(self, data, requires_grad=False, name=None):
        self.data = np.asarray(data, dtype=_dtype)
        self.grad = None
        self.requires_grad = requires_grad
        self.name = name
        self._node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def _parents(self):
        """The gradient sinks of the operands of the op that made this
        tensor; empty unless a tape recorded that op."""
        return () if self._node is None else self._node._parents

    def __repr__(self):
        tag = self.name or (self._node._op if self._node is not None else "tensor")
        return f"Tensor({tag}, shape={self.data.shape}, grad={self.requires_grad})"


class Node:
    """One recorded op: its backward rule and what that rule reads.

    A node does not own its op's output array. `_parents` holds the
    gradient sink of each operand: the operand's own node if it was
    recorded, else the operand itself (a leaf). `_saved` holds
    (sink, array) pairs: each array the backward reads, paired with the
    first operand whose gradient reads it (a weight that carries a
    gradient back to the input is paired with the input); the array is
    None when no gradient that reads it is taken. The backward receives
    `_saved`'s arrays in order and captures no array itself, so `_saved`
    is all the node keeps alive besides the sinks. `grad` is the gradient
    of the output, summed over its consumers while the tape replays and
    dropped once the backward has run.
    """

    __slots__ = ("grad", "_parents", "_backward", "_op", "_saved")
    requires_grad = True  # only results that need a gradient are recorded

    def __init__(self, parents, backward, op, saved):
        self.grad = None
        self._parents = parents
        self._backward = backward
        self._op = op
        self._saved = saved


class Tape:
    """Ordered record of grad-requiring ops; replayed in reverse by backward().

    The tape holds its `Node`s, never the tensors the ops returned, so an
    op's output lives only as long as the caller, or a node's `_saved`,
    keeps it.
    """

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

        Each node's gradient is dropped as soon as its backward has routed
        it to the operands' sinks, so no node holds a gradient afterwards;
        leaves keep theirs in `Tensor.grad`. Returns a map {leaf Tensor:
        gradient array} covering every requires_grad leaf reached from the
        loss.
        """
        if loss.data.size != 1:
            raise ContractError(f"loss must be scalar, got shape {loss.data.shape}")
        if loss._node is None and not loss.requires_grad:
            raise ContractError("loss does not depend on any trainable tensor")
        _sink(loss).grad = np.ones_like(loss.data)
        for node in reversed(self.nodes):
            g = node.grad
            if g is None:
                continue
            node.grad = None
            node._backward(g, *[act for _, act in node._saved])
        grads = {}
        for node in self.nodes:
            for p in node._parents:
                if isinstance(p, Tensor) and p.requires_grad and p.grad is not None:
                    grads[p] = p.grad
        return grads


_active_tape = None


def _sink(t):
    """Where a gradient for `t` goes: its tape node, or `t` itself if it is a leaf."""
    return t if t._node is None else t._node


def _keep(*pairs):
    """A node's `_saved` from (sink, array) pairs: None in place of an array
    whose sink takes no gradient."""
    return tuple([(sink, act if sink.requires_grad else None) for sink, act in pairs])


def _record(data, sinks, backward, op, saved=()):
    out = Tensor(data)
    out.requires_grad = any(s.requires_grad for s in sinks)
    if out.requires_grad and _active_tape is not None:
        out._node = Node(tuple(sinks), backward, op, saved)
        _active_tape.nodes.append(out._node)
    return out


def _accum(sink, g):
    if not sink.requires_grad:
        return
    # No in-place grad mutation anywhere, so sharing the first array is safe.
    sink.grad = g if sink.grad is None else sink.grad + g


# ---------------------------------------------------------------- primitives


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul shapes do not chain: {a.data.shape} x {b.data.shape}")
    out_data = a.data @ b.data
    sa, sb = _sink(a), _sink(b)

    def backward(g, b_data, a_data):
        # Frozen operands (backbone residuals, PMA, the head) get no gradient.
        if sa.requires_grad:
            _accum(sa, g @ b_data.T)
        if sb.requires_grad:
            _accum(sb, a_data.T @ g)

    return _record(out_data, (sa, sb), backward, "matmul", _keep((sa, b.data), (sb, a.data)))


def adapted_linear(x, w, a, s, b, alpha=1.0):
    """x @ w + alpha * ((x @ a) @ s) @ b as one tape node; `s=None` gives the
    LoRA form x @ w + alpha * (x @ a) @ b.

    It runs the numpy products of the matmul/scale/add composition it
    replaces, in the same order, and adds the adapter path's gradient into
    `x` before the main path's, as that composition's tape does, so both
    give the same bits. Products whose target needs no gradient are
    skipped. Of the activations, the node keeps only the inputs of the
    trainable factors (x for `a` and for `w`, x @ a for the factor after
    `a`, (x @ a) @ s for `b`), so with `a` and `w` frozen, as in LaMDA, x
    is not kept; the d_out-wide intermediates never are.
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
    sx, sw = _sink(x), _sink(w)
    sf = [_sink(f) for f in factors]
    n = len(factors)
    live = [sx.requires_grad]  # whether each factor's input needs a gradient
    for sk in sf[:-1]:
        live.append(live[-1] or sk.requires_grad)

    def backward(g, *arrays):
        ins, fdat, w_data, x_data = arrays[:n], arrays[n:2 * n], arrays[-2], arrays[-1]
        gk = g if c is None else g * c
        for k in reversed(range(n)):
            if sf[k].requires_grad:
                _accum(sf[k], ins[k].T @ gk)
            if not live[k]:
                break
            gk = gk @ fdat[k].T
        else:  # x's adapter-path share goes in before its main-path share
            _accum(sx, gk)
        if sx.requires_grad:
            _accum(sx, g @ w_data.T)
        if sw.requires_grad:
            _accum(sw, x_data.T @ g)

    # A factor's data carries the gradient back toward x, so it is paired with x.
    saved = (_keep(*zip(sf, ins))
             + tuple([(sx, f.data if lv else None) for f, lv in zip(factors, live)])
             + _keep((sx, w.data), (sw, x.data)))
    return _record(out_data, (sx, sw, *sf), backward, "adapted_linear", saved)


def add(a, b):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add shapes differ: {a.data.shape} + {b.data.shape}")
    out_data = a.data + b.data
    sa, sb = _sink(a), _sink(b)

    def backward(g):
        _accum(sa, g)
        _accum(sb, g)

    return _record(out_data, (sa, sb), backward, "add")


def sub(a, b):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"sub shapes differ: {a.data.shape} - {b.data.shape}")
    out_data = a.data - b.data
    sa, sb = _sink(a), _sink(b)

    def backward(g):
        _accum(sa, g)
        _accum(sb, -g)

    return _record(out_data, (sa, sb), backward, "sub")


def mul(a, b):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul shapes differ: {a.data.shape} * {b.data.shape}")
    out_data = a.data * b.data
    sa, sb = _sink(a), _sink(b)

    def backward(g, b_data, a_data):
        if sa.requires_grad:
            _accum(sa, g * b_data)
        if sb.requires_grad:
            _accum(sb, g * a_data)

    return _record(out_data, (sa, sb), backward, "mul", _keep((sa, b.data), (sb, a.data)))


def scale(a, c):
    c = _dtype(c)
    out_data = a.data * c
    sa = _sink(a)

    def backward(g):
        _accum(sa, g * c)

    return _record(out_data, (sa,), backward, "scale")


def transpose(a):
    out_data = a.data.T.copy()
    sa = _sink(a)

    def backward(g):
        _accum(sa, g.T.copy())

    return _record(out_data, (sa,), backward, "transpose")


def gelu(a):
    """tanh-form GELU: 0.5*x*(1 + tanh(c*(x + 0.044715*x^3))).

    Each product and sum updates a fresh buffer in place. Every step is the
    IEEE operation of the plain formula on the same two operands (a + b
    and a * b commute exactly), so the bits are the formula's, with fewer
    temporaries. A recorded node computes its slope d gelu / dx during the
    forward, so it keeps that one array rather than x and the tanh. The
    slope's parts reuse the tanh's and 1 + t's buffers, so a recorded call
    holds at most four arrays of x's size besides x.
    """
    x = a.data
    c, k = _dtype(_GELU_C), _dtype(_GELU_A)
    t = k * x
    t *= x
    t *= x
    t += x
    t *= c
    np.tanh(t, out=t)
    h = _dtype(0.5) * x
    u = 1 + t
    sa = _sink(a)
    tail = None
    if sa.requires_grad and _active_tape is not None:
        # slope = 0.5 * (1 + t) + tail, made in u's buffer once the output
        # has read u; tail = 0.5 * x * (1 - t * t) * (c * (1 + 3 * k * x * x)),
        # made in t's buffer.
        dinner = (3 * k) * x
        dinner *= x
        dinner += 1
        dinner *= c
        tail = np.multiply(t, t, out=t)
        np.subtract(1, tail, out=tail)
        tail *= h
        tail *= dinner
    out_data = h  # h's last reader is the tail above
    out_data *= u
    slope = None
    if tail is not None:
        slope = u
        slope *= 0.5
        slope += tail

    def backward(g, slope):
        _accum(sa, slope * g)

    return _record(out_data, (sa,), backward, "gelu", _keep((sa, slope)))


def softmax_rows(a):
    z = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    out_data = e / e.sum(axis=1, keepdims=True)
    sa = _sink(a)

    def backward(g, p):
        dot = (g * p).sum(axis=1, keepdims=True)
        _accum(sa, p * (g - dot))

    return _record(out_data, (sa,), backward, "softmax", _keep((sa, out_data)))


def attention(q, k, v, n, heads, mask=None):
    """Multi-head softmax(Q Kᵀ / sqrt(d_h) + mask) V as one tape node.

    q, k, v are (b*n) x d rows grouped into length-n sequences; head h owns
    columns [h*d_h, (h+1)*d_h). `mask` is an optional additive n x n array.
    The heads run as (b, h, n, d_h) stacks through batched matmuls in the
    same operand layouts and operation order as slicing out each sequence
    and head and composing matmul, scale, add and softmax_rows, so both
    give the same bits. The node keeps its own head stacks of q, k and v
    and the probabilities, not the q, k, v arrays.
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
    z = scores - _row_max(scores)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)
    out_data = merge(p @ vs)
    sq, sk, sv = _sink(q), _sink(k), _sink(v)

    def backward(g, p, vs, kt, qs):
        gs = heads_of(g)
        if sq.requires_grad or sk.requires_grad:
            dp = gs @ vs.transpose(0, 1, 3, 2)
            dot = (dp * p).sum(axis=-1, keepdims=True)
            ds = (p * (dp - dot)) * c
            if sq.requires_grad:
                _accum(sq, merge(ds @ kt.transpose(0, 1, 3, 2)))
            if sk.requires_grad:
                _accum(sk, merge((qs.transpose(0, 1, 3, 2) @ ds).transpose(0, 1, 3, 2)))
        if sv.requires_grad:
            _accum(sv, merge(p.transpose(0, 1, 3, 2) @ gs))

    # Every gradient reads p; q's and k's read vs.
    qk = sq.requires_grad or sk.requires_grad
    saved = ((sq, p), (sq, vs if qk else None)) + _keep((sq, kt), (sk, qs))
    return _record(out_data, (sq, sk, sv), backward, "attention", saved)


def _row_max(x):
    """x.max(axis=-1, keepdims=True), read down the columns of a transposed copy.

    numpy reduces a short last axis one row at a time; reducing the leading
    axis of the transpose sweeps every row at once. A max does not round,
    so a row's maximum has one bit pattern, except for a zero: which of
    +0 and -0 wins a tie depends on the order of comparisons, so rows whose
    maximum is zero are reduced again by numpy's row-wise max. Every
    NaN-free row thus gives numpy's bits; a row holding a NaN stays NaN,
    though its sign or payload may differ.
    """
    rows = x.reshape(-1, x.shape[-1])
    top = np.ascontiguousarray(rows.T).max(axis=0)
    zero = top == 0
    if zero.any():
        top[zero] = rows[zero].max(axis=-1)
    return top.reshape(x.shape[:-1] + (1,))


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
    sa, sg, sb = _sink(a), _sink(gain), _sink(bias)
    g_shape, b_shape = gain.data.shape, bias.data.shape

    def backward(g, xhat, inv, gdat):
        if sa.requires_grad:
            gg = g * gdat
            m1 = _row_mean(gg)
            m2 = _row_mean(gg * xhat)
            _accum(sa, (gg - m1 - xhat * m2) * inv)
        # Frozen gain and bias (every adapter run) get no gradient.
        if sg.requires_grad:
            _accum(sg, (g * xhat).sum(axis=0).reshape(g_shape))
        if sb.requires_grad:
            _accum(sb, g.sum(axis=0).reshape(b_shape))

    # The gain's gradient reads xhat too.
    saved = (((sa, xhat if sa.requires_grad or sg.requires_grad else None),)
             + _keep((sa, inv), (sa, gdat)))
    return _record(out_data, (sa, sg, sb), backward, "layer_norm", saved)


def embedding(table, ids):
    ids = np.asarray(ids, dtype=np.int64).reshape(-1)
    if ids.min(initial=0) < 0 or ids.max(initial=0) >= table.data.shape[0]:
        raise ShapeError(f"embedding ids out of range for table {table.data.shape}")
    out_data = table.data[ids]
    st = _sink(table)
    shape, dt = table.data.shape, table.data.dtype

    def backward(g, ids):
        if st.requires_grad:
            gt = np.zeros(shape, dt)
            np.add.at(gt, ids, g)
            _accum(st, gt)

    return _record(out_data, (st,), backward, "embedding", _keep((st, ids)))


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
    zs = z - _row_max(z)
    lse = np.log(np.exp(zs).sum(axis=1, keepdims=True))
    logp = zs - lse
    cols = np.maximum(targets, 0)
    picked = np.where(valid, logp[np.arange(z.shape[0]), cols], 0.0)
    out_data = np.asarray(-picked.sum() / n_valid, dtype=_dtype)
    sl = _sink(logits)

    def backward(g, logp, cols, valid):
        p = np.exp(logp)
        p[np.arange(p.shape[0]), cols] -= 1.0
        p[~valid] = 0.0
        _accum(sl, (float(g) / n_valid) * p.astype(_dtype, copy=False))

    return _record(out_data, (sl,), backward, "cross_entropy",
                   _keep((sl, logp), (sl, cols), (sl, valid)))


def concat_cols(tensors):
    widths = [t.data.shape[1] for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=1)
    sinks = tuple(_sink(t) for t in tensors)

    def backward(g):
        j = 0
        for st, w in zip(sinks, widths):
            _accum(st, g[:, j : j + w])
            j += w

    return _record(out_data, sinks, backward, "concat_cols")


def concat_rows(tensors):
    heights = [t.data.shape[0] for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=0)
    sinks = tuple(_sink(t) for t in tensors)

    def backward(g):
        i = 0
        for st, h in zip(sinks, heights):
            _accum(st, g[i : i + h])
            i += h

    return _record(out_data, sinks, backward, "concat_rows")


def slice_rows(a, i0, i1):
    out_data = a.data[i0:i1].copy()
    sa = _sink(a)
    shape, dt = a.data.shape, a.data.dtype

    def backward(g):
        ga = np.zeros(shape, dt)
        ga[i0:i1] = g
        _accum(sa, ga)

    return _record(out_data, (sa,), backward, "slice_rows")


def slice_cols(a, j0, j1):
    out_data = a.data[:, j0:j1].copy()
    sa = _sink(a)
    shape, dt = a.data.shape, a.data.dtype

    def backward(g):
        ga = np.zeros(shape, dt)
        ga[:, j0:j1] = g
        _accum(sa, ga)

    return _record(out_data, (sa,), backward, "slice_cols")


def tensor_sum(a):
    out_data = np.asarray(a.data.sum(), dtype=_dtype)
    sa = _sink(a)
    shape, dt = a.data.shape, a.data.dtype

    def backward(g):
        _accum(sa, np.full(shape, float(g), dt))

    return _record(out_data, (sa,), backward, "sum")
