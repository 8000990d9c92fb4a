import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lamda.errors import ContractError, ShapeError
from lamda.tensor import (_row_max, Tape, Tensor, adapted_linear, add, attention, concat_cols,
                          concat_rows, cross_entropy, embedding, float_mode, gelu,
                          get_float_mode, layer_norm, matmul, mul, scale,
                          set_float_mode, slice_cols, slice_rows, softmax_rows, sub,
                          tensor_sum, transpose)


class TestMatmul:
    def test_identity(self):
        m = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = matmul(Tensor(np.eye(2)), m)
        assert np.array_equal(out.data, m.data)

    def test_zero(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[0.0], [0.0]]))
        assert np.array_equal(out.data, np.zeros((2, 1)))

    def test_against_triple_loop(self, f64):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(5, 3)), rng.normal(size=(3, 4))
        out = matmul(Tensor(a), Tensor(b))
        assert np.abs(out.data - oracles.matmul_ref(a, b)).max() <= 1e-12

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


class TestFrozenOperand:
    def test_frozen_weight_gets_no_gradient(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        w_frozen = Tensor(rng.normal(size=(4, 3)))
        c = Tensor(rng.normal(size=(6, 3)))
        with Tape() as tape:
            grads = tape.backward(tensor_sum(mul(matmul(x, w_frozen), c)))
        assert w_frozen.grad is None and w_frozen not in grads
        # d(sum(y * c))/dy is c itself, so x's gradient is exactly c @ w.T
        assert grads[x].tobytes() == (c.data @ w_frozen.data.T).tobytes()


class TestSoftmax:
    def test_symmetric_row(self):
        out = softmax_rows(Tensor([[0.0, 0.0]]))
        assert np.allclose(out.data, [[0.5, 0.5]])

    def test_no_overflow(self):
        out = softmax_rows(Tensor([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out.data))
        assert out.data[0, 0] == pytest.approx(1.0)

    def test_rows_sum_to_one(self, f64):
        rng = np.random.default_rng(0)
        out = softmax_rows(Tensor(rng.normal(size=(7, 5))))
        assert np.abs(out.data.sum(axis=1) - 1.0).max() <= 1e-6
        assert np.all(out.data >= 0)

    def test_against_reference(self, f64):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 4))
        out = softmax_rows(Tensor(x))
        assert np.abs(out.data - oracles.softmax_ref(x)).max() <= 1e-12


def _causal_mask(n):
    return np.triu(np.full((n, n), -1e9), k=1)


def _attention_by_slices(q, k, v, n, heads, mask):
    """Per-(sequence, head) composition of the general primitives."""
    d_h = q.data.shape[1] // heads
    seq_outs = []
    for s in range(q.data.shape[0] // n):
        qs, ks, vs = (slice_rows(t, s * n, (s + 1) * n) for t in (q, k, v))
        outs = []
        for h in range(heads):
            qh, kh, vh = (slice_cols(t, h * d_h, (h + 1) * d_h) for t in (qs, ks, vs))
            scores = scale(matmul(qh, transpose(kh)), 1.0 / math.sqrt(d_h))
            if mask is not None:
                scores = add(scores, Tensor(mask))
            outs.append(matmul(softmax_rows(scores), vh))
        seq_outs.append(concat_cols(outs))
    return concat_rows(seq_outs)


class TestAttention:
    @pytest.mark.parametrize("causal", [True, False])
    def test_against_reference(self, f64, causal):
        rng = np.random.default_rng(12)
        n, heads = 5, 2
        q, k, v = (rng.normal(size=(2 * n, 6)) for _ in range(3))
        mask = _causal_mask(n) if causal else None
        out = attention(Tensor(q), Tensor(k), Tensor(v), n, heads, mask)
        want = oracles.attention_ref(q, k, v, n, heads, mask)
        assert np.abs(out.data - want).max() <= 1e-12

    @pytest.mark.parametrize("causal", [True, False])
    def test_gradient_check(self, f64, causal):
        rng = np.random.default_rng(13)
        n, heads = 4, 2
        arrs = [rng.normal(size=(2 * n, 6)) for _ in range(3)]
        w = rng.normal(size=(2 * n, 6))
        mask = _causal_mask(n) if causal else None

        def loss(ts):
            return tensor_sum(mul(attention(*ts, n, heads, mask), Tensor(w)))

        ts = [Tensor(a, requires_grad=True) for a in arrs]
        with Tape() as tape:
            grads = tape.backward(loss(ts))
        for t, arr in zip(ts, arrs):
            num = oracles.fd_grad(lambda: float(loss([Tensor(a) for a in arrs]).data), arr)
            denom = max(np.abs(num).max(), 1e-8)
            assert np.abs(grads[t] - num).max() / denom <= 1e-4

    @pytest.mark.parametrize("causal", [True, False])
    @pytest.mark.parametrize("d, heads, n, b", [(32, 2, 8, 4), (64, 4, 16, 8)])
    def test_bitwise_equals_sliced_composition(self, d, heads, n, b, causal):
        """f32 bits of the golden and the toy model's shapes match the
        per-(sequence, head) graph the fused op replaces."""
        rng = np.random.default_rng(14)
        arrs = [rng.normal(size=(b * n, d)) for _ in range(3)]
        w = Tensor(rng.normal(size=(b * n, d)))
        mask = _causal_mask(n) if causal else None
        results = []
        for op in (attention, _attention_by_slices):
            ts = [Tensor(a, requires_grad=True) for a in arrs]
            with Tape() as tape:
                out = op(*ts, n, heads, mask)
                tape.backward(tensor_sum(mul(out, w)))
            results.append([out.data.tobytes()] + [t.grad.tobytes() for t in ts])
        fused, sliced = results
        for name, got, want in zip(("out", "dq", "dk", "dv"), fused, sliced):
            assert got == want, name

    @pytest.mark.parametrize("mode", ["f32", "f64"])
    @pytest.mark.parametrize("mask", ["none", "causal", "-inf"])
    @pytest.mark.parametrize("d, heads, n, b", [(64, 4, 16, 8), (6, 2, 5, 3), (8, 1, 1, 4)])
    def test_bitwise_equals_rowwise_max_expressions(self, mode, mask, d, heads, n, b):
        rng = np.random.default_rng(15)
        masks = {"none": None, "causal": _causal_mask(n),
                 "-inf": np.triu(np.full((n, n), -np.inf), k=1)}
        with float_mode(mode):
            ts = [Tensor(rng.normal(size=(b * n, d)) * 4, requires_grad=True) for _ in range(3)]
            g = Tensor(rng.normal(size=(b * n, d)))
            m = None if masks[mask] is None else masks[mask].astype(g.data.dtype)
            with Tape() as tape:
                out = attention(*ts, n, heads, m)
                tape.backward(tensor_sum(mul(out, g)))
        want = oracles.attention_rowwise_max_ref(*(t.data for t in ts), n, heads, m, g.data)
        got = (out.data,) + tuple(t.grad for t in ts)
        for name, x, ref in zip(("out", "dq", "dk", "dv"), got, want):
            assert x.dtype == ref.dtype and x.tobytes() == ref.tobytes(), name

    def test_one_tape_node(self):
        q, k, v = (Tensor(np.ones((8, 4)), requires_grad=True) for _ in range(3))
        with Tape() as tape:
            attention(q, k, v, 4, 2, _causal_mask(4))
        assert [node._op for node in tape.nodes] == ["attention"]

    def test_qkv_shapes_must_match(self):
        a, b = Tensor(np.zeros((8, 4))), Tensor(np.zeros((8, 6)))
        with pytest.raises(ShapeError, match=r"\(8, 4\).*\(8, 6\)"):
            attention(a, a, b, 4, 2)

    def test_rows_must_split_into_sequences(self):
        a = Tensor(np.zeros((9, 4)))
        with pytest.raises(ShapeError, match=r"9 rows of \(9, 4\).*length-4"):
            attention(a, a, a, 4, 2)

    def test_width_must_split_into_heads(self):
        a = Tensor(np.zeros((8, 6)))
        with pytest.raises(ShapeError, match=r"width 6 of \(8, 6\).*4 heads"):
            attention(a, a, a, 4, 4)

    def test_mask_must_be_n_by_n(self):
        a = Tensor(np.zeros((8, 4)))
        with pytest.raises(ShapeError, match=r"mask shape \(3, 3\) is not \(4, 4\)"):
            attention(a, a, a, 4, 2, _causal_mask(3))


def _adapted_by_primitives(x, w, a, s, b, alpha=1.0):
    """The matmul/scale/add composition that adapted_linear replaces."""
    main = matmul(x, w)
    h = matmul(x, a)
    if s is not None:
        h = matmul(h, s)
    path = matmul(h, b)
    if alpha != 1.0:
        path = scale(path, alpha)
    return add(main, path)


# (x, a, s, b) trainable flags and alpha; s=None is the LoRA form.
_ADAPTED_CASES = {
    "lamda": ((True, False, True, True), 1.0),
    "lamda-x-frozen": ((False, False, True, True), 1.0),
    "lamda-b-frozen": ((True, False, True, False), 1.0),
    "lamda-x-and-b-frozen": ((False, False, True, False), 1.0),
    "lamda-alpha-0.5": ((True, False, True, True), 0.5),
    "lora": ((True, True, None, True), 1.0),
    "lora-x-frozen": ((False, True, None, True), 1.0),
    "lora-alpha-0.5": ((True, True, None, True), 0.5),
}


class TestAdaptedLinear:
    @pytest.mark.parametrize("case", list(_ADAPTED_CASES))
    @pytest.mark.parametrize("bn, d_in, d_out, r", [
        (32, 32, 32, 4), (32, 32, 64, 4), (32, 64, 32, 4),  # golden config
        (128, 64, 64, 8), (128, 64, 256, 8), (128, 256, 64, 8),  # toy model
    ])
    def test_bitwise_equals_five_op_composition(self, bn, d_in, d_out, r, case):
        """f32 output and every gradient match the composition's bits; x also
        feeds a second consumer, so both add its gradient to an existing one."""
        flags, alpha = _ADAPTED_CASES[case]
        rng = np.random.default_rng(15)
        shapes = [(bn, d_in), (d_in, r), (r, r), (r, d_out)]
        arrs = [rng.normal(size=shape) for shape in shapes]
        w = rng.normal(size=(d_in, d_out))
        c = Tensor(rng.normal(size=(bn, d_out + d_in)))
        results = []
        for op in (adapted_linear, _adapted_by_primitives):
            x, a, s, b = (None if live is None else Tensor(arr, requires_grad=live)
                          for arr, live in zip(arrs, flags))
            with Tape() as tape:
                out = op(x, Tensor(w), a, s, b, alpha)
                tape.backward(tensor_sum(mul(concat_cols([out, x]), c)))
            results.append([out.data.tobytes()] + [
                None if t is None or t.grad is None else t.grad.tobytes()
                for t in (x, a, s, b)])
        fused, composed = results
        for name, got, want in zip(("out", "dx", "da", "ds", "db"), fused, composed):
            assert got == want, name

    @pytest.mark.parametrize("lora", [False, True])
    def test_gradient_check(self, f64, lora):
        rng = np.random.default_rng(16)
        x, w, a, s, b, c = (rng.normal(size=shape) for shape in
                            [(6, 5), (5, 4), (5, 3), (3, 3), (3, 4), (6, 4)])
        arrs = [x, w, a, b] if lora else [x, w, a, s, b]

        def loss(ts):
            args = ts[:3] + [None] + ts[3:] if lora else ts
            return tensor_sum(mul(adapted_linear(*args, alpha=0.5), Tensor(c)))

        ts = [Tensor(arr, requires_grad=True) for arr in arrs]
        with Tape() as tape:
            grads = tape.backward(loss(ts))
        for t, arr in zip(ts, arrs):
            num = oracles.fd_grad(lambda: float(loss([Tensor(v) for v in arrs]).data), arr)
            denom = max(np.abs(num).max(), 1e-8)
            assert np.abs(grads[t] - num).max() / denom <= 1e-4

    @pytest.mark.parametrize("lora", [False, True])
    def test_one_tape_node(self, lora):
        x = Tensor(np.ones((8, 6)))
        w = Tensor(np.ones((6, 5)))
        a = Tensor(np.ones((6, 2)), requires_grad=lora)
        s = None if lora else Tensor(np.eye(2), requires_grad=True)
        b = Tensor(np.zeros((2, 5)), requires_grad=True)
        with Tape() as tape:
            adapted_linear(x, w, a, s, b, alpha=2.0)
        assert [node._op for node in tape.nodes] == ["adapted_linear"]
        # the trainable tensors' gradients read only r-wide activations
        # (and x for LoRA's a)
        saved = {id(p): act.shape for p, act in tape.nodes[0]._saved if p.requires_grad}
        want = {id(a): (8, 6), id(b): (8, 2)} if lora else {id(s): (8, 2), id(b): (8, 2)}
        assert saved == want

    def test_shapes_must_chain(self):
        x, w = Tensor(np.zeros((4, 6))), Tensor(np.zeros((6, 5)))
        a, s = Tensor(np.zeros((6, 2))), Tensor(np.zeros((2, 2)))
        with pytest.raises(ShapeError, match=r"x \(4, 6\).*\(3, 5\)"):
            adapted_linear(x, w, a, s, Tensor(np.zeros((3, 5))))
        with pytest.raises(ShapeError, match=r"w \(6, 4\)"):
            adapted_linear(x, Tensor(np.zeros((6, 4))), a, None, Tensor(np.zeros((2, 5))))


@pytest.mark.parametrize("mode", ["f32", "f64"])
@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (37, 100), (128, 256)])
def test_gelu_bitwise_equals_formula(mode, shape):
    rng = np.random.default_rng(18)
    with float_mode(mode):
        x = Tensor(3 * rng.normal(size=shape), requires_grad=True)
        g = Tensor(rng.normal(size=shape))
        with Tape() as tape:
            out = gelu(x)
            tape.backward(tensor_sum(mul(out, g)))
    want_out, want_dx = oracles.gelu_formula_ref(x.data, g.data)
    assert out.data.dtype == want_out.dtype and out.data.tobytes() == want_out.tobytes()
    assert x.grad.dtype == want_dx.dtype and x.grad.tobytes() == want_dx.tobytes()


class TestLayerNorm:
    @pytest.mark.parametrize("mode", ["f32", "f64"])
    @pytest.mark.parametrize("d", [1, 3, 48, 64, 100])
    def test_bitwise_equals_mean_var_formula(self, mode, d):
        rng = np.random.default_rng(17)
        with float_mode(mode):
            x, gain, bias, g = (Tensor(rng.normal(size=shape), requires_grad=True)
                                for shape in [(37, d), d, d, (37, d)])
            with Tape() as tape:
                out = layer_norm(x, gain, bias)
                tape.backward(tensor_sum(mul(out, Tensor(g.data))))
        want = oracles.layer_norm_meanvar_ref(x.data, gain.data, bias.data, g.data)
        for name, got, ref in zip(("out", "dx", "dgain", "dbias"),
                                  (out.data, x.grad, gain.grad, bias.grad), want):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), name

    @pytest.mark.parametrize("mode", ["f32", "f64"])
    def test_frozen_gain_and_bias_get_no_gradient(self, mode):
        rng = np.random.default_rng(18)
        with float_mode(mode):
            x = Tensor(rng.normal(size=(37, 64)), requires_grad=True)
            gain, bias, g = (Tensor(rng.normal(size=shape)) for shape in [64, 64, (37, 64)])
            with Tape() as tape:
                grads = tape.backward(tensor_sum(mul(layer_norm(x, gain, bias), g)))
        assert list(grads) == [x] and gain.grad is None and bias.grad is None
        want = oracles.layer_norm_meanvar_ref(x.data, gain.data, bias.data, g.data)[1]
        assert x.grad.tobytes() == want.tobytes()

    def test_constant_row_zeroes(self):
        x = Tensor(np.full((1, 4), 3.7))
        out = layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        assert np.abs(out.data).max() < 1e-3

    def test_unit_variance_row(self, f64):
        eps = 1e-5
        out = layer_norm(Tensor([[1.0, -1.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps)
        want = np.array([[1.0, -1.0]]) / np.sqrt(1.0 + eps)
        assert np.abs(out.data - want).max() <= 1e-12

    def test_against_reference(self, f64):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 6))
        g = rng.normal(size=6)
        b = rng.normal(size=6)
        out = layer_norm(Tensor(x), Tensor(g), Tensor(b))
        assert np.abs(out.data - oracles.layer_norm_ref(x, g, b)).max() <= 1e-12

    def test_degenerate(self):
        from lamda.errors import NumericalError
        with pytest.raises(NumericalError):
            layer_norm(Tensor([[1.0]]), Tensor([1.0]), Tensor([0.0]), eps=0.0)


class TestBackward:
    def test_sum_gives_ones(self, f64):
        w = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with Tape() as tape:
            grads = tape.backward(tensor_sum(w))
        assert np.array_equal(grads[w], np.ones((2, 3)))

    def test_quadratic_closed_form(self, f64):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(5, 3)))  # frozen
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        with Tape() as tape:
            y = matmul(x, w)
            grads = tape.backward(tensor_sum(mul(y, y)))
        want = 2.0 * x.data.T @ x.data @ w.data
        assert np.abs(grads[w] - want).max() <= 1e-10

    def test_loss_must_be_scalar(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        with Tape() as tape:
            y = scale(w, 2.0)
            with pytest.raises(ContractError):
                tape.backward(y)

    def test_no_grad_leak(self, f64):
        frozen = Tensor(np.ones((2, 2)), requires_grad=False)
        live = Tensor(np.ones((2, 2)), requires_grad=True)
        with Tape() as tape:
            grads = tape.backward(tensor_sum(matmul(frozen, live)))
        assert live in grads and frozen not in grads
        assert frozen.grad is None

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(9)
            x = Tensor(rng.normal(size=(4, 4)))
            w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
            with Tape() as tape:
                loss = tensor_sum(softmax_rows(gelu(matmul(x, w))))
                grads = tape.backward(loss)
            return loss.data.copy(), grads[w].copy()

        l1, g1 = run()
        l2, g2 = run()
        assert np.array_equal(l1, l2) and np.array_equal(g1, g2)


def _composite_loss(arrs):
    """Graph touching every primitive; returns a scalar Tensor."""
    x, w, g, b, emb = arrs
    xt = Tensor(x)
    wt = Tensor(w, requires_grad=True)
    gt = Tensor(g, requires_grad=True)
    bt = Tensor(b, requires_grad=True)
    et = Tensor(emb, requires_grad=True)
    h = embedding(et, np.array([0, 2, 1]))
    y = layer_norm(gelu(matmul(add(xt, h), wt)), gt, bt)
    y = add(sub(y, scale(y, 0.25)), mul(y, y))
    parts = concat_cols([slice_cols(y, 0, 2), slice_cols(y, 2, y.data.shape[1])])
    parts = concat_rows([slice_rows(parts, 0, 1), slice_rows(parts, 1, 3)])
    att = softmax_rows(matmul(parts, transpose(parts)))
    return cross_entropy(matmul(att, parts), np.array([1, -1, 0]))


def test_gradient_check_composite(f64):
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 4))
    w = rng.normal(size=(4, 4))
    g = rng.normal(size=4)
    b = rng.normal(size=4)
    emb = rng.normal(size=(5, 4))
    arrs = [x, w, g, b, emb]
    with Tape() as tape:
        loss = _composite_loss(arrs)
        grads = tape.backward(loss)
    trainables = list(grads)
    assert len(trainables) == 4  # w, g, b, emb
    for t in trainables:
        target = t.data
        num = oracles.fd_grad(lambda: float(_composite_loss(arrs).data), target)
        denom = max(np.abs(num).max(), 1e-8)
        assert np.abs(grads[t] - num).max() / denom <= 1e-4


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(2, 5))
def test_matmul_chain_gradcheck_property(seed, m, k):
    set_float_mode("f64")
    try:
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(m, k))
        b = rng.normal(size=(k, m))
        c = a @ b  # held fixed while a is perturbed

        def loss_val():
            return float(tensor_sum(mul(matmul(Tensor(a), Tensor(b)), Tensor(c))).data)

        at = Tensor(a, requires_grad=True)
        with Tape() as tape:
            grads = tape.backward(tensor_sum(mul(matmul(at, Tensor(b)), Tensor(c))))
        num = oracles.fd_grad(lambda: loss_val(), a)
        denom = max(np.abs(num).max(), 1e-8)
        assert np.abs(grads[at] - num).max() / denom <= 1e-4
    finally:
        set_float_mode("f32")


class TestCrossEntropy:
    def test_matches_manual(self, f64):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(4, 6))
        t = np.array([2, 0, -1, 5])
        out = cross_entropy(Tensor(z), t)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        want = -(logp[0, 2] + logp[1, 0] + logp[3, 5]) / 3
        assert float(out.data) == pytest.approx(want, rel=1e-12)

    def test_ignored_rows_get_no_gradient(self, f64):
        z = Tensor(np.random.default_rng(6).normal(size=(3, 4)), requires_grad=True)
        with Tape() as tape:
            grads = tape.backward(cross_entropy(z, np.array([1, -1, 2])))
        assert np.array_equal(grads[z][1], np.zeros(4))


    @pytest.mark.parametrize("mode", ["f32", "f64"])
    @pytest.mark.parametrize("rows, vocab", [(128, 32), (7, 5), (3, 1)])
    def test_bitwise_equals_rowwise_max_expressions(self, mode, rows, vocab):
        rng = np.random.default_rng(7)
        targets = rng.integers(-1, vocab, size=rows)
        targets[0] = vocab - 1
        with float_mode(mode):
            z = Tensor(rng.normal(size=(rows, vocab)) * 8, requires_grad=True)
            with Tape() as tape:
                loss = cross_entropy(z, targets)
                tape.backward(loss)
        want = oracles.cross_entropy_rowwise_max_ref(z.data, targets, 1.0)
        for name, x, ref in zip(("loss", "dz"), (loss.data, z.grad), want):
            assert x.dtype == ref.dtype and x.tobytes() == ref.tobytes(), name


def _row_max_cases(dtype, shape, seed):
    """Rows of one shape: Gaussian, ±0 ties, ±inf entries and -1e9 masks."""
    rng = np.random.default_rng(seed)
    x = (rng.normal(size=shape) * 10).astype(dtype)
    zeros = rng.choice(np.array([0.0, -0.0], dtype=dtype), size=shape)
    ties = np.where(rng.random(shape) < 0.5, x.max(axis=-1, keepdims=True), x)
    inf = np.where(rng.random(shape) < 0.1, rng.choice([np.inf, -np.inf], size=shape), x)
    all_neg_inf = np.full(shape, -np.inf, dtype=dtype)
    masked = x + np.triu(np.full(shape[-2:], -1e9), k=1).astype(dtype)
    return {"normal": x, "signed-zeros": zeros, "ties": ties, "inf": inf.astype(dtype),
            "all-minus-inf": all_neg_inf, "masked": masked,
            "masked-zeros": np.where(masked < -1, dtype(-1e9), zeros)}


_ROW_MAX_SHAPES = [(8, 4, 16, 16), (128, 32), (2, 3, 5), (6, 1), (1, 9)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", _ROW_MAX_SHAPES)
@pytest.mark.parametrize("seed", range(3))
def test_row_max_bytes_equal_numpy_max(dtype, shape, seed):
    for case, x in _row_max_cases(dtype, shape, seed).items():
        got, want = _row_max(x), x.max(axis=-1, keepdims=True)
        assert got.dtype == want.dtype and got.shape == want.shape, case
        assert got.tobytes() == want.tobytes(), case


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", _ROW_MAX_SHAPES)
def test_row_max_keeps_nan_rows_nan(dtype, shape):
    rng = np.random.default_rng(8)
    x = rng.normal(size=shape).astype(dtype)
    rows = x.reshape(-1, shape[-1])
    nan_rows = rng.random(rows.shape[0]) < 0.3
    nan_rows[0] = True
    rows[nan_rows, rng.integers(0, shape[-1], size=int(nan_rows.sum()))] = np.nan
    got = _row_max(x).reshape(-1)
    want = x.max(axis=-1, keepdims=True).reshape(-1)
    assert np.isnan(got[nan_rows]).all()
    assert got[~nan_rows].tobytes() == want[~nan_rows].tobytes()


def test_embedding_backward_scatters(f64):
    table = Tensor(np.zeros((4, 3)), requires_grad=True)
    with Tape() as tape:
        out = embedding(table, np.array([1, 1, 3]))
        grads = tape.backward(tensor_sum(out))
    want = np.zeros((4, 3))
    want[1] = 2.0
    want[3] = 1.0
    assert np.array_equal(grads[table], want)


def test_float_mode_switch():
    set_float_mode("f64")
    assert Tensor([1.0]).data.dtype == np.float64
    assert get_float_mode() == "f64"
    set_float_mode("f32")
    assert Tensor([1.0]).data.dtype == np.float32
