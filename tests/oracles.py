"""Independent reference implementations used only to check the package.

Nothing here imports the code paths under test: the matmul oracle is a
triple loop, the eigensolver is a classical two-sided cyclic Jacobi on
the symmetric Gram matrix, the one-sided Jacobi sweep is the scalar
rotation-at-a-time loop, Adam keeps separate dense and row-masked
update paths slot by slot, and gradients come from central finite
differences. The `*_rowwise_max_ref` functions are the attention and
cross-entropy expressions as they were before their row maxima moved to
`tensor._row_max`, kept to pin those ops byte for byte. In the same way
`svd_factors_loop_ref` is the SVD post-processing as it was, column by
column, and `adapted_by_primitives` is the adapted linear as the tape's
matmul, scale and add nodes composed it before the fused op.
"""

import math

import numpy as np

from lamda.tensor import add, matmul, scale


def matmul_ref(a, b):
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += float(a[i, t]) * float(b[t, j])
            out[i, j] = acc
    return out


def softmax_ref(x):
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(x)
    return e / e.sum(axis=1, keepdims=True)


def attention_ref(q, k, v, n, heads, mask=None):
    """Multi-head attention by loops over sequences and heads."""
    q, k, v = (np.asarray(t, dtype=np.float64) for t in (q, k, v))
    rows, d = q.shape
    dh = d // heads
    out = np.zeros((rows, d), dtype=np.float64)
    for s in range(rows // n):
        r = slice(s * n, (s + 1) * n)
        for h in range(heads):
            c = slice(h * dh, (h + 1) * dh)
            scores = q[r, c] @ k[r, c].T / np.sqrt(dh)
            if mask is not None:
                scores = scores + mask
            out[r, c] = softmax_ref(scores) @ v[r, c]
    return out


def attention_rowwise_max_ref(q, k, v, n, heads, mask, g):
    """Fused attention's forward and backward with numpy's row-wise max, in
    the array dtype: (out, d_q, d_k, d_v) for the upstream gradient g."""
    rows, d = q.shape
    b, dh = rows // n, d // heads
    c = q.dtype.type(1.0 / math.sqrt(dh))

    def heads_of(x):
        return x.reshape(b, n, heads, dh).transpose(0, 2, 1, 3)

    def merge(x):
        return x.transpose(0, 2, 1, 3).reshape(rows, d)

    qs = np.ascontiguousarray(heads_of(q))
    kt = np.ascontiguousarray(heads_of(k).transpose(0, 1, 3, 2))
    vs = np.ascontiguousarray(heads_of(v))
    scores = (qs @ kt) * c
    if mask is not None:
        scores = scores + mask
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    gs = heads_of(g)
    dp = gs @ vs.transpose(0, 1, 3, 2)
    ds = (p * (dp - (dp * p).sum(axis=-1, keepdims=True))) * c
    return (merge(p @ vs), merge(ds @ kt.transpose(0, 1, 3, 2)),
            merge((qs.transpose(0, 1, 3, 2) @ ds).transpose(0, 1, 3, 2)),
            merge(p.transpose(0, 1, 3, 2) @ gs))


def cross_entropy_rowwise_max_ref(z, targets, g):
    """Mean cross-entropy and its logit gradient with numpy's row-wise max,
    in the array dtype: (loss, d_z) for the upstream scalar gradient g."""
    dt = z.dtype.type
    valid = targets >= 0
    n_valid = int(valid.sum())
    rows, picks = np.arange(z.shape[0]), np.maximum(targets, 0)
    zs = z - z.max(axis=1, keepdims=True)
    logp = zs - np.log(np.exp(zs).sum(axis=1, keepdims=True))
    loss = np.asarray(-np.where(valid, logp[rows, picks], 0.0).sum() / n_valid, dtype=dt)
    p = np.exp(logp)
    p[rows, picks] -= 1.0
    p[~valid] = 0.0
    return loss, (float(g) / n_valid) * p.astype(dt)


def layer_norm_ref(x, gain, bias, eps=1e-5):
    x = np.asarray(x, dtype=np.float64)
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def layer_norm_meanvar_ref(x, gain, bias, g, eps=1e-5):
    """LayerNorm forward and backward written with np.mean and np.var, in the
    array dtype: (out, d_x, d_gain, d_bias) for the upstream gradient g."""
    dt = x.dtype.type
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + dt(eps))
    xhat = (x - mu) * inv
    gdat = gain.reshape(1, -1)
    out = xhat * gdat + bias.reshape(1, -1)
    gg = g * gdat
    m1 = gg.mean(axis=1, keepdims=True)
    m2 = (gg * xhat).mean(axis=1, keepdims=True)
    dx = (gg - m1 - xhat * m2) * inv
    return out, dx, (g * xhat).sum(axis=0), g.sum(axis=0)


def gelu_formula_ref(x, g):
    """tanh-form GELU forward and backward as plain expressions in the array
    dtype: (out, d_x) for the upstream gradient g."""
    dt = x.dtype.type
    c, k = dt(math.sqrt(2.0 / math.pi)), dt(0.044715)
    t = np.tanh(c * (x + k * x * x * x))
    out = dt(0.5) * x * (1 + t)
    dinner = c * (1 + 3 * k * x * x)
    return out, g * (0.5 * (1 + t) + 0.5 * x * (1 - t * t) * dinner)


def symeig_jacobi(sym, tol=1e-14, max_sweeps=100):
    """Eigenvalues of a symmetric matrix via two-sided cyclic Jacobi."""
    a = np.array(sym, dtype=np.float64)
    n = a.shape[0]
    scale = max(np.abs(np.diag(a)).max(), 1e-300)
    for _ in range(max_sweeps):
        off = np.abs(a - np.diag(np.diag(a))).max()
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = 0.5 * np.arctan2(2.0 * apq, a[q, q] - a[p, p])
                c, s = np.cos(theta), np.sin(theta)
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp = a[:, p].copy()
                cq = a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
    return np.sort(np.diag(a))[::-1]


def singular_values_ref(w):
    """Descending singular values from the Gram-matrix eigensolver above."""
    w = np.asarray(w, dtype=np.float64)
    gram = w.T @ w if w.shape[0] >= w.shape[1] else w @ w.T
    eig = symeig_jacobi(gram)
    return np.sqrt(np.maximum(eig, 0.0))


_TINY = 1e-300


def jacobi_sweeps_cyclic_ref(ats, compute_uv, tol, max_sweeps):
    """`kernels.jacobi_sweeps` as the scalar cyclic loop, one rotation at a
    time: the kernel's arguments and results, (at, vt, sweeps, worst,
    converged), as fresh arrays. Each problem's loop runs in place on a copy
    of its operand and an identity vt (with no columns when compute_uv is
    False)."""
    count = len(ats)
    n, m = ats[0].shape if count else np.shape(ats)[1:] or (0, 0)
    at = np.array(ats, dtype=np.float64).reshape(count, n, m)
    vt = np.tile(np.eye(n, n if compute_uv else 0), (count, 1, 1))
    sweeps, worst, converged = np.zeros(count, int), np.zeros(count), np.zeros(count, bool)
    with np.errstate(all="ignore"):
        for b in range(count):
            sweeps[b], worst[b], converged[b] = _cyclic_loop(at[b], vt[b], tol, max_sweeps)
    return at, vt, sweeps, worst, converged


def _cyclic_loop(at, vt, tol, max_sweeps):
    """Orthogonalize the rows of `at` in place via Jacobi rotations.

    `at` is the n x m transpose of the working matrix (rows = original
    columns), `vt` the transpose of the accumulated rotation product.
    Returns (sweeps_used, worst_rel_offdiag_seen_last_sweep, converged). A
    pair (p, q) counts as converged when |<a_p, a_q>| / (|a_p| * |a_q|) <= tol.
    """
    n = at.shape[0]
    worst = 0.0
    for sweep in range(max_sweeps):
        worst = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                app = np.dot(at[p], at[p])
                aqq = np.dot(at[q], at[q])
                apq = np.dot(at[p], at[q])
                denom = math.sqrt(app * aqq)
                if denom <= _TINY:
                    continue
                rel = abs(apq) / denom
                if rel > worst:
                    worst = rel
                if rel <= tol:
                    continue
                tau = (aqq - app) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                new_p = c * at[p] - s * at[q]
                at[q] = s * at[p] + c * at[q]
                at[p] = new_p
                new_vp = c * vt[p] - s * vt[q]
                vt[q] = s * vt[p] + c * vt[q]
                vt[p] = new_vp
        if worst <= tol:
            return sweep + 1, worst, True
    return max_sweeps, worst, False


def svd_factors_loop_ref(at, vt, flipped, exponent):
    """(u, sigma, v) from the Jacobi kernel's rows `at` and rotations `vt`,
    one column at a time: the normalization, the zeroing and sequential
    completion of zero singular directions, and the sign fix."""
    sigma = np.sqrt(np.einsum("ij,ij->i", at, at))
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    u = at[order].T.copy()
    v = vt[order].T.copy()
    zero_cols = []
    for j in range(sigma.shape[0]):
        if sigma[j] >= 2.0**-511:  # a smaller squared norm is subnormal
            u[:, j] /= sigma[j]
        else:
            sigma[j] = 0.0
            u[:, j] = 0.0
            zero_cols.append(j)
    m = u.shape[0]
    for j in zero_cols:
        for i in range(m):
            cand = np.zeros(m)
            cand[i] = 1.0
            for jj in range(u.shape[1]):
                col = u[:, jj]
                if jj != j and col @ col > 0.5:
                    cand -= (cand @ col) * col
            nrm = np.linalg.norm(cand)
            if nrm > 0.5:
                u[:, j] = cand / nrm
                break
    for j in range(u.shape[1]):
        col = u[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if nz.size and col[nz[0]] < 0:
            u[:, j] = -col
            v[:, j] = -v[:, j]
    if exponent:
        sigma = np.ldexp(sigma, -exponent)
    return (v, sigma, u) if flipped else (u, sigma, v)


def adapted_by_primitives(x, w, a, s, b, alpha=1.0):
    """The matmul/scale/add composition that `tensor.adapted_linear` replaces."""
    main = matmul(x, w)
    h = matmul(x, a)
    if s is not None:
        h = matmul(h, s)
    path = matmul(h, b)
    if alpha != 1.0:
        path = scale(path, alpha)
    return add(main, path)


def fd_grad(f, arr, h=1e-5):
    """Central finite differences of scalar f() w.r.t. the entries of arr."""
    g = np.zeros_like(arr, dtype=np.float64)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        old = arr[idx]
        arr[idx] = old + h
        fp = f()
        arr[idx] = old - h
        fm = f()
        arr[idx] = old
        g[idx] = (fp - fm) / (2.0 * h)
    return g


def quantile_assignment_ref(sorted_modules, ranks_ascending):
    """Brute-force quantile rule: module at position i (ascending score)
    belongs to quantile q iff floor(qL/S) <= i < floor((q+1)L/S) and gets
    the q-th largest rank."""
    n = len(sorted_modules)
    s = len(ranks_ascending)
    desc = list(reversed(ranks_ascending))
    out = {}
    for i, module in enumerate(sorted_modules):
        for q in range(s):
            if q * n // s <= i < (q + 1) * n // s:
                out[module] = desc[q]
                break
    return out


class AdamTwoPathRef:
    """Adam with a dense path for parameters added without live rows and a
    row-masked path for the rest; the package's optimizer must match it
    bit for bit."""

    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.slots = {}

    def add_param(self, name, tensor, live_rows=None):
        self.slots[name] = {"tensor": tensor, "live": live_rows,
                            "m": np.zeros_like(tensor.data), "v": np.zeros_like(tensor.data)}

    def set_live_rows(self, name, rows):
        slot = self.slots[name]
        slot["live"] = rows
        slot["m"][rows:] = 0.0
        slot["v"][rows:] = 0.0
        slot["tensor"].requires_grad = rows > 0

    def live_scalars(self):
        total = 0
        for slot in self.slots.values():
            data = slot["tensor"].data
            rows = data.shape[0] if slot["live"] is None else slot["live"]
            total += rows * (data.size // data.shape[0])
        return total

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for slot in self.slots.values():
            tensor, live = slot["tensor"], slot["live"]
            g = tensor.grad
            if g is None or live == 0:
                continue
            if live is None:
                m, v = slot["m"], slot["v"]
            else:
                g = g[:live]
                m, v = slot["m"][:live], slot["v"][:live]
            m += (1.0 - self.beta1) * (g - m)
            v += (1.0 - self.beta2) * (g * g - v)
            upd = (self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)).astype(
                tensor.data.dtype
            )
            if live is None:
                tensor.data -= upd
            else:
                tensor.data[:live] -= upd

    def zero_grad(self):
        for slot in self.slots.values():
            slot["tensor"].grad = None
