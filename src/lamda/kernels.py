"""Hot numeric kernels.

The one-sided cyclic Jacobi sweep (Hestenes 1958) dominates SVD runtime;
`benchmarks/bench_svd.py` times it against the scalar loop it replaces.

The kernel operates on the *transposed* factor matrices so that every
column of the working matrix is a contiguous row (`at[p]`).

A cyclic sweep visits (0, 1), (0, 2), ..., (n-2, n-1), one rotation at a
time. Rotations on disjoint rows commute, so the sweeps run as wavefronts
of that order: pair (p, q) joins wave max(last[p], last[q]) + 1, where
last[i] is the wave of the latest earlier pair on row i. Applied across
sweep boundaries, this rule puts pair (p, q) of sweep s at global wave
s*n + p + q - 1. Global wave s*n + r therefore holds sweep s's
antidiagonal p + q = r + 1 (rows <= r + 1) and, when r <= n - 4, the tail
of sweep s - 1, its antidiagonal p + q = r + n + 1 (rows >= r + 2). A
sweep costs n batched numpy steps instead of n(n-1)/2 scalar ones, and
consecutive sweeps overlap by n - 3 of them. Every rotation still meets
exactly the rows the one-at-a-time loop would hand it. Each step makes the
loop's comparisons and arithmetic elementwise, and its dot products go
through `np.matmul` on (1, m) @ (m, 1) stacks, which numpy sends to the
same BLAS dot as `np.dot` on two rows. The factors are therefore bit for
bit those of the scalar loop (`tests/oracles.py::jacobi_sweeps_cyclic_ref`).
A wave of wide rows runs in slices, which changes no bit either: its pairs
are disjoint.

The loop tests convergence after each sweep, so the head of the next sweep
runs speculatively. It is a no-op whenever the converged sweep rotated
nothing. A converged sweep can still rotate pairs whose relative
off-diagonal is NaN, because the worst value skips NaN; if the next
sweep's head then rotated anything, the kernel starts again from `at`/`vt`
(left untouched until the final write-back) and stops at the converged
sweep.
"""

import functools

import numpy as np

_TINY = 1e-300
# A wave whose gathered rows would exceed this many bytes per array runs in
# equal slices. Unsliced, such waves ran 13-22% slower than the unpipelined
# kernel at n = 192 and 256, and a 64 x 2048 SVD took 2.2x its time with
# 200k page faults: malloc mapped and unmapped the same-sized temporaries
# anew on every wave. Toy shapes never slice.
_SLICE_BYTES = 1 << 18


@functools.cache
def _schedule(n):
    """Per r in range(n), (ip, iq, k_old) for global wave s*n + r: the p and
    q rows of sweep s - 1's pairs (the first k_old) and then of sweep s's."""
    def antidiagonal(total):
        return [(p, total - p) for p in range(n) if p < total - p < n]

    waves = [(antidiagonal(r + n + 1), antidiagonal(r + 1)) for r in range(n)]
    # Every wave is a view of one block: n pairs of small arrays, made amid
    # the first SVD's temporaries and kept for good, fragment the heap
    # (about 3 MB more peak RSS over a run of toy fine-tunes).
    rows = np.array([pair for old, new in waves for pair in old + new], dtype=np.intp)
    ip, iq = rows.reshape(-1, 2).T.copy()
    ip.flags.writeable = iq.flags.writeable = False
    bounds = np.cumsum([len(old) + len(new) for old, new in waves])[:-1]
    return tuple(zip(np.split(ip, bounds), np.split(iq, bounds), (len(old) for old, _ in waves)))


def _dots(x, y):
    """Row-wise dot products, bit for bit `np.dot(x[i], y[i])`.

    np.dot multiplies rows of length 1 as scalars (keeping a -0.0 product)
    and sends longer rows to BLAS dot, as matmul does with each
    (1, m) @ (m, 1) product of the stack.
    """
    if x.shape[1] == 1:
        return x[:, 0] * y[:, 0]
    return (x[:, None, :] @ y[:, :, None]).ravel()


def _wave(work, m, tol, ip, iq, k):
    """Rotate the row pairs (ip, iq) of `work` = [at | vt] in place.

    The first k pairs belong to the older of two sweeps in flight. Returns
    the worst relative off-diagonal of the older and of the newer pairs,
    and how many newer pairs rotated.
    """
    rp, rq = work[ip], work[iq]
    ap, aq = rp[:, :m], rq[:, :m]
    app, aqq, apq = _dots(ap, ap), _dots(aq, aq), _dots(ap, aq)
    denom = np.sqrt(app * aqq)
    # The loop's own comparisons, NaN included: skip only denom <= tiny;
    # a NaN rel neither raises `worst` nor counts as converged.
    keep = ~(denom <= _TINY)
    rel = np.abs(apq) / denom
    top_old = np.fmax.reduce(rel[:k], where=keep[:k], initial=0.0)
    top_new = np.fmax.reduce(rel[k:], where=keep[k:], initial=0.0)
    rot = keep & ~(rel <= tol)
    count = np.count_nonzero(rot)
    if count == 0:
        return top_old, top_new, 0
    rotated_new = np.count_nonzero(rot[k:])
    if count < rot.size:  # pairs left unrotated keep every bit, signed zeros too
        ip, iq, rp, rq = ip[rot], iq[rot], rp[rot], rq[rot]
        app, aqq, apq = app[rot], aqq[rot], apq[rot]
    tau = (aqq - app) / (2.0 * apq)
    root = np.sqrt(1.0 + tau * tau)
    # root - tau is the loop's -tau + root, down to the sign of a NaN.
    t = np.where(tau >= 0.0, 1.0 / (tau + root), -1.0 / (root - tau))
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = (c * t)[:, None]
    c = c[:, None]
    work[ip] = c * rp - s * rq
    work[iq] = s * rp + c * rq
    return top_old, top_new, rotated_new


def _sweeps(work, m, tol, max_sweeps):
    """Up to max_sweeps overlapped cyclic sweeps over the rows of `work`, in
    place. Returns (sweeps, worst, converged, clean); clean is False when
    the last sweep converged after the next sweep's head had rotated a pair.
    """
    if max_sweeps < 1:
        return max_sweeps, 0.0, False, True
    n = max(work.shape[0], 1)  # no rows, like one row, means no pairs
    schedule = _schedule(n)
    lag = max(2 * n - 4, 0)  # global waves from a sweep's first to its last
    slice_pairs = max(1, _SLICE_BYTES // (work.strides[0] or 1))  # bytes per row
    worst = [0.0, 0.0]  # per sweep in flight, by parity
    rotated = [0, 0]
    g = 0
    while True:
        s, r = divmod(g, n)
        ip, iq, k = schedule[r]
        lo = k if s == 0 else 0  # sweep -1 does not exist
        hi = k if s == max_sweeps else ip.size  # sweep max_sweeps never starts
        parts = -(-(hi - lo) // slice_pairs)  # ceiling division; 0 for an empty wave
        for j in range(parts):
            a, b = lo + (hi - lo) * j // parts, lo + (hi - lo) * (j + 1) // parts
            top_old, top_new, rotated_new = _wave(work, m, tol, ip[a:b], iq[a:b], max(k - a, 0))
            worst[(s - 1) % 2] = max(worst[(s - 1) % 2], top_old)
            worst[s % 2] = max(worst[s % 2], top_new)
            rotated[s % 2] += rotated_new
        if g >= lag and (g - lag) % n == 0:  # sweep f has run its last wave
            f = (g - lag) // n
            if worst[f % 2] <= tol:
                return f + 1, worst[f % 2], True, not rotated[(f + 1) % 2]
            if f + 1 == max_sweeps:
                return max_sweeps, worst[f % 2], False, True
            worst[f % 2], rotated[f % 2] = 0.0, 0  # the slot of sweep f + 2
        g += 1


def jacobi_sweeps(at, vt, tol, max_sweeps):
    """Orthogonalize the rows of `at` in place via Jacobi rotations.

    `at` is the n x m transpose of the working matrix (rows = original
    columns), `vt` the n x n transpose of the accumulated rotation
    product, both float64. Returns (sweeps_used,
    worst_rel_offdiag_seen_last_sweep, converged). A pair (p, q) counts as
    converged when |<a_p, a_q>| / (|a_p| * |a_q|) <= tol.
    """
    m = at.shape[1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        work = np.concatenate([at, vt], axis=1)  # one gather and one rotation per wave
        sweeps, worst, converged, clean = _sweeps(work, m, tol, max_sweeps)
        if not clean:  # undo the next sweep's speculative head: rerun, stopping here
            work = np.concatenate([at, vt], axis=1)
            sweeps, worst, converged, _ = _sweeps(work, m, tol, sweeps)
    at[...] = work[:, :m]
    vt[...] = work[:, m:]
    return sweeps, worst, converged
