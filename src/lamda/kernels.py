"""Hot numeric kernels.

The one-sided cyclic Jacobi sweep (Hestenes 1958) dominates SVD runtime;
`benchmarks/bench_svd.py` times it against the scalar loop it replaces.

The kernel operates on the *transposed* factor matrices so that every
column of the working matrix is a contiguous row (`at[p]`).

A cyclic sweep visits (0, 1), (0, 2), ..., (n-2, n-1), one rotation at a
time. Rotations on disjoint rows commute, so the sweep runs as wavefronts
of that order: pair (p, q) joins wave max(last[p], last[q]) + 1, where
last[i] is the wave of the latest earlier pair on row i. Every rotation
then meets exactly the rows the one-at-a-time loop would hand it, and a
sweep is 2n - 3 batched numpy steps instead of n(n-1)/2 scalar ones. Each
step makes the loop's comparisons and arithmetic elementwise, and its dot
products go through `np.matmul` on (1, m) @ (m, 1) stacks, which numpy
sends to the same BLAS dot as `np.dot` on two rows. The factors are
therefore bit-for-bit those of the scalar loop
(`tests/oracles.py::jacobi_sweeps_cyclic_ref`).
"""

import functools

import numpy as np

_TINY = 1e-300


@functools.cache
def _waves(n):
    """The (p rows, q rows) index arrays of each wave of one cyclic sweep."""
    last = [-1] * n
    waves = []
    for p in range(n - 1):
        for q in range(p + 1, n):
            wave = max(last[p], last[q]) + 1
            last[p] = last[q] = wave
            if wave == len(waves):
                waves.append([])
            waves[wave].append((p, q))
    out = []
    for pairs in waves:
        ip, iq = np.array(pairs, dtype=np.intp).T.copy()
        ip.flags.writeable = iq.flags.writeable = False
        out.append((ip, iq))
    return tuple(out)


def _dots(x, y):
    """Row-wise dot products, bit for bit `np.dot(x[i], y[i])`.

    np.dot multiplies rows of length 1 as scalars (keeping a -0.0 product)
    and sends longer rows to BLAS dot, as matmul does with each
    (1, m) @ (m, 1) product of the stack.
    """
    if x.shape[1] == 1:
        return x[:, 0] * y[:, 0]
    return (x[:, None, :] @ y[:, :, None]).ravel()


def _sweep(work, m, tol):
    """One cyclic sweep over the rows of `work` = [at | vt], in place;
    returns the worst relative off-diagonal it saw."""
    worst = 0.0
    for ip, iq in _waves(work.shape[0]):
        rp, rq = work[ip], work[iq]
        ap, aq = rp[:, :m], rq[:, :m]
        app, aqq, apq = _dots(ap, ap), _dots(aq, aq), _dots(ap, aq)
        denom = np.sqrt(app * aqq)
        # The loop's own comparisons, NaN included: skip only denom <= tiny;
        # a NaN rel neither raises `worst` nor counts as converged.
        keep = ~(denom <= _TINY)
        rel = np.abs(apq) / denom
        top = np.fmax.reduce(np.where(keep, rel, 0.0))
        if top > worst:
            worst = top
        rot = keep & ~(rel <= tol)
        count = np.count_nonzero(rot)
        if count == 0:
            continue
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
    return worst


def jacobi_sweeps(at, vt, tol, max_sweeps):
    """Orthogonalize the rows of `at` in place via Jacobi rotations.

    `at` is the n x m transpose of the working matrix (rows = original
    columns), `vt` the n x n transpose of the accumulated rotation
    product, both float64. Returns (sweeps_used,
    worst_rel_offdiag_seen_last_sweep, converged). A pair (p, q) counts as
    converged when |<a_p, a_q>| / (|a_p| * |a_q|) <= tol.
    """
    m = at.shape[1]
    work = np.concatenate([at, vt], axis=1)  # one gather and one rotation per wave
    result = max_sweeps, 0.0, False
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for sweep in range(max_sweeps):
            worst = _sweep(work, m, tol)
            if worst <= tol:
                result = sweep + 1, worst, True
                break
            result = max_sweeps, worst, False
    at[...] = work[:, :m]
    vt[...] = work[:, m:]
    return result
