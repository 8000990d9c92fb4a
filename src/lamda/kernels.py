"""Hot numeric kernels.

The one-sided cyclic Jacobi sweep (Hestenes 1958) dominates SVD runtime;
`benchmarks/bench_svd.py` times it against the scalar loop it replaces.

The kernel operates on the *transposed* factor matrices so that every
column of the working matrix is a contiguous row (`at[p]`). The kernel
copies the caller's operands into one buffer, each problem's n rows of
[at | vt] after the previous problem's, and returns views of it.

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
through `np.vecdot`, which numpy sends to the same BLAS dot as `np.dot` on
two rows of two or more entries (a pair needs n >= 2, so m >= 2). The
factors are therefore bit for bit those of the scalar loop
(`tests/oracles.py::jacobi_sweeps_cyclic_ref`). Under the malloc thresholds
set at import (`_set_malloc_thresholds`), the waves' same-sized temporaries
stay resident from one wave to the next. A wave runs whole, so the
kernel's peak grows like 4 * B * (n/2) * (n + m) * 8 bytes for a stack of
B n x m problems, and a wave whose gathered rows pass 32 MB per array
(n of about 2048 for one square problem) maps its temporaries anew.

Each numpy step costs a few microseconds whatever its size, and a toy
64 x 64 problem takes about 700 of them, so one call sweeps a stack of B
independent problems of one shape. Each wave gathers the same pairs of
every problem (row indices offset by the problem's first row), and every
problem keeps its own worst value, convergence test and stop. A problem's
pairs meet the same rows and the same arithmetic as in its own call, so
its results are bit for bit the same.

The rotations' decisions read only the `at` part of each row, so with
`compute_uv` False the rows carry no `vt` columns: the kernel then
computes singular values only (LAPACK's `DGESVJ` with JOBV='N'), with
every bit of `at` and of the results as in the full run and about half
the rotation work of a square problem. A wave gathers its rows as copies,
rotates them in place and scatters them back.

The head of the next sweep runs before a sweep's convergence test. Inside
the contract that `jacobi_sweeps` checks first (n <= m, finite, no dot
product overflows), and `svd` hands over nothing else, every relative
off-diagonal is finite, so after a converged sweep that head rotates nothing.
"""

import ctypes
import functools
import math
import os

import numpy as np

from .errors import ContractError

_TINY = 1e-300
_SAFE_EXP = 255  # an operand's largest |entry| is at most 2**_SAFE_EXP / sqrt(n * m)


def _set_malloc_thresholds():
    """Make glibc's malloc keep freed memory for reuse (mallopt(3)).

    By default glibc maps large blocks anew each time and hands the free top
    of its heap back to the OS, so same-sized numpy temporaries, wave after
    wave and training step after training step, fault their pages in again:
    about 100k minor faults in a fresh process's first `svd_many` of the toy
    backbone. Here blocks up to 32 MB come from the heap, which keeps up to
    64 MB free. This sets the allocator of the whole process that imports
    `lamda`; a libc without `mallopt` (macOS) keeps its own, and Windows,
    whose ctypes cannot open the process itself, is left alone.
    """
    mallopt = None if os.name == "nt" else getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_set_malloc_thresholds()


@functools.cache
def _schedule(n):
    """(ip, iq, waves): the p and q rows of every pair, wave after wave, and
    per r in range(n), (cut, k_old) for global wave s*n + r, whose pairs are
    ip[cut], iq[cut]: sweep s - 1's (the first k_old) and then sweep s's."""
    def antidiagonal(total):
        return [(p, total - p) for p in range(n) if p < total - p < n]

    waves = [(antidiagonal(r + n + 1), antidiagonal(r + 1)) for r in range(n)]
    # Every wave is a slice of one block: n pairs of small arrays, made amid
    # the first SVD's temporaries and kept for good, fragment the heap
    # (about 3 MB more peak RSS over a run of toy fine-tunes).
    rows = np.array([pair for old, new in waves for pair in old + new], dtype=np.intp)
    ip, iq = rows.reshape(-1, 2).T.copy()
    ip.flags.writeable = iq.flags.writeable = False
    starts = np.cumsum([0] + [len(old) + len(new) for old, new in waves]).tolist()
    return ip, iq, [(slice(a, b), len(old)) for a, b, (old, _) in zip(starts, starts[1:], waves)]


def _wave(work, m, tol, ip, iq, k, out):
    """Rotate the row pairs (ip, iq) of `work` = [at | vt] in place.

    Row a of the (A, P) index arrays holds one problem's pairs, of which the
    first k belong to the older of two sweeps in flight. Writes, per
    problem, the worst relative off-diagonal of the older and of the newer
    pairs into out = (old, new).
    """
    # Gathered copies; `take` costs under half of work[ip] on a wave's rows.
    rp, rq = work.take(ip, axis=0), work.take(iq, axis=0)
    ap, aq = rp[..., :m], rq[..., :m]
    app, aqq, apq = np.vecdot(ap, ap), np.vecdot(aq, aq), np.vecdot(ap, aq)
    denom = np.sqrt(app * aqq)
    # The loop's own comparisons, NaN included: a pair with denom <= tiny
    # is skipped (its rel of -inf neither raises `worst` nor rotates, for
    # any tol but NaN); a NaN rel neither raises `worst` nor counts as
    # converged.
    rel = np.abs(apq) / denom
    rel[denom <= _TINY] = -np.inf
    np.fmax.reduce(rel[:, :k], axis=1, initial=0.0, out=out[0])
    np.fmax.reduce(rel[:, k:], axis=1, initial=0.0, out=out[1])
    rot = ~(rel <= tol)
    count = np.count_nonzero(rot)
    if count == 0:
        return
    if count < rot.size:  # pairs left unrotated keep every bit, signed zeros too
        ip, iq, rp, rq = ip[rot], iq[rot], rp[rot], rq[rot]
        app, aqq, apq = app[rot], aqq[rot], apq[rot]
    tau = (aqq - app) / (2.0 * apq)
    root = np.sqrt(1.0 + tau * tau)
    # root - tau is the loop's -tau + root, down to the sign of a NaN.
    t = np.where(tau >= 0.0, 1.0 / (tau + root), -1.0 / (root - tau))
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = (c * t)[..., None]
    c = c[..., None]
    # The new q rows are made in the gathered copies: the same products and
    # sums, in the same operand order, as c * rp - s * rq and
    # s * rp + c * rq, with two temporaries for six.
    new_p = c * rp
    new_p -= s * rq
    np.multiply(s, rp, out=rp)
    np.multiply(c, rq, out=rq)
    rp += rq
    work[ip] = new_p
    work[iq] = rp


def _offset_waves(n, base):
    """The schedule's waves for the problems whose rows start at `base`:
    per r, (A, P) row indices, one row of pairs per problem, and k_old.
    Every wave is a view of one block per index array."""
    ip, iq, waves = _schedule(n)
    ip, iq = ip + base[:, None], iq + base[:, None]
    return [(ip[:, cut], iq[:, cut], k) for cut, k in waves]


def _sweeps(work, count, n, m, tol, max_sweeps):
    """Up to max_sweeps overlapped cyclic sweeps, in place, over `count`
    problems of n rows each (problem b's are rows b*n .. b*n + n - 1).

    Returns arrays (sweeps, worst, converged) of length count.
    """
    sweeps = np.full(count, max_sweeps)
    worst = np.zeros(count)
    converged = np.zeros(count, dtype=bool)
    if max_sweeps < 1 or count == 0:
        return sweeps, worst, converged
    n_eff = max(n, 1)  # no rows, like one row, means no pairs
    lag = max(2 * n_eff - 4, 0)  # global waves from a sweep's first to its last
    # Sweep f's worst values, one column per running problem, are in
    # worst_of[f % 2]: row r from its newer pairs in wave f*n + r, row n + r
    # from its older pairs in wave (f + 1)*n + r, and 0 where it has none.
    worst_of = np.zeros((2, 2 * n_eff, count))
    live = np.arange(count)  # problems still sweeping
    waves = _offset_waves(n_eff, n * live)
    g = 0
    while True:
        s, r = divmod(g, n_eff)
        ip, iq, k = waves[r]
        out = worst_of[(s - 1) % 2, n_eff + r], worst_of[s % 2, r]
        lo = k if s == 0 else 0  # sweep -1 does not exist
        hi = k if s == max_sweeps else ip.shape[1]  # sweep max_sweeps never starts
        _wave(work, m, tol, ip[:, lo:hi], iq[:, lo:hi], k - lo, out)
        if g >= lag and (g - lag) % n_eff == 0:  # sweep f has run its last wave
            f = (g - lag) // n_eff
            top = worst_of[f % 2].max(axis=0)
            done = top <= tol
            stop = np.ones_like(done) if f + 1 == max_sweeps else done
            if stop.any():
                ended = live[stop]
                sweeps[ended], worst[ended], converged[ended] = f + 1, top[stop], done[stop]
                live = live[~stop]
                if live.size == 0:
                    return sweeps, worst, converged
                worst_of = worst_of[:, :, ~stop]
                waves = _offset_waves(n_eff, n * live)
        g += 1


def jacobi_sweeps(ats, compute_uv, tol, max_sweeps):
    """Orthogonalize the rows of B operands of one shape via Jacobi rotations.

    `ats` holds B n x m float64 operands, as a sequence or a (B, n, m)
    array: the transposes of the working matrices (rows = original
    columns). They are never written to. Returns (at, vt, sweeps, worst,
    converged): `at` (B, n, m) holds the orthogonalized rows, `vt` the
    transposes of the accumulated rotation products, (B, n, n), or (B, n, 0)
    with `compute_uv` False; both are views of the kernel's one buffer. Per
    problem, the sweeps used, the worst relative off-diagonal of the last
    sweep and whether it converged: a pair (p, q) counts as converged when
    |<a_p, a_q>| / (|a_p| * |a_q|) <= tol.

    Before any wave it raises ContractError, naming the first operand outside
    the contract: n > m, or a largest |entry| that is not finite or passes
    2**_SAFE_EXP / sqrt(n * m).
    """
    count = len(ats)
    n, m = ats[0].shape if count else np.shape(ats)[1:] or (0, 0)
    if count and n > m:
        raise ContractError(f"jacobi_sweeps operand 0 is {n} x {m}: more rows than columns")
    work = np.empty((count, n, m + (n if compute_uv else 0)))
    work[:, :, m:] = np.eye(n, work.shape[2] - m)
    for rows, at in zip(work, ats):
        rows[:, :m] = at
    at = work[:, :, :m]
    top = np.maximum(at.max(axis=(1, 2), initial=0.0), -at.min(axis=(1, 2), initial=0.0))
    bad = np.flatnonzero(~(top <= 2.0**_SAFE_EXP / math.sqrt(max(n * m, 1))))  # NaN too
    if bad.size:
        raise ContractError(
            f"jacobi_sweeps operand {bad[0]} has largest |entry| {top[bad[0]]:.3e}: it must be "
            f"finite and at most 2**{_SAFE_EXP} / sqrt({n} * {m})")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sweeps, worst, converged = _sweeps(
            work.reshape(count * n, work.shape[2]), count, n, m, tol, max_sweeps)
    return at, work[:, :, m:], sweeps, worst, converged
