import ctypes
import hashlib
import json
import os
import subprocess
import sys
import types

import numpy as np
import pytest

import oracles
from conftest import OPENBLAS_THREADS_AT_START
from lamda import kernels
from lamda.svd import svd

_CASES = ((0, (12, 8)), (1, (8, 8)), (2, (40, 16)))


def _python(code, timeout=None, **env):
    """Run `code` in a fresh interpreter that can import this module; return stdout.

    The child is killed after `timeout` seconds, if given. Every other
    keyword sets that environment variable, or unsets it when None.
    """
    full = dict(os.environ)
    full["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.dirname(os.path.abspath(__file__)), full.get("PYTHONPATH")) if p
    )
    for key, value in env.items():
        if value is None:
            full.pop(key, None)
        else:
            full[key] = value
    return subprocess.run([sys.executable, "-c", code], check=True, env=full,
                          stdout=subprocess.PIPE, text=True, timeout=timeout).stdout


def _sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _kernel_runs():
    runs = []
    for seed, shape in _CASES:
        w = np.random.default_rng(seed).normal(size=shape)
        at, vt, sweeps, _, converged = kernels.jacobi_sweeps([w.T], True, 1e-12, 60)
        runs.append((w, at[0], vt[0], int(sweeps[0]), bool(converged[0])))
    return runs


def _fingerprints(runs):
    return [[sweeps, converged, _sha256(at), _sha256(vt)] for _, at, vt, sweeps, converged in runs]


def _svd_fingerprint():
    dec = svd(np.random.default_rng(4).normal(size=(24, 16)))
    return [_sha256(dec.u), _sha256(dec.sigma), _sha256(dec.v)]


def test_kernel_bits_do_not_depend_on_blas_threads():
    """The bits svd gets from its kernel do not depend on how the kernel is run.

    A fresh interpreter with a different BLAS thread count must converge in
    the same number of sweeps to bitwise-equal `at`/`vt`, and the row norms
    of `at` must be the singular values of the eigensolver oracle.
    """
    threads = "2" if OPENBLAS_THREADS_AT_START == "1" else "1"
    code = ("import json, test_kernels as t; "
            "print(json.dumps(t._fingerprints(t._kernel_runs())))")
    there = json.loads(_python(code, OPENBLAS_NUM_THREADS=threads))
    runs = _kernel_runs()
    assert _fingerprints(runs) == there
    for w, at, _, _, converged in runs:
        assert converged
        sigma = np.sort(np.linalg.norm(at, axis=1))[::-1]
        want = oracles.singular_values_ref(w)
        assert np.abs(sigma - want).max() <= 1e-12 * want[0]


def test_kernel_orthogonalizes_rows():
    rng = np.random.default_rng(3)
    w = rng.normal(size=(20, 10))
    at, vt, _, worst, converged = kernels.jacobi_sweeps([w.T], True, 1e-12, 60)
    at, vt = at[0], vt[0]
    assert converged[0] and worst[0] <= 1e-12
    gram = at @ at.T
    off = gram - np.diag(np.diag(gram))
    assert np.abs(off).max() <= 1e-10 * np.abs(np.diag(gram)).max()
    assert np.abs(vt @ vt.T - np.eye(10)).max() <= 1e-12


def test_retired_no_numba_flag_leaves_factors_unchanged():
    """Setting the retired LDA_NO_NUMBA flag leaves svd's factors bitwise unchanged."""
    code = "import json, test_kernels; print(json.dumps(test_kernels._svd_fingerprint()))"
    flagged = json.loads(_python(code, LDA_NO_NUMBA="1"))
    plain = json.loads(_python(code, LDA_NO_NUMBA=None))
    assert flagged == plain


def test_svd_runs_the_one_kernel():
    """With no env flag, svd runs the package's one kernel."""
    _python("from lamda.kernels import jacobi_sweeps as kernel; "
            "from lamda.svd import jacobi_sweeps as used; "
            "assert used is kernel",
            LDA_NO_NUMBA=None)


def _rng_normal(seed, shape):
    return np.random.default_rng(seed).normal(size=shape)


def _with_nan():
    w = _rng_normal(11, (10, 7))
    w[3, 2] = np.nan
    return w


def _signed_zeros():
    w = np.zeros((9, 6))
    w[::2] = -0.0
    return w


def _hadamard_rows(n):
    """n exactly orthogonal rows of distinct norms (n a power of two)."""
    h = np.ones((1, 1))
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h * np.arange(1.0, n + 1.0)[:, None]


def _hadamard_with_nan():
    at = _hadamard_rows(8)
    at[5, 3] = np.nan
    return at


def _svd_operands(w):
    """A C-contiguous copy of the operand that svd hands the kernel for weight w."""
    return np.array(w if w.shape[1] > w.shape[0] else w.T, order="C", copy=True)


# (at, max_sweeps): svd's operands for a weight, or a raw `at`.
_ORACLE_CASES = {
    "toy-64x64": (_svd_operands(_rng_normal(20, (64, 64))), 60),
    "toy-64x256": (_svd_operands(_rng_normal(21, (64, 256))), 60),
    "toy-256x64": (_svd_operands(_rng_normal(22, (256, 64))), 60),
    "odd-n-13x9": (_svd_operands(_rng_normal(23, (13, 9))), 60),
    "n1": (_svd_operands(_rng_normal(24, (5, 1))), 60),
    "n2": (_svd_operands(_rng_normal(25, (2, 6))), 60),
    "n3": (_svd_operands(_rng_normal(26, (3, 3))), 60),
    "rank-deficient": (_svd_operands(_rng_normal(27, (30, 4)) @ _rng_normal(28, (4, 12))), 60),
    "zero": (_svd_operands(_signed_zeros()), 60),
    "diagonal-signed-zeros": (_svd_operands(-np.diag(np.arange(1.0, 7.0))), 60),
    "nan-entry": (_svd_operands(_with_nan()), 60),
    "rows-of-length-1": (np.array([[2.0], [-0.0], [1e300], [-3.0]]), 60),
    "max-sweeps-0": (_svd_operands(_rng_normal(29, (12, 8))), 0),
    "max-sweeps-1": (_svd_operands(_rng_normal(30, (40, 16))), 1),
    "n4": (_svd_operands(_rng_normal(31, (7, 4))), 60),
    "n5": (_svd_operands(_rng_normal(32, (5, 9))), 60),
    "max-sweeps-2": (_svd_operands(_rng_normal(33, (40, 16))), 2),
    "converges-on-sweep-1": (_hadamard_rows(8), 60),
    "nan-rollback": (_hadamard_with_nan(), 60),
    "sliced-waves-32x2048": (_svd_operands(_rng_normal(34, (32, 2048))), 60),
}


@pytest.fixture
def rollbacks(monkeypatch):
    """The number of problems whose speculative sweep head jacobi_sweeps rolled back."""
    count = [0]
    run = kernels._sweeps

    def counted(*args):
        out = run(*args)
        count[0] += int(np.count_nonzero(~out[3]))
        return out

    monkeypatch.setattr(kernels, "_sweeps", counted)
    return count


KERNEL, LOOP = kernels.jacobi_sweeps, oracles.jacobi_sweeps_cyclic_ref


def _runs(sweep, ats, tol, max_sweeps, compute_uv=True):
    """Per problem, (at, vt, sweeps, worst, converged) bytes from one call of
    `sweep`: the kernel or the scalar loop, which take the same arguments."""
    with np.errstate(all="ignore"):
        at, vt, sweeps, worst, converged = sweep(ats, compute_uv, tol, max_sweeps)
    return [(_sha256(at[b]), _sha256(vt[b]), int(sweeps[b]), np.float64(worst[b]).tobytes(),
             bool(converged[b])) for b in range(len(ats))]


def _both_kernels(at0, tol, max_sweeps):
    """(at, vt, sweeps, worst, converged) bytes from the kernel, as a stack of
    one, and from the loop."""
    return [_runs(sweep, [at0], tol, max_sweeps)[0] for sweep in (KERNEL, LOOP)]


@pytest.mark.parametrize("case", list(_ORACLE_CASES))
def test_kernel_bitwise_equals_cyclic_loop(case, rollbacks):
    """The pipelined wavefront kernel gives the scalar cyclic loop's factors,
    sweep count, worst off-diagonal and convergence flag, bit for bit."""
    at0, max_sweeps = _ORACLE_CASES[case]
    runs = _both_kernels(at0, 1e-12, max_sweeps)
    assert runs[0] == runs[1]
    if case in ("max-sweeps-1", "max-sweeps-2"):
        assert runs[1][2] == max_sweeps and not runs[1][4]  # stops mid-way
    if case in ("converges-on-sweep-1", "nan-rollback"):
        assert runs[1][2] == 1 and runs[1][4]
    assert rollbacks[0] == (case in ("nan-entry", "nan-rollback"))


@pytest.mark.parametrize("n", range(3, 11))
def test_schedule_is_the_wavefront_rule_across_sweeps(n):
    """Each global wave holds exactly the pairs that max(last[p], last[q]) + 1
    places there when three sweeps run back to back."""
    last, want = [-1] * n, {}
    for sweep in range(3):
        for p in range(n - 1):
            for q in range(p + 1, n):
                last[p] = last[q] = want[sweep, p, q] = max(last[p], last[q]) + 1
    got = {}
    ip, iq, waves = kernels._schedule(n)
    for g in range(5 * n):
        s, r = divmod(g, n)
        cut, k = waves[r]
        for j, (p, q) in enumerate(zip(ip[cut].tolist(), iq[cut].tolist())):
            sweep = s - 1 if j < k else s
            if 0 <= sweep < 3:
                got[sweep, p, q] = g
    assert got == want


_SPECIALS = (np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300)


def test_fuzz_bitwise_equals_cyclic_loop(rollbacks):
    """Small matrices with special values, zero and duplicate rows, odd
    tolerances and sweep caps: kernel and loop agree byte for byte, and the
    speculative-head rollback is among the paths taken."""
    rng = np.random.default_rng(909)
    for _ in range(400):
        n = int(rng.integers(0, 9))
        at = rng.normal(size=(n, int(rng.integers(max(n, 1), 10))))
        for _ in range(int(rng.integers(0, 3)) if n else 0):
            at[rng.integers(n), rng.integers(at.shape[1])] = _SPECIALS[rng.integers(len(_SPECIALS))]
        if n > 1 and rng.random() < 0.2:
            at[rng.integers(n)] = 0.0
        if n > 1 and rng.random() < 0.2:
            at[rng.integers(n)] = at[rng.integers(n)]
        tol = (1e-12, 0.0, 1e-3, -1.0)[rng.integers(4)]
        max_sweeps = (0, 1, 2, 3, 60 if tol > 0 else 5)[rng.integers(5)]
        runs = _both_kernels(at, tol, max_sweeps)
        assert runs[0] == runs[1], (at, tol, max_sweeps)
    assert rollbacks[0] > 0


def _square(seed, n):
    return _svd_operands(_rng_normal(seed, (n, n)))


# (problems of one shape, max_sweeps)
_STACK_CASES = {
    "different-sweep-counts": ([_hadamard_rows(8), _square(40, 8), -np.zeros((8, 8)),
                                _svd_operands(_rng_normal(41, (8, 3)) @ _rng_normal(42, (3, 8)))],
                               60),
    "max-sweeps-cut-off": ([_square(43, 8), _hadamard_rows(8), _square(44, 8)], 2),
    "nan-rollback-in-stack": ([_square(45, 8), _hadamard_with_nan(), _square(46, 8),
                               _hadamard_rows(8)], 60),
    "rows-of-length-1": ([np.array([[2.0], [-0.0], [1e300], [-3.0]]),
                          np.array([[1.0], [2.0], [0.0], [5.0]]),
                          np.array([[-0.0], [-0.0], [4.0], [np.nan]])], 60),
    "n1": ([_rng_normal(47, (1, 5)), np.zeros((1, 5)), _rng_normal(48, (1, 5))], 60),
    # The toy backbone's four ffn operands.
    "toy-64x256": ([_svd_operands(_rng_normal(49 + i, (64, 256))) for i in range(4)], 60),
}


@pytest.mark.parametrize("case", list(_STACK_CASES))
def test_stack_bitwise_equals_cyclic_loop_per_problem(case, rollbacks):
    """One stacked call gives every problem the scalar loop's factors, sweep
    count, worst off-diagonal and convergence flag, bit for bit."""
    ats, max_sweeps = _STACK_CASES[case]
    want = _runs(LOOP, ats, 1e-12, max_sweeps)
    assert _runs(KERNEL, ats, 1e-12, max_sweeps) == want
    if case == "different-sweep-counts":
        assert len({run[2] for run in want}) > 2 and all(run[4] for run in want)
    if case == "max-sweeps-cut-off":
        assert [run[4] for run in want] == [False, True, False]
    # The one problem with a NaN reruns; the others of its stack do not.
    assert rollbacks[0] == (case in ("nan-rollback-in-stack", "rows-of-length-1"))


def test_fuzz_stacks_bitwise_equal_cyclic_loop(rollbacks):
    """Stacks of one to five small problems of one shape, with the special
    values, zero and duplicate rows, tolerances and sweep caps of the
    single-problem fuzz: each problem matches its own scalar loop."""
    rng = np.random.default_rng(910)
    for _ in range(150):
        n = int(rng.integers(0, 9))
        m = int(rng.integers(max(n, 1), 10))
        ats = []
        for _ in range(int(rng.integers(1, 6))):
            at = rng.normal(size=(n, m))
            for _ in range(int(rng.integers(0, 3)) if n else 0):
                at[rng.integers(n), rng.integers(m)] = _SPECIALS[rng.integers(len(_SPECIALS))]
            if n > 1 and rng.random() < 0.2:
                at[rng.integers(n)] = 0.0
            if n > 1 and rng.random() < 0.2:
                at[rng.integers(n)] = at[rng.integers(n)]
            ats.append(at)
        tol = (1e-12, 0.0, 1e-3, -1.0)[rng.integers(4)]
        max_sweeps = (0, 1, 2, 3, 60 if tol > 0 else 5)[rng.integers(5)]
        assert _runs(KERNEL, ats, tol, max_sweeps) == _runs(LOOP, ats, tol, max_sweeps), (
            ats, tol, max_sweeps)
    assert rollbacks[0] > 0


# Empty stacks of both forms, with compute_uv True and False; prints each
# result's shapes.
_EMPTY_STACKS = """
import numpy as np
from lamda import kernels
for ats in (np.empty((0, 4, 4)), []):
    for compute_uv in (True, False):
        print([x.shape for x in kernels.jacobi_sweeps(ats, compute_uv, 1e-12, 60)])
print(kernels._sweeps(np.empty((0, 8)), 0, 4, 4, 1e-12, 60)[0].shape)
"""


def test_empty_stack_returns_at_once():
    """B = 0 returns length-0 results (at once: a hang fails on the timeout)."""
    assert _python(_EMPTY_STACKS, timeout=60).splitlines() == [
        "[(0, 4, 4), (0, 4, 4), (0,), (0,), (0,)]",
        "[(0, 4, 4), (0, 4, 0), (0,), (0,), (0,)]",
        "[(0, 0, 0), (0, 0, 0), (0,), (0,), (0,)]",
        "[(0, 0, 0), (0, 0, 0), (0,), (0,), (0,)]",
        "(0,)",
    ]


def test_read_only_operands_are_left_untouched(rollbacks):
    """The kernel reads its operands and writes only its own buffer: read-only
    operands, one of them the transposed view of a C-contiguous matrix as
    svd hands it over, give the scalar loop's bytes, the NaN problem reruns
    from its operand, and every operand keeps its bytes."""
    w = _rng_normal(61, (8, 8))
    w.flags.writeable = False
    ats = [w.T, _square(62, 8), _hadamard_with_nan()]
    for at in ats[1:]:
        at.flags.writeable = False
    before = [at.tobytes() for at in ats]
    want = _runs(LOOP, ats, 1e-12, 60)
    assert _runs(KERNEL, ats, 1e-12, 60) == want
    assert _without_vt(_runs(KERNEL, ats, 1e-12, 60, compute_uv=False)) == _without_vt(want)
    assert rollbacks[0] == 2
    assert [at.tobytes() for at in ats] == before


def _without_vt(runs):
    return [run[:1] + run[2:] for run in runs]


@pytest.mark.parametrize("case", list(_ORACLE_CASES))
def test_values_only_bitwise_equals_full_run_and_cyclic_loop(case, rollbacks):
    """A values-only call (compute_uv False) leaves at, and returns the
    sweeps, worst off-diagonal and convergence flag, of the full run and of
    the scalar loop, bit for bit; the NaN cases rerun their speculative head."""
    at0, max_sweeps = _ORACLE_CASES[case]
    want = _without_vt(_both_kernels(at0, 1e-12, max_sweeps))
    rollbacks[0] = 0
    got = _without_vt(_runs(KERNEL, [at0], 1e-12, max_sweeps, compute_uv=False))
    assert got * 2 == want
    assert rollbacks[0] == (case in ("nan-entry", "nan-rollback"))


@pytest.mark.parametrize("case", list(_STACK_CASES))
def test_values_only_stack_bitwise_equals_full_run_and_cyclic_loop(case, rollbacks):
    """A values-only stack, whose vt is (B, n, 0), leaves every problem's at
    and results as the full stack and the scalar loop do, and the problem
    with a NaN reruns its speculative head."""
    ats, max_sweeps = _STACK_CASES[case]
    full = _without_vt(_runs(KERNEL, ats, 1e-12, max_sweeps))
    assert full == _without_vt(_runs(LOOP, ats, 1e-12, max_sweeps))
    rollbacks[0] = 0
    assert _without_vt(_runs(KERNEL, ats, 1e-12, max_sweeps, compute_uv=False)) == full
    assert rollbacks[0] == (case in ("nan-rollback-in-stack", "rows-of-length-1"))


# A fresh interpreter's first svd_many of the toy backbone's ten weight
# shapes; prints the call's minor page faults.
_COLD_SVD_MANY = """
import resource
import numpy as np
from lamda.svd import svd_many
rng = np.random.default_rng(0)
shapes = [(64, 64)] * 6 + [(64, 256), (256, 64)] * 2
weights = {f"m{i}": rng.normal(size=shape) for i, shape in enumerate(shapes)}
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
svd_many(weights)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(os.name == "nt" or not hasattr(ctypes.CDLL(None), "mallopt"),
                    reason="libc has no mallopt")
def test_fresh_process_reuses_the_waves_freed_memory():
    """Under glibc's default thresholds the waves' same-sized temporaries
    fault their pages in again every wave (about 100k faults in this call);
    under the thresholds set at import, about 1k."""
    assert int(_python(_COLD_SVD_MANY, OPENBLAS_NUM_THREADS="1")) < 10_000


def test_malloc_thresholds_are_left_alone_without_mallopt(monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    assert kernels._set_malloc_thresholds() is None


def test_malloc_thresholds_are_left_alone_on_windows(monkeypatch):
    """Windows' ctypes raises TypeError on CDLL(None); it is never called."""
    def cdll(name):
        raise TypeError("argument of type 'NoneType' is not iterable")

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    monkeypatch.setattr(kernels, "os", types.SimpleNamespace(name="nt"))
    assert kernels._set_malloc_thresholds() is None
