import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import oracles
from conftest import OPENBLAS_THREADS_AT_START
from lamda import kernels
from lamda.svd import svd

_CASES = ((0, (12, 8)), (1, (8, 8)), (2, (40, 16)))


def _python(code, **env):
    """Run `code` in a fresh interpreter that can import this module; return stdout.

    Each keyword sets that environment variable, or unsets it when None.
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
                          stdout=subprocess.PIPE, text=True).stdout


def _sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _kernel_runs():
    runs = []
    for seed, shape in _CASES:
        w = np.random.default_rng(seed).normal(size=shape)
        at = np.array(w.T, order="C", copy=True)
        vt = np.eye(at.shape[0])
        sweeps, _, converged = kernels.jacobi_sweeps(at, vt, 1e-12, 60)
        runs.append((w, at, vt, sweeps, converged))
    return runs


def _fingerprints(runs):
    return [[sweeps, converged, _sha256(at), _sha256(vt)] for _, at, vt, sweeps, converged in runs]


def _svd_fingerprint():
    dec = svd(np.random.default_rng(4).normal(size=(24, 16)))
    return [_sha256(dec.u), _sha256(dec.sigma), _sha256(dec.v)]


def test_numpy_and_njit_agree_bitwise():
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
    at = np.array(w.T, order="C", copy=True)
    vt = np.eye(10)
    _, worst, converged = kernels.jacobi_sweeps(at, vt, 1e-12, 60)
    assert converged and worst <= 1e-12
    gram = at @ at.T
    off = gram - np.diag(np.diag(gram))
    assert np.abs(off).max() <= 1e-10 * np.abs(np.diag(gram)).max()
    assert np.abs(vt @ vt.T - np.eye(10)).max() <= 1e-12


def test_env_flag_selects_numpy_fallback():
    """Setting the retired LDA_NO_NUMBA flag leaves svd's factors bitwise unchanged."""
    code = "import json, test_kernels; print(json.dumps(test_kernels._svd_fingerprint()))"
    flagged = json.loads(_python(code, LDA_NO_NUMBA="1"))
    plain = json.loads(_python(code, LDA_NO_NUMBA=None))
    assert flagged == plain


def test_default_uses_numba_when_available():
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
    """The `at` that svd hands the kernel for weight w."""
    work = w.T if w.shape[1] > w.shape[0] else w
    return np.array(work.T, order="C", copy=True)


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


def _run(sweeps_fn, at0, tol, max_sweeps):
    """(at, vt, sweeps, worst, converged) bytes from one 2-D call."""
    at, vt = at0.copy(), np.eye(at0.shape[0])
    with np.errstate(all="ignore"):
        sweeps, worst, converged = sweeps_fn(at, vt, tol, max_sweeps)
    return _sha256(at), _sha256(vt), sweeps, np.float64(worst).tobytes(), bool(converged)


def _both_kernels(at0, tol, max_sweeps):
    """(at, vt, sweeps, worst, converged) bytes from the kernel and the loop."""
    return [_run(sweeps_fn, at0, tol, max_sweeps)
            for sweeps_fn in (kernels.jacobi_sweeps, oracles.jacobi_sweeps_cyclic_ref)]


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
    for g in range(5 * n):
        s, r = divmod(g, n)
        ip, iq, k = kernels._schedule(n)[r]
        for j, (p, q) in enumerate(zip(ip.tolist(), iq.tolist())):
            sweep = s - 1 if j < k else s
            if 0 <= sweep < 3:
                got[sweep, p, q] = g
    assert got == want


_SPECIALS = (np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300)


@pytest.mark.parametrize("slice_bytes", [None, 200])
def test_fuzz_bitwise_equals_cyclic_loop(rollbacks, monkeypatch, slice_bytes):
    """Small matrices with special values, zero and duplicate rows, odd
    tolerances and sweep caps: kernel and loop agree byte for byte, and the
    speculative-head rollback is among the paths taken. With slice_bytes,
    the waves run in slices of one or two pairs, as big matrices' waves do."""
    if slice_bytes is not None:
        monkeypatch.setattr(kernels, "_SLICE_BYTES", slice_bytes)
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


def _stacked_runs(ats, tol, max_sweeps):
    """Per problem, (at, vt, sweeps, worst, converged) bytes from one stacked call."""
    at = np.stack(ats)
    vt = np.stack([np.eye(a.shape[0]) for a in ats])
    with np.errstate(all="ignore"):
        sweeps, worst, converged = kernels.jacobi_sweeps(at, vt, tol, max_sweeps)
    return [(_sha256(at[b]), _sha256(vt[b]), int(sweeps[b]), np.float64(worst[b]).tobytes(),
             bool(converged[b])) for b in range(len(ats))]


def _loop_runs(ats, tol, max_sweeps):
    """Per problem, (at, vt, sweeps, worst, converged) bytes from the scalar loop."""
    return [_run(oracles.jacobi_sweeps_cyclic_ref, at, tol, max_sweeps) for at in ats]


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
    # Four toy ffn operands: a wave gathers 4 x 32 rows of (256 + 64) floats
    # per array, past _SLICE_BYTES, so it runs in two slices of two problems.
    "toy-64x256-sliced": ([_svd_operands(_rng_normal(49 + i, (64, 256))) for i in range(4)], 60),
}
_STACK_PARAMS = [(case, slice_bytes) for case in _STACK_CASES if not case.startswith("toy")
                 for slice_bytes in (None, 200, 2000)] + [("toy-64x256-sliced", None)]


@pytest.mark.parametrize("case, slice_bytes", _STACK_PARAMS)
def test_stack_bitwise_equals_cyclic_loop_per_problem(case, slice_bytes, rollbacks, monkeypatch):
    """One stacked call gives every problem the scalar loop's factors, sweep
    count, worst off-diagonal and convergence flag, bit for bit, whether
    its waves run whole, in slices of whole problems (2000 bytes, and the
    toy stack at the default) or in slices of one problem's pairs (200)."""
    if slice_bytes is not None:
        monkeypatch.setattr(kernels, "_SLICE_BYTES", slice_bytes)
    ats, max_sweeps = _STACK_CASES[case]
    if case == "toy-64x256-sliced":
        assert 4 * 32 * (256 + 64) * 8 > kernels._SLICE_BYTES
    want = _loop_runs(ats, 1e-12, max_sweeps)
    assert _stacked_runs(ats, 1e-12, max_sweeps) == want
    if case == "different-sweep-counts":
        assert len({run[2] for run in want}) > 2 and all(run[4] for run in want)
    if case == "max-sweeps-cut-off":
        assert [run[4] for run in want] == [False, True, False]
    # The one problem with a NaN reruns; the others of its stack do not.
    assert rollbacks[0] == (case in ("nan-rollback-in-stack", "rows-of-length-1"))


def test_two_dimensional_call_is_the_one_problem_stack():
    at0 = _square(60, 16)
    at2, vt2 = at0.copy(), np.eye(16)
    flat = kernels.jacobi_sweeps(at2, vt2, 1e-12, 60)
    at3, vt3 = at0[None].copy(), np.eye(16)[None].copy()
    stacked = kernels.jacobi_sweeps(at3, vt3, 1e-12, 60)
    assert isinstance(flat[0], int) and isinstance(flat[1], float) and isinstance(flat[2], bool)
    assert [x[0] for x in stacked] == list(flat)
    assert at3[0].tobytes() == at2.tobytes() and vt3[0].tobytes() == vt2.tobytes()


@pytest.mark.parametrize("slice_bytes", [None, 200, 1000])
def test_fuzz_stacks_bitwise_equal_cyclic_loop(rollbacks, monkeypatch, slice_bytes):
    """Stacks of one to five small problems of one shape, with the special
    values, zero and duplicate rows, tolerances and sweep caps of the
    single-problem fuzz: each problem matches its own scalar loop."""
    if slice_bytes is not None:
        monkeypatch.setattr(kernels, "_SLICE_BYTES", slice_bytes)
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
        assert _stacked_runs(ats, tol, max_sweeps) == _loop_runs(ats, tol, max_sweeps), (
            ats, tol, max_sweeps)
    assert rollbacks[0] > 0
