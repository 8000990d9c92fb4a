"""One-sided Jacobi SVD, energy scores, and the top/tail spectrum splits.

All decomposition arithmetic runs in float64 regardless of the global
float mode; callers cast the factors back down if they train in f32.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, NumericalError
from .kernels import jacobi_sweeps

DEFAULT_TOL = 1e-12
MAX_SWEEPS = 60
_SAFE_EXP = 255  # the kernel's range for a matrix's largest entry (see `_operand`)


@dataclass
class SpectralDecomposition:
    """W = u @ diag(sigma) @ v.T with orthonormal columns and sigma descending.

    A values-only decomposition (`compute_uv=False`) has u and v None.
    """

    u: np.ndarray | None  # d_in x k
    sigma: np.ndarray  # k, non-negative, descending
    v: np.ndarray | None  # d_out x k

    @property
    def k(self):
        return self.sigma.shape[0]

    def reconstruct(self):
        _check_factors(self, "reconstruct")
        return (self.u * self.sigma) @ self.v.T


def _check_factors(dec, what):
    if dec.u is None:
        raise ContractError(f"{what} needs u and v, but the decomposition is "
                            "values-only (compute_uv=False)")


@dataclass
class SpectrumSplit:
    """Adapter factors plus the residual main path: w_res + a @ b covers W."""

    a: np.ndarray  # d_in x r
    b: np.ndarray  # r x d_out
    w_res: np.ndarray  # d_in x d_out


def svd(w, compute_uv=True):
    """Jacobi SVD of a d_in x d_out matrix; k = min(d_in, d_out) >= 1.

    The sweep runs on the side with fewer columns so the rotation count
    stays k*(k-1)/2 per sweep, for at most MAX_SWEEPS sweeps. With
    compute_uv False (numpy's name) the kernel accumulates no rotations and
    the result holds only sigma, bit for bit that of the full
    decomposition. This is the one-matrix case of `svd_many`.
    """
    return svd_many({"matrix": w}, compute_uv)["matrix"]


def svd_many(weights, compute_uv=True):
    """`svd` of every matrix of a {key: matrix} map, as {key: decomposition}.

    Every matrix is checked before any is decomposed. The kernel operands
    (rows are working columns) of one shape are swept as one stack by
    `kernels.jacobi_sweeps`, which never writes to them, and each
    decomposition is bit for bit that of the matrix's own call. An operand
    is dropped once its stack is swept.
    """
    operands = {key: _operand(key, w) for key, w in weights.items()}
    groups = {}
    for key, (operand, _, _) in operands.items():
        groups.setdefault(operand.shape, []).append(key)
    decs = {}
    for keys in groups.values():
        at, vt, _, worst, converged = jacobi_sweeps(
            [operands[key][0] for key in keys], compute_uv, DEFAULT_TOL, MAX_SWEEPS)
        for b, key in enumerate(keys):
            if not converged[b]:
                raise NumericalError(
                    f"jacobi svd of {key!r} did not converge in {MAX_SWEEPS} sweeps "
                    f"(relative off-diagonal {worst[b]:.3e})"
                )
            decs[key] = _factors(key, at[b], vt[b], *operands.pop(key)[1:])
    return {key: decs[key] for key in weights}


def check_shape(key, shape):
    """Refuse a `shape` that svd cannot decompose, one that is not 2-D or
    is empty, with a ConfigError naming `key`."""
    if len(shape) != 2:
        raise ConfigError(f"svd expects a matrix, got shape {shape} for {key!r}")
    if min(shape) == 0:
        raise ConfigError(f"svd expects a non-empty matrix, got shape {shape} for {key!r}")


def _operand(key, w):
    """(operand, flipped, exponent) for one checked matrix: the kernel
    operand has one row per singular value (the matrix's columns, or its
    rows if flipped), scaled by 2**exponent when the matrix leaves the
    kernel's safe range."""
    w = np.asarray(w, dtype=np.float64)
    check_shape(key, w.shape)
    top = max(w.max(), -w.min())  # NaN if any entry is NaN
    if not np.isfinite(top):
        raise NumericalError(f"svd input {key!r} of shape {w.shape} holds NaN or inf")
    exponent = 0
    # The kernel multiplies two squared column norms. That overflows once
    # the Frobenius norm (at most sqrt(size) * top) nears 2**256, and leaves
    # the normal range, or flushes to zero, once top falls below about
    # 2**-255. Out of range, a power-of-two scale is exact and undone on
    # sigma; in range, the input keeps every bit.
    if top and not 2.0**-_SAFE_EXP <= top <= 2.0**_SAFE_EXP / math.sqrt(w.size):
        exponent = -math.frexp(top)[1]  # largest entry into [0.5, 1)
        scaled = np.ldexp(w, exponent)
        if not np.array_equal(np.ldexp(scaled, -exponent), w):
            raise NumericalError(
                f"svd input {key!r} spans too many orders of magnitude: scaling its "
                f"largest entry {top:.3e} into range flushes its smallest ones"
            )
        w = scaled
    flipped = w.shape[1] > w.shape[0]
    return (w if flipped else w.T), flipped, exponent


def _factors(key, at, vt, flipped, exponent):
    """The decomposition from the kernel's orthogonalized rows `at` and
    rotations `vt`, values only if `vt` has no columns. Sigma is the row
    norms in descending order, all but the `live` leading ones cut to 0,
    with the input's power-of-two scale undone."""
    norms = np.sqrt(np.einsum("ij,ij->i", at, at))
    order = np.argsort(-norms, kind="stable")
    norms = norms[order]
    live = int(np.count_nonzero(norms > max(norms[0], 1.0) * 1e-300))  # norms descend: they lead
    norms[live:] = 0.0
    sigma = norms
    if exponent:
        with np.errstate(over="ignore"):
            sigma = np.ldexp(norms, -exponent)
        if np.isinf(sigma[0]):
            raise NumericalError(f"svd of {key!r}: the largest singular value overflows float64")
    if vt.shape[1] == 0:
        return SpectralDecomposition(u=None, sigma=sigma, v=None)
    u = at[order].T.copy()  # m x k, columns still scaled by sigma
    v = vt[order].T.copy()
    u[:, :live] /= norms[:live]
    u[:, live:] = 0.0
    _complete_columns(u, live)

    _fix_signs(u, v)
    if flipped:
        u, v = v, u
    return SpectralDecomposition(u=u, sigma=sigma, v=v)


def _complete_columns(u, start):
    """Fill u's zero columns from `start` on, one after another, with a
    deterministic orthonormal completion that the later ones build on: the
    first unit vector whose residual against the columns before it keeps a
    norm above 0.5, else the one with the largest residual, projected twice."""
    m, k = u.shape
    for j in range(start, k):
        best_nrm = -1.0
        for i in range(m):
            cand = np.zeros(m)
            cand[i] = 1.0
            cand = _project_out(cand, u[:, :j])
            nrm = np.linalg.norm(cand)
            if nrm > 0.5:
                break
            if nrm > best_nrm:
                best, best_nrm = cand, nrm
        else:
            # The squared residual norms sum to m - j, so with few directions
            # left none may pass 0.5 (the largest can be as small as
            # 1/sqrt(m)); one projection of the largest then loses too much
            # orthogonality, and a second restores it.
            cand = _project_out(best / best_nrm, u[:, :j])
            nrm = np.linalg.norm(cand)
        u[:, j] = cand / nrm


def _project_out(cand, cols):
    """`cand` less its projection on each of the orthonormal `cols`, in turn."""
    for col in cols.T:
        cand -= (cand @ col) * col
    return cand


def _fix_signs(u, v):
    """Flip the columns of u and v where u's first entry above 1e-12 in magnitude is negative."""
    big = np.abs(u) > 1e-12
    first = np.argmax(big, axis=0)  # 0 in a column with no such entry
    cols = np.arange(u.shape[1])
    flip = big[first, cols] & (u[first, cols] < 0)
    np.negative(u, out=u, where=flip)
    np.negative(v, out=v, where=flip)


def split_spectrum(dec, r):
    """Top-r components into (a, b), remainder into the residual main path."""
    return _split(dec, r, tail=False)


def split_spectrum_tail(dec, r):
    """Last-r components into (a, b); the dominant part stays in the main path."""
    return _split(dec, r, tail=True)


def check_rank(rank, shape, module=None):
    """`rank` as an int, checked to fit a matrix of `shape`: 1 <= rank <= min(shape).

    This is the one check of a rank against a weight. Its ConfigError names
    `module` if given, and the shape that a rank exceeds.
    """
    r = int(rank)
    if not 1 <= r <= min(shape):
        where = "" if module is None else f"module {module!r}: "
        why = ("is below 1" if r < 1
               else f"exceeds the min dim {min(shape)} of shape {tuple(shape)}")
        raise ConfigError(f"{where}rank {r} {why}")
    return r


def _split(dec, r, tail):
    """(a, b) from the r components at one end of the spectrum; the others
    sum into the residual."""
    _check_factors(dec, "a spectrum split")
    r = check_rank(r, (dec.u.shape[0], dec.v.shape[0]))
    path = slice(dec.k - r, None) if tail else slice(None, r)
    res = slice(None, dec.k - r) if tail else slice(r, None)
    a = dec.u[:, path] * dec.sigma[path]
    b = dec.v[:, path].T.copy()
    w_res = (dec.u[:, res] * dec.sigma[res]) @ dec.v[:, res].T
    return SpectrumSplit(a=a, b=b, w_res=w_res)


def energy_score(sigma, r):
    """Sum of squares of the top r singular values; r = len(sigma) gives E_T."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if not 0 <= r <= sigma.shape[0]:
        raise ConfigError(f"energy rank {r} out of range [0, {sigma.shape[0]}]")
    return float(np.sum(sigma[:r] ** 2))
