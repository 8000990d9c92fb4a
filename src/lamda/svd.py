"""One-sided Jacobi SVD, energy scores, and the top/tail spectrum splits.

All decomposition arithmetic runs in float64 regardless of the global
float mode; callers cast the factors back down if they train in f32.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .kernels import jacobi_sweeps

DEFAULT_TOL = 1e-12
MAX_SWEEPS = 60


@dataclass
class SpectralDecomposition:
    """W = u @ diag(sigma) @ v.T with orthonormal columns and sigma descending."""

    u: np.ndarray  # d_in x k
    sigma: np.ndarray  # k, non-negative, descending
    v: np.ndarray  # d_out x k

    @property
    def k(self):
        return self.sigma.shape[0]

    def reconstruct(self):
        return (self.u * self.sigma) @ self.v.T


@dataclass
class SpectrumSplit:
    """Adapter factors plus the residual main path: w_res + a @ b covers W."""

    a: np.ndarray  # d_in x r
    b: np.ndarray  # r x d_out
    w_res: np.ndarray  # d_in x d_out
    rank: int


def svd(w, tol=DEFAULT_TOL, max_sweeps=MAX_SWEEPS):
    """Jacobi SVD of a d_in x d_out matrix; k = min(d_in, d_out) >= 1.

    The sweep runs on the side with fewer columns so the rotation count
    stays k*(k-1)/2 per sweep.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise ConfigError(f"svd expects a matrix, got shape {w.shape}")
    d_in, d_out = w.shape
    if min(d_in, d_out) == 0:
        raise ConfigError(f"svd expects a non-empty matrix, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise NumericalError(f"svd input of shape {w.shape} holds NaN or inf")
    flipped = d_out > d_in
    work = w.T if flipped else w  # columns = k side

    # Always copy: the kernel mutates `at` in place and must never touch
    # the caller's buffer (work.T can alias the input when it is contiguous).
    at = np.array(work.T, order="C", copy=True)  # k x m, rows are working columns
    vt = np.eye(at.shape[0])
    sweeps, worst, converged = jacobi_sweeps(at, vt, tol, max_sweeps)
    if not converged:
        raise NumericalError(
            f"jacobi svd did not converge in {max_sweeps} sweeps "
            f"(relative off-diagonal {worst:.3e})"
        )

    sigma = np.sqrt(np.einsum("ij,ij->i", at, at))
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    u = at[order].T.copy()  # m x k, columns still scaled by sigma
    v = vt[order].T.copy()

    tiny = max(sigma[0], 1.0) * 1e-300
    zero_cols = []
    for j in range(sigma.shape[0]):
        if sigma[j] > tiny:
            u[:, j] /= sigma[j]
        else:
            sigma[j] = 0.0
            u[:, j] = 0.0
            zero_cols.append(j)
    for j in zero_cols:  # sequential fill keeps earlier completions orthogonal
        u[:, j] = _complete_column(u, j)

    _fix_signs(u, v)
    if flipped:
        u, v = v, u
    return SpectralDecomposition(u=u, sigma=sigma, v=v)


def _complete_column(u, j):
    """Deterministic orthonormal fill-in for a zero singular direction."""
    m = u.shape[0]
    for i in range(m):
        cand = np.zeros(m)
        cand[i] = 1.0
        for jj in range(u.shape[1]):
            if jj == j:
                continue
            col = u[:, jj]
            nrm = col @ col
            if nrm > 0.5:  # skip other still-unfilled zero columns
                cand -= (cand @ col) * col
        nrm = np.linalg.norm(cand)
        if nrm > 0.5:
            return cand / nrm
    raise NumericalError("could not complete orthonormal basis")


def _fix_signs(u, v, eps=1e-12):
    for j in range(u.shape[1]):
        col = u[:, j]
        nz = np.nonzero(np.abs(col) > eps)[0]
        if nz.size and col[nz[0]] < 0:
            u[:, j] = -col
            v[:, j] = -v[:, j]


def _check_rank(r, k):
    if not 1 <= r <= k:
        raise ConfigError(f"rank {r} out of range [1, {k}]")


def split_spectrum(dec, r):
    """Top-r components into (a, b), remainder into the residual main path."""
    _check_rank(r, dec.k)
    a = dec.u[:, :r] * dec.sigma[:r]
    b = dec.v[:, :r].T.copy()
    w_res = (dec.u[:, r:] * dec.sigma[r:]) @ dec.v[:, r:].T
    return SpectrumSplit(a=a, b=b, w_res=w_res, rank=r)


def split_spectrum_tail(dec, r):
    """Last-r components into (a, b); the dominant part stays in the main path."""
    _check_rank(r, dec.k)
    k = dec.k
    a = dec.u[:, k - r :] * dec.sigma[k - r :]
    b = dec.v[:, k - r :].T.copy()
    w_res = (dec.u[:, : k - r] * dec.sigma[: k - r]) @ dec.v[:, : k - r].T
    return SpectrumSplit(a=a, b=b, w_res=w_res, rank=r)


def energy_score(sigma, r):
    """Sum of squares of the top r singular values; r = len(sigma) gives E_T."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if not 0 <= r <= sigma.shape[0]:
        raise ConfigError(f"energy rank {r} out of range [0, {sigma.shape[0]}]")
    return float(np.sum(sigma[:r] ** 2))
