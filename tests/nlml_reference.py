"""Reference GP negative log marginal likelihood and gradient for oracle tests.

``nlml`` is the library's value alone, for finite-difference checks of its
gradient.  ``_nlml_and_grad`` is a verbatim copy of the library likelihood,
then ``meltcal.surrogate._nlml_and_grad``, as written before it moved to
packed pair distances: it takes the full (N, N, d) tensor of squared input
differences and forms the gradient from dense N x N matrices (Rasmussen &
Williams 2006, sec. 5.4.1).  The tests assert that the library function
still agrees with it to rounding.

``packed_nlml_and_grad`` is a verbatim copy of the library function as
written on packed pair distances, one row per input, through scipy's
``cholesky`` and ``cho_solve``, before it called the LAPACK routines they
wrap directly.  Its K^-1 is ``inverse_from_factor``: the library's route,
one ``dpotri`` up to ``KINV_SPLIT_ROWS`` rows and above it the factor
inverted by recursive halving, built from the f2py wrappers of
``scipy.linalg.lapack`` and ``scipy.linalg.blas`` on copies of each block.
The tests assert that the library function gives exactly their bits.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_solve, cholesky
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dlauum, dpotri, dtrtri

from meltcal.surrogate import KINV_SPLIT_ROWS, _Likelihood, _PairDistances


def nlml(gp_like, x: np.ndarray, y: np.ndarray) -> float:
    """Library NLML at (log ell..., log sf2, log sn2)."""
    return _Likelihood(y, _PairDistances.build(x))(np.asarray(gp_like, float))[0]


def _nlml_and_grad(log_params: np.ndarray, x: np.ndarray, y: np.ndarray,
                   sqdists: np.ndarray) -> tuple[float, np.ndarray]:
    d = x.shape[1]
    log_ell, log_sf2, log_sn2 = log_params[:d], log_params[d], log_params[d + 1]
    ell2 = np.exp(2.0 * log_ell)
    sf2, sn2 = np.exp(log_sf2), np.exp(log_sn2)
    scaled = sqdists / ell2  # (N, N, d)
    k_se = sf2 * np.exp(-0.5 * scaled.sum(axis=2))
    k = k_se + sn2 * np.eye(x.shape[0])
    try:
        low = cholesky(k, lower=True)
    except np.linalg.LinAlgError:
        return 1e12, np.zeros_like(log_params)
    alpha = cho_solve((low, True), y)
    n = y.size
    nlml = (0.5 * y @ alpha + np.log(np.diag(low)).sum()
            + 0.5 * n * np.log(2.0 * np.pi))
    # dNLML/dh = 0.5 tr((K^-1 - aa^T) dK/dh)
    kinv = cho_solve((low, True), np.eye(n))
    m = kinv - np.outer(alpha, alpha)
    grad = np.empty_like(log_params)
    mk = m * k_se
    grad[:d] = 0.5 * np.einsum("ij,ijk->k", mk, scaled)  # d/dlog ell_j
    grad[d] = 0.5 * mk.sum()                              # d/dlog sf2
    grad[d + 1] = 0.5 * sn2 * np.trace(m)                 # d/dlog sn2
    return float(nlml), grad


def _trtri_halves(low: np.ndarray, lo: int, hi: int) -> int:
    """Invert, in place, the diagonal block ``lo:hi`` of the lower-triangular
    ``low``: one dtrtri up to ``KINV_SPLIT_ROWS // 2`` rows, else the two
    halves inverted the same way and joined, B := B A^-1, B := -C^-1 B."""
    if hi - lo <= KINV_SPLIT_ROWS // 2:
        low[lo:hi, lo:hi], info = dtrtri(low[lo:hi, lo:hi], lower=True)
        return info and lo + info
    mid = (lo + hi) // 2
    failed = _trtri_halves(low, lo, mid) or _trtri_halves(low, mid, hi)
    if failed:
        return failed
    b = dtrmm(1.0, low[lo:mid, lo:mid], low[mid:hi, lo:mid], side=1, lower=True)
    low[mid:hi, lo:mid] = dtrmm(-1.0, low[mid:hi, mid:hi], b, lower=True)
    return 0


def inverse_from_factor(low: np.ndarray) -> tuple[np.ndarray, int]:
    """K^-1 in the lower triangle, from K's lower Cholesky factor ``low``,
    and LAPACK's info, by the library's route."""
    if len(low) <= KINV_SPLIT_ROWS:
        return dpotri(low, lower=True)
    low = np.array(low, order="F")
    failed = _trtri_halves(low, 0, len(low))
    if failed:
        return low, failed
    return dlauum(low, lower=True)


def packed_nlml_and_grad(log_params: np.ndarray, x: np.ndarray, y: np.ndarray,
                         pairs: _PairDistances) -> tuple[float, np.ndarray]:
    d = x.shape[1]
    n = y.size
    log_ell, log_sf2, log_sn2 = log_params[:d], log_params[d], log_params[d + 1]
    ell2 = np.exp(2.0 * log_ell)
    sf2, sn2 = np.exp(log_sf2), np.exp(log_sn2)
    # (M,) kernel per pair; the factor -0.5 is a power of two, so folding
    # it into the weights rounds exactly as scaling the sum would
    k_p = sf2 * np.exp((-0.5 / ell2) @ pairs.sq)
    # Cholesky and the inverse with lower=True read and write only the lower
    # triangle, which is the upper triangle of this C-order buffer seen as
    # the Fortran-order array k_t.T that LAPACK takes uncopied.
    k_t = np.zeros((n, n))
    flat = k_t.ravel()
    flat[pairs.flat] = k_p
    flat[::n + 1] = sf2 + sn2
    try:
        low = cholesky(k_t.T, lower=True, overwrite_a=True)
    except np.linalg.LinAlgError:
        return 1e12, np.zeros_like(log_params)
    alpha = cho_solve((low, True), y)
    nlml = (0.5 * y @ alpha + np.log(np.diag(low)).sum()
            + 0.5 * n * np.log(2.0 * np.pi))
    kinv, info = inverse_from_factor(low)
    if info != 0:
        return 1e12, np.zeros_like(log_params)
    # dNLML/dh = 0.5 tr((K^-1 - aa^T) dK/dh), each off-diagonal pair twice
    w = (kinv.T.take(pairs.flat) - np.outer(alpha, alpha).take(pairs.flat)) * k_p
    m_diag = kinv.diagonal().sum() - alpha @ alpha      # tr(K^-1 - aa^T)
    grad = np.empty_like(log_params)
    grad[:d] = (pairs.sq @ w) / ell2                    # d/dlog ell_k
    grad[d] = w.sum() + 0.5 * sf2 * m_diag              # d/dlog sf2
    grad[d + 1] = 0.5 * sn2 * m_diag                    # d/dlog sn2
    return float(nlml), grad
