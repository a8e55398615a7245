"""Reference GP negative log marginal likelihood and gradient for oracle tests.

``nlml`` is the library's value alone, for finite-difference checks of its
gradient.  ``_nlml_and_grad`` is a verbatim copy of
``meltcal.surrogate._nlml_and_grad`` as written before it moved to packed
pair distances: it takes the full (N, N, d) tensor of squared input
differences and forms the gradient from dense N x N matrices (Rasmussen &
Williams 2006, sec. 5.4.1).  The tests assert that the library function
still agrees with it to rounding.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_solve, cholesky

from meltcal.surrogate import _nlml_and_grad as library_nlml_and_grad
from meltcal.surrogate import _PairDistances


def nlml(gp_like, x: np.ndarray, y: np.ndarray) -> float:
    """Library NLML at (log ell..., log sf2, log sn2)."""
    return library_nlml_and_grad(np.asarray(gp_like, float), x, y,
                                 _PairDistances.build(x))[0]


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
