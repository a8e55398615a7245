"""Global sensitivity analysis on the surrogate.

Pearson and Spearman correlations on a Monte Carlo sample.  Sobol
main/total indices of the surrogate mean in closed form: the SE-kernel
GP mean is a weighted sum of products of 1-d Gaussians, so every
variance the indices need is a sum over training pairs of products of
1-d integrals (Oakley & O'Hagan 2004; Marrel et al. 2009).  For any
function, the Saltelli two-matrix scheme (first-order estimator for S_i
with f_B centred, Jansen estimator for T_i) with bootstrap standard errors.

Spearman's ranks come from ``inference._average_ranks``, which the
calibration's split-R-hat shares; it lives in ``inference`` so that an
edit to it recomputes the calibration, and the SA stage keys on both
modules' sources.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, reduce
from typing import Callable

import numpy as np
from scipy.special import erf, erfc

from .domain import (
    ExperimentalDataset,
    PARAM_NAMES,
    PRIOR_LOWER,
    PRIOR_UPPER,
    RandomStream,
)
from .inference import _average_ranks
from .surrogate import ConditionedGp, GpSurrogate

__all__ = [
    "UndefinedStatisticError",
    "SobolResult",
    "pcc",
    "srcc",
    "sobol_indices",
    "gp_mean_sobol",
    "sa_on_surrogate",
]

BOOTSTRAP_RESAMPLES = 100
# Gauss-Legendre nodes for the centred covariance of 1-d Gaussian factors;
# they resolve a factor whose length scale is at least QUADRATURE_MIN_ELL
# of the box width.  Narrower factors take the erf form.
GL_NODES = 256
QUADRATURE_MIN_ELL = 0.05


class UndefinedStatisticError(ValueError):
    """Correlation of a constant sample, or similar degenerate statistic."""


def pcc(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation with the unbiased (n-1) covariance convention."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 3:
        raise ValueError("need equal-length 1-d samples of size >= 3")
    sx, sy = x.std(ddof=1), y.std(ddof=1)
    if sx == 0.0 or sy == 0.0:
        raise UndefinedStatisticError("correlation undefined for constant sample")
    cov = ((x - x.mean()) * (y - y.mean())).sum() / (x.size - 1)
    return float(cov / (sx * sy))


def srcc(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman rank correlation: Pearson on average ranks."""
    return pcc(_average_ranks(x), _average_ranks(y))


@dataclass(frozen=True)
class SobolResult:
    main: np.ndarray        # S_i
    total: np.ndarray       # T_i
    main_se: np.ndarray
    total_se: np.ndarray
    n_base: int


def _sobol_estimates(f_a: np.ndarray, f_b: np.ndarray,
                     f_abi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pooled = np.concatenate([f_a, f_b])
    var = pooled.var(ddof=0)
    # centred f_B: uncentred, the estimator's variance grows with mean(f)^2
    main = (((f_b - pooled.mean())[:, None] * (f_abi - f_a[:, None])).mean(axis=0)
            / var)
    total = ((f_a[:, None] - f_abi) ** 2).mean(axis=0) / (2.0 * var)
    return main, total


def _check_n_base(n_base: int, name: str = "n_base") -> None:
    if n_base < 256 or n_base & (n_base - 1):
        raise ValueError(f"{name} must be a power of two >= 256, got {n_base}")


def sobol_indices(f: Callable[[np.ndarray], np.ndarray], lower: np.ndarray,
                  upper: np.ndarray, n_base: int,
                  stream: RandomStream) -> SobolResult:
    """Saltelli scheme over a uniform box prior.

    ``f`` maps an (n, d) matrix to an (n,) output; total model cost is
    n_base * (d + 2) evaluations.
    """
    _check_n_base(n_base)
    lower = np.asarray(lower, float)
    upper = np.asarray(upper, float)
    d = lower.size
    rng = stream.generator()
    a = lower + rng.random((n_base, d)) * (upper - lower)
    b = lower + rng.random((n_base, d)) * (upper - lower)
    f_a, f_b = np.asarray(f(a), float), np.asarray(f(b), float)
    f_abi = np.empty((n_base, d))
    for i in range(d):
        abi = a.copy()
        abi[:, i] = b[:, i]
        f_abi[:, i] = f(abi)
    main, total = _sobol_estimates(f_a, f_b, f_abi)

    boot_rng = stream.split(0).generator()
    boots_main = np.empty((BOOTSTRAP_RESAMPLES, d))
    boots_total = np.empty((BOOTSTRAP_RESAMPLES, d))
    for k in range(BOOTSTRAP_RESAMPLES):
        idx = boot_rng.integers(0, n_base, size=n_base)
        boots_main[k], boots_total[k] = _sobol_estimates(
            f_a[idx], f_b[idx], f_abi[idx])
    return SobolResult(main=main, total=total,
                       main_se=boots_main.std(axis=0, ddof=1),
                       total_se=boots_total.std(axis=0, ddof=1),
                       n_base=n_base)


def _erf_diff(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """erf(hi) - erf(lo) for lo <= hi, through erfc in either tail."""
    return np.where(lo > 0.0, erfc(lo) - erfc(hi),
                    np.where(hi < 0.0, erfc(-hi) - erfc(-lo), erf(hi) - erf(lo)))


@cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, 1]; the weights sum to 1."""
    nodes, weights = np.polynomial.legendre.leggauss(GL_NODES)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def _factor_moments(x: np.ndarray, ell: float, lo: float,
                    hi: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Moments of g_j(t) = exp(-(t - x_j)^2 / 2 ell^2), t uniform on [lo, hi].

    Returns a_j = E g_j, b_jj' = E g_j g_j' and c_jj' = cov(g_j, g_j').
    a and b are erf forms.  Where ell is long against the box, b and
    a_j a_j' agree to about 1/ell^4, so b - a a' would cancel to noise;
    c is then a Gauss-Legendre quadrature of the centred factors
    expm1(-q) - E expm1(-q), which are small and smooth.
    """
    w = hi - lo
    s2 = math.sqrt(2.0) * ell
    a = ell / w * math.sqrt(0.5 * math.pi) * _erf_diff((lo - x) / s2, (hi - x) / s2)
    # g_j g_j' = exp(-(x_j - x_j')^2 / 4 ell^2) exp(-(t - m_jj')^2 / ell^2)
    mid = 0.5 * (x[:, None] + x[None, :])
    b = (np.exp(-((x[:, None] - x[None, :]) / (2.0 * ell)) ** 2)
         * (ell / w * 0.5 * math.sqrt(math.pi))
         * _erf_diff((lo - mid) / ell, (hi - mid) / ell))
    if ell < QUADRATURE_MIN_ELL * w:
        return a, b, b - np.outer(a, a)
    nodes, weights = _gauss_legendre()
    e = np.expm1(-0.5 * ((lo + w * nodes[None, :] - x[:, None]) / ell) ** 2)
    e -= (e @ weights)[:, None]
    return a, b, (e * weights) @ e.T


def _product(factors) -> np.ndarray | float:
    return reduce(np.multiply, factors, 1.0)


def gp_mean_sobol(x: np.ndarray, ell: np.ndarray, v: np.ndarray,
                  lower: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact main and total Sobol indices of an SE-kernel GP mean.

    The function is f(t) = sum_j v_j prod_k exp(-(t_k - x_jk)^2 / 2 ell_k^2)
    with t uniform on the box [lower, upper]; an affine map of f has the
    same indices.  With the moments a, b, c of ``_factor_moments`` per
    input k, and sums over training pairs (j, j'):

        S_i V = sum v_j v_j' c_i prod_{k != i} a_k a_k'
        T_i V = sum v_j v_j' c_i prod_{k != i} b_k
        V     = sum_i sum v_j v_j' c_i prod_{k < i} a_k a_k' prod_{k > i} b_k

    V is prod b - prod a a' telescoped, so that no term cancels.
    """
    x, ell, v = np.asarray(x, float), np.asarray(ell, float), np.asarray(v, float)
    p = x.shape[1]
    a, b, c = zip(*(_factor_moments(x[:, k], ell[k], lower[k], upper[k])
                    for k in range(p)))
    vv = np.outer(v, v)
    main, total = np.empty(p), np.empty(p)
    var = 0.0
    for i in range(p):
        va = v * _product(a[:i] + a[i + 1:])
        main[i] = np.sum(np.outer(va, va) * c[i])
        vc = vv * c[i]
        total[i] = np.sum(vc * _product(b[:i] + b[i + 1:]))
        a_before = _product(a[:i])
        var += np.sum(vc * np.outer(a_before, a_before) * _product(b[i + 1:]))
    if not var > 0.0:
        raise UndefinedStatisticError("Sobol indices undefined for a constant mean")
    return main / var, total / var


def sa_on_surrogate(gp_length: GpSurrogate, gp_depth: GpSurrogate,
                    dataset: ExperimentalDataset, n_base: int,
                    stream: RandomStream) -> dict:
    """SA of the GP predictive mean averaged over the dataset conditions.

    The Sobol indices are exact for that mean (``gp_mean_sobol``) over the
    prior box; the correlations come from n_base uniform prior draws.  The
    result is a JSON document: ``pcc``, ``srcc``, ``sobol_main`` and
    ``sobol_total`` are (parameters, outputs) nested lists.
    """
    _check_n_base(n_base)
    designs = dataset.design_matrix()
    gps = {"length": gp_length, "depth": gp_depth}
    n_params = len(PARAM_NAMES)

    shape = (n_params, len(gps))
    r_pcc, r_srcc = np.empty(shape), np.empty(shape)
    s_main, s_total = np.empty(shape), np.empty(shape)
    for col, (name, gp) in enumerate(gps.items()):
        cgp = ConditionedGp.build([gp], designs)
        # the averaged mean is y_mean + y_scale * sum_j v_j prod_k g_jk(t_k)
        # in the GP's theta coordinates t
        s_main[:, col], s_total[:, col] = gp_mean_sobol(
            cgp.x_theta[0], cgp.ell_theta[0, 0], cgp.v[0],
            (PRIOR_LOWER - cgp.lo[0]) / cgp.span[0],
            (PRIOR_UPPER - cgp.lo[0]) / cgp.span[0])
        rng = stream.split(col + 1).split(99).generator()
        a = PRIOR_LOWER + rng.random((n_base, n_params)) * (PRIOR_UPPER - PRIOR_LOWER)
        # in chunks, with the same bits: the mean is computed per row, and
        # a 256-row chunk holds a 2.1 MB difference tensor, where one
        # 4096-row call would hold 34 MB
        f_a = np.concatenate([cgp.averaged_mean(a[i:i + 256])[0]
                              for i in range(0, n_base, 256)])
        for i in range(n_params):
            r_pcc[i, col] = pcc(a[:, i], f_a)
            r_srcc[i, col] = srcc(a[:, i], f_a)
    return {"parameters": list(PARAM_NAMES), "outputs": list(gps),
            "n_base": n_base, "aggregation": "mean over conditions",
            "pcc": r_pcc.tolist(), "srcc": r_srcc.tolist(),
            "sobol_main": s_main.tolist(), "sobol_total": s_total.tolist()}
