"""Global sensitivity analysis on the surrogate.

Pearson and Spearman correlations on a Monte Carlo sample, and Sobol
main/total indices via the Saltelli two-matrix scheme (first-order
estimator for S_i, Jansen estimator for T_i) with bootstrap standard
errors.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.stats import rankdata

from .domain import ExperimentalDataset, PARAM_NAMES, PriorSpec, RandomStream
from .surrogate import ConditionedGp, GpSurrogate

__all__ = [
    "UndefinedStatisticError",
    "SobolResult",
    "SensitivityReport",
    "pcc",
    "srcc",
    "sobol_indices",
    "sa_on_surrogate",
    "save_report",
    "load_report",
]

BOOTSTRAP_RESAMPLES = 100


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
    return pcc(rankdata(x), rankdata(y))


@dataclass(frozen=True)
class SobolResult:
    main: np.ndarray        # S_i
    total: np.ndarray       # T_i
    main_se: np.ndarray
    total_se: np.ndarray
    n_base: int


def _sobol_estimates(f_a: np.ndarray, f_b: np.ndarray,
                     f_abi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    var = np.concatenate([f_a, f_b]).var(ddof=0)
    main = (f_b[:, None] * (f_abi - f_a[:, None])).mean(axis=0) / var
    total = ((f_a[:, None] - f_abi) ** 2).mean(axis=0) / (2.0 * var)
    return main, total


def sobol_indices(f: Callable[[np.ndarray], np.ndarray], lower: np.ndarray,
                  upper: np.ndarray, n_base: int,
                  stream: RandomStream) -> SobolResult:
    """Saltelli scheme over a uniform box prior.

    ``f`` maps an (n, d) matrix to an (n,) output; total model cost is
    n_base * (d + 2) evaluations.
    """
    if n_base < 256 or n_base & (n_base - 1):
        raise ValueError("n_base must be a power of two >= 256")
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


@dataclass(frozen=True)
class SensitivityReport:
    """Per-parameter, per-output PCC/SRCC/Sobol measures."""

    parameters: tuple[str, ...]
    outputs: tuple[str, ...]
    pcc: np.ndarray       # (n_params, n_outputs)
    srcc: np.ndarray
    sobol_main: np.ndarray
    sobol_total: np.ndarray
    sobol_main_se: np.ndarray
    sobol_total_se: np.ndarray
    n_base: int
    aggregation: str = "mean over conditions"


def sa_on_surrogate(gp_length: GpSurrogate, gp_depth: GpSurrogate,
                    dataset: ExperimentalDataset, prior: PriorSpec,
                    n_base: int, stream: RandomStream) -> SensitivityReport:
    """SA of the GP predictive mean averaged over the dataset conditions."""
    designs = dataset.design_matrix()
    gps = {"length": gp_length, "depth": gp_depth}
    n_params = len(PARAM_NAMES)

    shape = (n_params, len(gps))
    r_pcc, r_srcc = np.empty(shape), np.empty(shape)
    s_main, s_total = np.empty(shape), np.empty(shape)
    se_main, se_total = np.empty(shape), np.empty(shape)
    for col, (name, gp) in enumerate(gps.items()):
        f = ConditionedGp.build(gp, designs).averaged_mean
        sub = stream.split(col + 1)
        res = sobol_indices(f, prior.lower(), prior.upper(), n_base, sub)
        s_main[:, col], s_total[:, col] = res.main, res.total
        se_main[:, col], se_total[:, col] = res.main_se, res.total_se
        # correlations on an independent A-matrix style sample
        rng = sub.split(99).generator()
        a = prior.lower() + rng.random((n_base, n_params)) * (prior.upper() - prior.lower())
        f_a = f(a)
        for i in range(n_params):
            r_pcc[i, col] = pcc(a[:, i], f_a)
            r_srcc[i, col] = srcc(a[:, i], f_a)
    return SensitivityReport(parameters=PARAM_NAMES, outputs=tuple(gps),
                             pcc=r_pcc, srcc=r_srcc,
                             sobol_main=s_main, sobol_total=s_total,
                             sobol_main_se=se_main, sobol_total_se=se_total,
                             n_base=n_base)


_ARRAY_FIELDS = ("pcc", "srcc", "sobol_main", "sobol_total",
                 "sobol_main_se", "sobol_total_se")


def save_report(report: SensitivityReport, json_path: str | Path,
                csv_path: str | Path | None = None) -> None:
    doc = {
        "parameters": list(report.parameters),
        "outputs": list(report.outputs),
        "n_base": report.n_base,
        "aggregation": report.aggregation,
        **{name: getattr(report, name).tolist() for name in _ARRAY_FIELDS},
    }
    Path(json_path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                               encoding="utf-8")
    if csv_path is not None:
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            header = ["parameter"]
            for out in report.outputs:
                header += [f"{out}_pcc", f"{out}_srcc",
                           f"{out}_sobol_main", f"{out}_sobol_total"]
            writer.writerow(header)
            for i, name in enumerate(report.parameters):
                row = [name]
                for j in range(len(report.outputs)):
                    row += [format(report.pcc[i, j], ".6g"),
                            format(report.srcc[i, j], ".6g"),
                            format(report.sobol_main[i, j], ".6g"),
                            format(report.sobol_total[i, j], ".6g")]
                writer.writerow(row)


def load_report(json_path: str | Path) -> SensitivityReport:
    """Inverse of ``save_report`` on its JSON document."""
    doc = json.loads(Path(json_path).read_text(encoding="utf-8"))
    return SensitivityReport(
        parameters=tuple(doc["parameters"]), outputs=tuple(doc["outputs"]),
        n_base=doc["n_base"], aggregation=doc["aggregation"],
        **{name: np.array(doc[name]) for name in _ARRAY_FIELDS})
