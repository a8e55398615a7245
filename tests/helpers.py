"""Functions that only the tests use, kept out of the package.

``temperature_rise`` evaluates the reduced model's temperature field at
one point; ``write_dataset`` writes a dataset in the CSV format
``load_dataset`` reads; ``synthetic_dataset`` makes a dataset from a
forward model at a known parameter point; ``in_support`` tests a point
against the prior box.  No pipeline stage runs any of them.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np

from meltcal.domain import (
    CSV_HEADER,
    CSV_SIGMA_COLS,
    PRIOR_LOWER,
    PRIOR_UPPER,
    CalibrationParams,
    DesignVars,
    ExperimentalDataset,
    ExperimentRow,
    ForwardModel,
    RandomStream,
)
from meltcal.forward import AMBIENT_TEMPERATURE, _RiseField, _Source


def temperature_rise(design: DesignVars, theta: CalibrationParams,
                     r: float, z: float, t: float) -> float:
    """Temperature (K) at radius r, depth z, time t for one spot weld."""
    if r < 0 or z < 0 or t < 0:
        raise ValueError("r, z, t must be non-negative")
    field = _RiseField(_Source.build(design, theta), t)
    rise = field(np.asarray(r, float), np.asarray(z, float))
    return float(AMBIENT_TEMPERATURE + rise)


def _fmt(x: float) -> str:
    return format(x, ".12g")


def write_dataset(dataset: ExperimentalDataset, path: str | Path) -> None:
    has_sigma = all(r.length_sigma is not None and r.depth_sigma is not None
                    for r in dataset.rows)
    cols = CSV_HEADER + CSV_SIGMA_COLS if has_sigma else CSV_HEADER
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    for r in dataset.rows:
        cells = [str(r.index), _fmt(r.design.power), _fmt(r.design.beam_radius * 1e3),
                 _fmt(r.design.pulse_duration * 1e3), _fmt(r.length * 1e3),
                 _fmt(r.depth * 1e3)]
        if has_sigma:
            cells += [_fmt(r.length_sigma * 1e3), _fmt(r.depth_sigma * 1e3)]
        writer.writerow(cells)
    Path(path).write_text(buf.getvalue(), encoding="utf-8")


def synthetic_dataset(base: ExperimentalDataset, model: ForwardModel,
                      theta: CalibrationParams, noise: float = 0.0,
                      stream: RandomStream | None = None) -> ExperimentalDataset:
    """``base``'s conditions with the pool sizes ``model`` gives at ``theta``.

    With ``noise`` > 0 each size is scaled by 1 + noise * z, z standard
    normal from ``stream``, drawn row by row, the length's before the
    depth's.
    """
    rng = stream.generator() if noise else None
    rows = []
    for row in base:
        size = model(row.design, theta)
        length, depth = size.length, size.depth
        if noise:
            length *= 1.0 + noise * rng.standard_normal()
            depth *= 1.0 + noise * rng.standard_normal()
        rows.append(ExperimentRow(index=row.index, design=row.design,
                                  length=length, depth=depth))
    return ExperimentalDataset(rows=tuple(rows))


def in_support(theta: CalibrationParams | np.ndarray) -> bool:
    """True iff every component lies in its closed prior interval."""
    vec = theta.as_array() if isinstance(theta, CalibrationParams) else np.asarray(theta)
    return bool(np.all(vec >= PRIOR_LOWER) and np.all(vec <= PRIOR_UPPER))
