"""Design of experiments: Latin hypercube sampling and training-set assembly.

The surrogate training set spans (design condition x calibration sample):
a fresh per-condition Latin hypercube over the 8-parameter prior, with the
forward model evaluated at every point.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .domain import (
    CalibrationParams,
    ExperimentalDataset,
    ForwardModel,
    PARAM_SYMBOLS,
    PRIOR_LOWER,
    PRIOR_UPPER,
    RandomStream,
    read_table,
)

__all__ = [
    "TrainingSet",
    "TrainingSetError",
    "latin_hypercube",
    "input_bounds",
    "build_training_set",
    "save_training_set",
    "load_training_set",
]

MAX_REDRAWS = 5


class TrainingSetError(RuntimeError):
    """Forward-model failure or retry exhaustion during set assembly, or a
    training-set file that cannot be read back."""


def latin_hypercube(n: int, d: int, stream: RandomStream) -> np.ndarray:
    """(n, d) sample on [0, 1) with one point per stratum in each column.

    Stratified permutation construction: per-dimension random permutation
    of the n strata with uniform jitter inside each stratum."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    rng = stream.generator()
    values = np.empty((n, d))
    for j in range(d):
        perm = rng.permutation(n)
        jitter = rng.random(n)
        values[:, j] = (perm + jitter) / n
    return values


def input_bounds(inputs_raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lower and upper bounds that scale each of the 11 GP inputs
    (3 design + 8 parameters) to [0, 1].

    A design column's bounds are its range over the rows ``inputs_raw``; a
    constant column gets a +/-5% pad so the scaling stays invertible.  The
    parameters' bounds are the prior box.
    """
    design = inputs_raw[:, :-len(PARAM_SYMBOLS)]
    lo_d, hi_d = design.min(axis=0), design.max(axis=0)
    flat = hi_d == lo_d
    return (np.concatenate([np.where(flat, lo_d * 0.95, lo_d), PRIOR_LOWER]),
            np.concatenate([np.where(flat, hi_d * 1.05, hi_d), PRIOR_UPPER]))


@dataclass(frozen=True)
class TrainingSet:
    """Assembled surrogate training data.

    inputs_raw: (N, 11) raw-unit rows [power, radius, pulse, 8 params];
    outputs: (N, 2) [length, depth] in meters;
    lo, hi: (11,) input bounds, which ``inputs_std`` scales to [0, 1].
    """

    inputs_raw: np.ndarray
    outputs: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    rejections: tuple[str, ...] = ()

    @property
    def n(self) -> int:
        return self.inputs_raw.shape[0]

    def inputs_std(self) -> np.ndarray:
        return (self.inputs_raw - self.lo) / (self.hi - self.lo)


def build_training_set(dataset: ExperimentalDataset, samples_per_condition: int,
                       model: ForwardModel, stream: RandomStream) -> TrainingSet:
    """Per-condition Latin hypercubes evaluated through the forward model.

    Non-melting draws are re-drawn uniformly from the prior (up to
    MAX_REDRAWS attempts) and logged; a stationary GP cannot absorb the
    zero-size regime discontinuity.
    """
    if samples_per_condition < 2:
        raise ValueError("samples_per_condition must be >= 2")
    inputs, outputs = [], []
    rejections: list[str] = []
    for row in dataset:
        sub = stream.split(row.index)
        design = latin_hypercube(samples_per_condition, len(PARAM_SYMBOLS), sub)
        thetas = PRIOR_LOWER + design * (PRIOR_UPPER - PRIOR_LOWER)
        redraw_rng = sub.split(0).generator()
        for k in range(samples_per_condition):
            theta_vec = thetas[k]
            size = None
            for attempt in range(MAX_REDRAWS + 1):
                theta = CalibrationParams.from_array(theta_vec)
                try:
                    candidate = model(row.design, theta)
                except Exception as exc:
                    raise TrainingSetError(
                        f"model failed at condition {row.index}, sample {k}: "
                        f"theta={theta_vec.tolist()}: {exc}") from exc
                if candidate.melted:
                    size = candidate
                    break
                rejections.append(
                    f"condition {row.index} sample {k} attempt {attempt}: "
                    f"no melting at theta={theta_vec.tolist()}")
                theta_vec = (PRIOR_LOWER + redraw_rng.random(PRIOR_LOWER.size)
                             * (PRIOR_UPPER - PRIOR_LOWER))
            if size is None:
                raise TrainingSetError(
                    f"condition {row.index}, sample {k}: no melting after "
                    f"{MAX_REDRAWS} redraws")
            inputs.append(np.concatenate([row.design.as_array(), theta_vec]))
            outputs.append([size.length, size.depth])
    inputs_raw = np.array(inputs)
    return TrainingSet(inputs_raw, np.array(outputs), *input_bounds(inputs_raw),
                       rejections=tuple(rejections))


_TS_COLUMNS = (["power_W", "beam_radius_m", "pulse_s"]
               + list(PARAM_SYMBOLS) + ["length_m", "depth_m"])


def save_training_set(ts: TrainingSet, csv_path: str | Path,
                      json_path: str | Path) -> None:
    """CSV of SI rows at ``csv_path``, and at ``json_path`` a JSON sidecar
    with the no-melt rejections.

    Every float is written with ``repr``, so the set reads back bitwise.
    """
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_TS_COLUMNS)
        for x, y in zip(ts.inputs_raw.tolist(), ts.outputs.tolist()):
            writer.writerow(map(repr, x + y))
    Path(json_path).write_text(
        json.dumps({"rejections": list(ts.rejections)}, indent=2) + "\n",
        encoding="utf-8")


def load_training_set(csv_path: str | Path, json_path: str | Path) -> TrainingSet:
    """The set ``save_training_set`` wrote, with its input bounds computed
    from its rows.  The CSV is read by ``domain.read_table``, so a file it
    rejects is a ``TrainingSetError``."""
    rejections = json.loads(Path(json_path).read_text(encoding="utf-8"))["rejections"]
    _, rows = read_table(csv_path, [_TS_COLUMNS], TrainingSetError)
    inputs_raw = np.array([values[:-2] for _, values in rows])
    return TrainingSet(inputs_raw, np.array([values[-2:] for _, values in rows]),
                       *input_bounds(inputs_raw), rejections=tuple(rejections))
