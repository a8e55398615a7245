"""Design of experiments: Latin hypercube sampling and training-set assembly.

The surrogate training set spans (design condition x calibration sample):
a fresh per-condition Latin hypercube over the 8-parameter prior, with the
forward model evaluated at every point.  Inputs are standardized to [0, 1]
per dimension for the Gaussian-process stage.
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
)

__all__ = [
    "TrainingSet",
    "TrainingSetError",
    "latin_hypercube",
    "build_training_set",
    "save_training_set",
    "load_training_set",
]

MAX_REDRAWS = 5


class TrainingSetError(RuntimeError):
    """Forward-model failure or retry exhaustion during set assembly."""


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


@dataclass(frozen=True)
class AffineMap:
    """Per-dimension [lo, hi] -> [0, 1] standardization."""

    lo: np.ndarray
    hi: np.ndarray

    def forward(self, x: np.ndarray) -> np.ndarray:
        return (x - self.lo) / (self.hi - self.lo)

    def inverse(self, u: np.ndarray) -> np.ndarray:
        return self.lo + u * (self.hi - self.lo)


def design_affine(dataset: ExperimentalDataset) -> AffineMap:
    """[0,1] map over the 11 GP input dimensions (3 design + 8 parameters).

    Design ranges come from the dataset conditions; a constant design
    column gets a +/-5% pad so the map stays invertible.
    """
    dmat = dataset.design_matrix()
    lo_d, hi_d = dmat.min(axis=0), dmat.max(axis=0)
    flat = hi_d == lo_d
    lo_d = np.where(flat, lo_d * 0.95, lo_d)
    hi_d = np.where(flat, hi_d * 1.05, hi_d)
    return AffineMap(lo=np.concatenate([lo_d, PRIOR_LOWER]),
                     hi=np.concatenate([hi_d, PRIOR_UPPER]))


@dataclass(frozen=True)
class TrainingSet:
    """Assembled surrogate training data.

    inputs_raw: (N, 11) raw-unit rows [power, radius, pulse, 8 params];
    outputs: (N, 2) [length, depth] in meters.
    """

    inputs_raw: np.ndarray
    outputs: np.ndarray
    input_map: AffineMap
    rejections: tuple[str, ...] = ()

    @property
    def n(self) -> int:
        return self.inputs_raw.shape[0]

    def inputs_std(self) -> np.ndarray:
        return self.input_map.forward(self.inputs_raw)


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
    return TrainingSet(inputs_raw=np.array(inputs), outputs=np.array(outputs),
                       input_map=design_affine(dataset),
                       rejections=tuple(rejections))


_TS_COLUMNS = (["power_W", "beam_radius_m", "pulse_s"]
               + list(PARAM_SYMBOLS) + ["length_m", "depth_m"])


def save_training_set(ts: TrainingSet, csv_path: str | Path,
                      json_path: str | Path) -> None:
    """CSV of SI rows at ``csv_path``, and at ``json_path`` a JSON sidecar
    with the input map and the no-melt rejections.

    Every float is written with ``repr``, so the set reads back bitwise.
    """
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_TS_COLUMNS)
        for x, y in zip(ts.inputs_raw.tolist(), ts.outputs.tolist()):
            writer.writerow(map(repr, x + y))
    sidecar = {
        "input_map": {"lo": ts.input_map.lo.tolist(),
                      "hi": ts.input_map.hi.tolist()},
        "rejections": list(ts.rejections),
    }
    Path(json_path).write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_training_set(csv_path: str | Path, json_path: str | Path) -> TrainingSet:
    sidecar = json.loads(Path(json_path).read_text(encoding="utf-8"))
    inputs, outputs = [], []
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _TS_COLUMNS:
            raise TrainingSetError(f"{csv_path}: bad header {header!r}")
        for rec in reader:
            values = [float(v) for v in rec]
            inputs.append(values[:-2])
            outputs.append(values[-2:])
    return TrainingSet(
        inputs_raw=np.array(inputs), outputs=np.array(outputs),
        input_map=AffineMap(lo=np.array(sidecar["input_map"]["lo"]),
                            hi=np.array(sidecar["input_map"]["hi"])),
        rejections=tuple(sidecar["rejections"]))
