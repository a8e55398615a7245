"""Core data types: design variables, calibration parameters, the prior
box, experimental dataset I/O, and deterministic random streams.

Internal units are SI (m, s, K).  The dataset CSV keeps mm/ms because that
is how the measurements are tabulated.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

__all__ = [
    "DatasetFormatError",
    "DesignVars",
    "CalibrationParams",
    "ExperimentRow",
    "ExperimentalDataset",
    "MeltPoolSize",
    "ForwardModel",
    "RandomStream",
    "PARAM_NAMES",
    "PARAM_SYMBOLS",
    "PRIOR_NOMINAL",
    "PRIOR_LOWER",
    "PRIOR_UPPER",
    "finite_float",
    "read_table",
    "load_dataset",
    "bundled_dataset_path",
]

# Calibration parameter order, shared by every array representation.
PARAM_NAMES = (
    "alpha", "a_h", "emissivity", "c_l", "k_l", "latent_heat", "mu_l", "gamma_t",
)
# Symbols used in on-disk key=value / CSV formats.
PARAM_SYMBOLS = ("alpha", "A_h", "epsilon", "c_l", "k_l", "L", "mu_l", "gamma_T")

# The uniform prior of the paper's Table 2: each parameter's nominal value
# and the two multipliers of its bounds.
_PRIOR_TABLE = {
    "alpha": (0.27, 0.5, 1.5),
    "a_h": (100.0, 0.8, 1.2),
    "emissivity": (0.59, 0.5, 1.5),
    "c_l": (837.4, 0.9, 1.1),
    "k_l": (209.3, 0.9, 1.1),
    "latent_heat": (2.5e5, 0.9, 1.1),
    "mu_l": (0.1, 0.5, 2.0),
    "gamma_t": (-4.3e-4, 0.9, 1.1),
}


def _prior_box() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only nominal, lower and upper arrays in PARAM_NAMES order.  A
    bound is the min or max of the nominal times its two multipliers, so a
    negative nominal's interval comes out sorted."""
    nominal, lo, hi = map(np.array, zip(*(_PRIOR_TABLE[n] for n in PARAM_NAMES)))
    box = (nominal, np.minimum(nominal * lo, nominal * hi),
           np.maximum(nominal * lo, nominal * hi))
    for array in box:
        array.flags.writeable = False
    return box


PRIOR_NOMINAL, PRIOR_LOWER, PRIOR_UPPER = _prior_box()

CSV_HEADER = ["index", "power_W", "beam_radius_mm", "pulse_ms", "length_mm", "depth_mm"]
CSV_SIGMA_COLS = ["length_sigma_mm", "depth_sigma_mm"]


class DatasetFormatError(ValueError):
    """Raised for malformed dataset files (bad header, bad cell, bad value)."""


@dataclass(frozen=True)
class DesignVars:
    """Controlled experimental settings for one spot weld."""

    power: float           # W
    beam_radius: float     # m
    pulse_duration: float  # s

    def __post_init__(self):
        if not (self.power > 0 and self.beam_radius > 0 and self.pulse_duration > 0):
            raise ValueError("design variables must be strictly positive")
        if self.beam_radius >= 0.01:
            raise ValueError(f"beam_radius {self.beam_radius} m outside spot-weld regime")
        if self.pulse_duration >= 1.0:
            raise ValueError(f"pulse_duration {self.pulse_duration} s outside spot-weld regime")

    def as_array(self) -> np.ndarray:
        return np.array([self.power, self.beam_radius, self.pulse_duration])


@dataclass(frozen=True)
class CalibrationParams:
    """The eight uncertain physical inputs."""

    alpha: float        # laser energy absorption coefficient, dimensionless
    a_h: float          # heat transfer coefficient, W/(m^2 K)
    emissivity: float   # dimensionless
    c_l: float          # specific heat, J/(kg K)
    k_l: float          # effective thermal conductivity, W/(m K)
    latent_heat: float  # J/kg
    mu_l: float         # effective viscosity, kg/(m s)
    gamma_t: float      # thermal capillary coefficient, N/(m K)

    def __post_init__(self):
        for name in PARAM_NAMES:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (0 < self.alpha <= 1):
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not (0 < self.emissivity <= 1):
            raise ValueError(f"emissivity must be in (0, 1], got {self.emissivity}")
        for name in ("a_h", "c_l", "k_l", "latent_heat", "mu_l"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.gamma_t >= 0:
            raise ValueError(f"gamma_t must be negative for this material, got {self.gamma_t}")

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, n) for n in PARAM_NAMES])

    @classmethod
    def from_array(cls, values: Sequence[float]) -> "CalibrationParams":
        values = np.asarray(values, dtype=float)
        if values.shape != (len(PARAM_NAMES),):
            raise ValueError(f"expected {len(PARAM_NAMES)} values, got shape {values.shape}")
        return cls(**dict(zip(PARAM_NAMES, values.tolist())))


@dataclass(frozen=True)
class ExperimentRow:
    index: int
    design: DesignVars
    length: float  # m
    depth: float   # m
    length_sigma: float | None = None  # m
    depth_sigma: float | None = None   # m


@dataclass(frozen=True)
class ExperimentalDataset:
    rows: tuple[ExperimentRow, ...]

    def __post_init__(self):
        indices = [r.index for r in self.rows]
        if indices != list(range(1, len(self.rows) + 1)):
            raise ValueError("row indices must be unique, contiguous from 1 "
                             "and in ascending order")

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def measurements(self) -> np.ndarray:
        """(n, 2) array of [length, depth] in meters."""
        return np.array([[r.length, r.depth] for r in self.rows])

    def design_matrix(self) -> np.ndarray:
        """(n, 3) array of [power, beam_radius, pulse_duration] in SI."""
        return np.array([r.design.as_array() for r in self.rows])


@dataclass(frozen=True)
class MeltPoolSize:
    length: float  # m (surface pool diameter for a stationary spot weld)
    depth: float   # m
    melted: bool

    def __post_init__(self):
        if not self.melted:
            if self.length != 0.0 or self.depth != 0.0:
                raise ValueError("unmelted pool must have zero dimensions")
        else:
            if not (np.isfinite(self.length) and np.isfinite(self.depth)):
                raise ValueError("melted pool dimensions must be finite")
            if self.length <= 0 or self.depth <= 0:
                raise ValueError("melted pool dimensions must be positive")


class ForwardModel(Protocol):
    """A forward model: ``forward.evaluate_reduced``, or an external
    simulator bound to its spec (``simulator.evaluate_external``)."""

    def __call__(self, design: DesignVars, theta: CalibrationParams) -> MeltPoolSize: ...


def _mix64(x: int) -> int:
    """splitmix64 finalizer; deterministic 64-bit avalanche."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


@dataclass(frozen=True)
class RandomStream:
    """Counter-based (Philox) random stream keyed by (seed, stream id).

    Substreams derive their id by hashing, so parallel work partitions
    deterministically without coordination.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed & 0xFFFFFFFFFFFFFFFF,
                        self.stream_id & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def split(self, index: int) -> "RandomStream":
        child = _mix64(self.stream_id ^ _mix64(index + 1))
        return RandomStream(self.seed, child)


def bundled_dataset_path() -> Path:
    """Path of the packaged 13-condition spot-weld dataset."""
    return Path(__file__).parent / "data" / "table3.csv"


def finite_float(text: str, where: str, error: type[Exception]) -> float:
    """``text`` read as a finite float, else an ``error`` whose message
    starts with ``where``, the place the text was read from."""
    try:
        value = float(text)
    except ValueError:
        raise error(f"{where}: non-numeric value {text!r}") from None
    if not math.isfinite(value):
        raise error(f"{where}: non-finite value {text!r}")
    return value


def read_table(path: str | Path, headers: Sequence[list[str]],
               error: type[Exception]) -> tuple[list[str], list[tuple[int, list[float]]]]:
    """The header of the CSV at ``path``, one of ``headers``, and its rows
    as (row number, finite floats).  Blank lines are skipped.  A missing or
    other header, a row of another cell count, a cell that is not a finite
    number, or no rows at all is an ``error`` naming the file, and the row
    and column where it has them."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise error(f"{path}: empty file")
        if header not in headers:
            raise error(f"{path}: bad header {header!r}; expected one of {list(headers)}")
        rows = []
        for row_num, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != len(header):
                raise error(f"{path}: row {row_num} has {len(cells)} cells, "
                            f"expected {len(header)}")
            rows.append((row_num, [finite_float(text, f"{path}: row {row_num}, column {col!r}",
                                                error)
                                   for col, text in zip(header, cells)]))
    if not rows:
        raise error(f"{path}: no data rows")
    return header, rows


def load_dataset(path: str | Path) -> ExperimentalDataset:
    """Read a measurement CSV (mm/ms units on disk, SI in memory)."""
    path = Path(path)
    header, table = read_table(path, [CSV_HEADER, CSV_HEADER + CSV_SIGMA_COLS],
                               DatasetFormatError)
    has_sigma = len(header) > len(CSV_HEADER)
    rows = []
    for row_num, values in table:
        vals = dict(zip(header, values))
        if not vals["index"].is_integer():
            raise DatasetFormatError(
                f"{path}: row {row_num}, column 'index': "
                f"non-integral value {vals['index']!r}")
        for col in header[4:]:  # the measurements and their sigmas
            if vals[col] <= 0:
                raise DatasetFormatError(
                    f"{path}: row {row_num}, column {col!r}: "
                    f"non-positive value {vals[col]}")
        try:
            design = DesignVars(power=vals["power_W"],
                                beam_radius=vals["beam_radius_mm"] * 1e-3,
                                pulse_duration=vals["pulse_ms"] * 1e-3)
        except ValueError as exc:
            raise DatasetFormatError(f"{path}: row {row_num}: {exc}") from None
        rows.append(ExperimentRow(
            index=int(vals["index"]),
            design=design,
            length=vals["length_mm"] * 1e-3,
            depth=vals["depth_mm"] * 1e-3,
            length_sigma=vals["length_sigma_mm"] * 1e-3 if has_sigma else None,
            depth_sigma=vals["depth_sigma_mm"] * 1e-3 if has_sigma else None,
        ))
    try:
        return ExperimentalDataset(rows=tuple(rows))
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from None
