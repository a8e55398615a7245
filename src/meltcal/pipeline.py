"""End-to-end orchestration: design -> surrogate -> SA -> calibration ->
validation -> report, with JSON configuration and cached stage artifacts.

The cached stages are declared in one table, ``_STAGES``.  Each entry
names the keys the stage reads, its upstream stages, every artifact file
it writes (sidecars included), and how to compute its result and, unless
it is one JSON document, how to save and load it.  One runner,
``Pipeline._run``, serves them all.  ``Pipeline.keys`` holds everything a
stage may read: the config entries, the dataset's canonical rows, the
numpy and scipy versions, the digest of each package module's source, and
``model``, the source digest of the forward model the config chooses:
``simulator.py`` under ``external``, else ``forward.py``.
A stage's digest hashes its name, the values of its reads and its
upstream digests, so a stage names only what its upstream stages do not
cover; a meta file beside the artifacts stores it.  Every
package module that a read module imports is read by the stage or by an
upstream stage, so an edit to any code a stage runs changes its digest.
The stage loads when the stored digest matches and every declared
artifact exists; otherwise it fetches its upstream results, computes,
deletes the meta file, saves, and writes the meta file anew, so a save
that stops partway leaves no digest.  Either way the result is kept on
the Pipeline, so one run computes or loads each stage once.  Deleting any
artifact recomputes the stage that wrote it; a changed setting, dataset,
library version or module source recomputes the stages that read it and
all stages downstream of them.  ``report`` is not cached: it always
summarizes the calibration's chain and rewrites report.json and the
figures.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import os
import time
import typing
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from . import doe, forward, inference, plots, sensitivity, simulator, surrogate
from .domain import (
    CalibrationParams,
    ExperimentRow,
    ExperimentalDataset,
    ForwardModel,
    PARAM_NAMES,
    PRIOR_LOWER,
    PRIOR_NOMINAL,
    PRIOR_UPPER,
    RandomStream,
    bundled_dataset_path,
    load_dataset,
)
from .simulator import ExternalModelSpec

__all__ = [
    "StageError",
    "McmcConfig",
    "RunConfig",
    "validate_at_point",
    "run_stage",
    "emit_plots",
    "STAGES",
]

class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage!r}: {message}")
        self.stage = stage


@dataclass(frozen=True)
class McmcConfig:
    """Counts per chain; the calibration runs ``inference.CHAINS`` chains."""

    steps: int = 25_000
    burn: int = 5_000
    thin: int = 20
    adapt_start: int = 1_000

    def __post_init__(self):
        for name in ("steps", "burn", "thin", "adapt_start"):
            if (value := getattr(self, name)) <= 0:
                raise ValueError(f"mcmc.{name} must be positive, got {value}")
        if not (self.steps > self.adapt_start >= 100):
            raise ValueError(f"need mcmc.steps > mcmc.adapt_start >= 100, got "
                             f"{self.steps} and {self.adapt_start}")
        if self.burn >= self.steps:
            raise ValueError(f"mcmc.burn must be smaller than mcmc.steps, got "
                             f"{self.burn} and {self.steps}")
        retained = len(range(self.burn, self.steps, self.thin))
        if retained < inference.MIN_RETAINED:
            raise ValueError(
                f"mcmc.steps, mcmc.burn and mcmc.thin retain {retained} states "
                f"per chain; need at least {inference.MIN_RETAINED}")
        peak = inference.chains_peak_bytes(retained, self.steps)
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        if peak > memory:
            raise ValueError(
                f"mcmc.steps {self.steps} needs {peak / 2**30:.1f} GiB to run "
                f"{inference.CHAINS} chains of {retained} retained states and "
                f"{self.steps} accept flags each, more than the "
                f"{memory / 2**30:.1f} GiB of physical memory")


@dataclass(frozen=True)
class RunConfig:
    dataset_path: str = str(bundled_dataset_path())
    external: ExternalModelSpec | None = None
    samples_per_condition: int = 10
    sa_n_base: int = 4096
    mcmc: McmcConfig = field(default_factory=McmcConfig)
    seed: int = 0
    out_dir: str = "meltcal_out"

    def __post_init__(self):
        if not Path(self.dataset_path).exists():
            raise FileNotFoundError(f"dataset not found: {self.dataset_path}")
        if self.samples_per_condition < 2:
            raise ValueError("samples_per_condition must be >= 2")
        sensitivity._check_n_base(self.sa_n_base, "sa_n_base")

    def to_dict(self) -> dict:
        """Plain JSON values; every ``Path`` becomes its string."""
        return json.loads(json.dumps(dataclasses.asdict(self), default=str))

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        """Inverse of ``to_dict``; a bad key or value is a ValueError naming it."""
        return _from_doc(cls, doc, "")

    def forward(self) -> ForwardModel:
        """The external model if ``external`` is set, else the reduced model."""
        if self.external is not None:
            return functools.partial(simulator.evaluate_external, self.external)
        # the module attribute, read at each call, so whatever wraps
        # forward.evaluate_reduced sees every evaluation
        return forward.evaluate_reduced


# The JSON type, and its name in errors, of each field annotation.
_JSON_TYPES = {int: (int, "an integer"), float: (float, "a number"),
               str: (str, "a string"), Path: (str, "a string")}


def _from_doc(cls, doc, prefix: str):
    """Config dataclass ``cls`` read from the JSON object ``doc``.

    Every key must name a field, and every value must have its field's
    JSON type: no field takes true or false, an int is a signed 64-bit
    integer, a float is any finite number (an integer is stored as a
    float), a ``Path`` is a string, ``null`` is allowed only where the
    annotation allows ``None``, and a dataclass field is an object read the
    same way.  Errors name the key, dotted after ``prefix``.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{prefix[:-1] or 'config'} must be an object, got {doc!r}")
    hints = typing.get_type_hints(cls)
    unknown = [prefix + key for key in doc if key not in hints]
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    return cls(**{key: _from_value(hints[key], value, prefix + key)
                  for key, value in doc.items()})


def _from_value(hint, value, key: str):
    options = typing.get_args(hint)
    if type(None) in options:
        if value is None:
            return None
        (hint,) = (option for option in options if option is not type(None))
    if dataclasses.is_dataclass(hint):
        return _from_doc(hint, value, key + ".")
    json_type, name = _JSON_TYPES[hint]
    if hint is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            raise ValueError(f"{key} must be a finite number, got {value!r}") from None
    if isinstance(value, bool) or not isinstance(value, json_type):
        raise ValueError(f"{key} must be {name}, got {value!r}")
    if hint is float and not math.isfinite(value):
        raise ValueError(f"{key} must be a finite number, got {value!r}")
    if hint is int and not -2**63 <= value < 2**63:
        raise ValueError(f"{key} must be an integer from -2**63 to 2**63 - 1, "
                         f"got {value!r}")
    return Path(value) if hint is Path else value


def _digest(*parts) -> str:
    blob = json.dumps(parts, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _row_values(row: ExperimentRow) -> tuple:
    """A row's values without its index: its canonical sort key."""
    design = row.design
    return (design.power, design.beam_radius, design.pulse_duration, row.length,
            row.depth, row.length_sigma, row.depth_sigma)


def _source_digests() -> dict[str, str]:
    """The digest of each package module's source, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
            for p in Path(__file__).parent.glob("*.py")}


def _write_json(doc, path: Path, indent: int | None = 2) -> None:
    path.write_text(json.dumps(doc, indent=indent, sort_keys=True) + "\n",
                    encoding="utf-8")


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _stored_digest(meta: Path) -> str | None:
    try:
        return _read_json(meta)["digest"]
    except (OSError, json.JSONDecodeError, KeyError, TypeError):
        return None


def _attr(stage: str) -> str:
    """Pipeline method (and meta file) name of a stage."""
    return stage.replace("-", "_")


@dataclass(frozen=True)
class _Stage:
    """One cached stage: what its digest covers, what it writes, how it runs.

    ``reads`` names the ``Pipeline.keys`` entries the stage reads that no
    upstream stage reads (none by default): a module's source by its file
    name (``doe.py``), a setting by its ``RunConfig.to_dict`` key.
    ``compute(pipeline, *upstream_results)`` returns the result,
    ``save(result, *artifact_paths)`` writes every artifact, and
    ``load(*artifact_paths)`` reads back a result equal to it.  By default
    the result is a JSON document in the stage's one artifact.
    """

    upstream: tuple[str, ...]
    artifacts: tuple[str, ...]
    compute: Callable
    save: Callable = _write_json
    load: Callable = _read_json
    reads: tuple[str, ...] = ()


def _save_gps(gps, *paths: Path) -> None:
    for gp, path in zip(gps, paths):
        surrogate.save_gp(gp, path)


def _calibrate(p: "Pipeline", gps) -> inference.PosteriorChain:
    target = inference.FixedTerms.build(p.dataset, *gps)
    step0 = (PRIOR_UPPER - PRIOR_LOWER) / 10.0
    mcmc = p.cfg.mcmc
    return inference.run_chains(
        target, PRIOR_NOMINAL, mcmc.steps, mcmc.adapt_start, p.stream.split(5),
        initial_step=step0, burn=mcmc.burn, thin=mcmc.thin)


def _validate(p: "Pipeline", chain: inference.PosteriorChain) -> dict:
    model = p.cfg.forward()
    # the pooled mean, bitwise the report's posterior mean (summarize)
    mean = chain.pooled_samples().mean(axis=0)
    return {
        "prior_nominal": validate_at_point(
            CalibrationParams.from_array(PRIOR_NOMINAL), p.dataset, model),
        "posterior_mean": validate_at_point(
            CalibrationParams.from_array(mean), p.dataset, model),
        "note": "in-sample comparison: the validation dataset equals the "
                "calibration dataset",
    }


# Every cached stage, in run order.
_STAGES = {
    "design": _Stage(
        reads=("external", "samples_per_condition", "seed", "dataset", "model",
               "numpy", "scipy", "doe.py", "domain.py"),
        upstream=(),
        artifacts=("training_set.csv", "training_set.json"),
        compute=lambda p: doe.build_training_set(
            p.dataset, p.cfg.samples_per_condition, p.cfg.forward(),
            p.stream.split(1)),
        save=doe.save_training_set,
        load=doe.load_training_set),
    "train": _Stage(
        # pipeline.py holds every stage's draws and glue; keyed here and not
        # at the design, an edit to it reruns no design run of a simulator
        reads=("surrogate.py", "pipeline.py"),
        upstream=("design",),
        artifacts=("gp_length.json", "gp_depth.json"),
        compute=lambda p, design: (
            surrogate.fit_gp(design, "length", p.stream.split(2)),
            surrogate.fit_gp(design, "depth", p.stream.split(3))),
        save=_save_gps,
        load=lambda *paths: tuple(map(surrogate.load_gp, paths))),
    "validate-surrogate": _Stage(
        upstream=("train",),
        artifacts=("surrogate_quality.json",),
        compute=lambda p, gps: {
            "q2_length": surrogate.loocv_q2(gps[0])[0],
            "q2_depth": surrogate.loocv_q2(gps[1])[0],
            "samples_per_condition": p.cfg.samples_per_condition}),
    "sa": _Stage(
        # sensitivity.py imports the rank transform from inference.py
        reads=("sa_n_base", "sensitivity.py", "inference.py"),
        upstream=("train",),
        artifacts=("sensitivity.json",),
        compute=lambda p, gps: sensitivity.sa_on_surrogate(
            *gps, p.dataset, p.cfg.sa_n_base, p.stream.split(4))),
    "calibrate": _Stage(
        reads=("mcmc", "inference.py"),
        upstream=("train",),
        artifacts=("chain.npz",),
        compute=_calibrate,
        save=lambda chain, path: inference.save_chain(chain, path),
        load=lambda path: inference.load_chain(path)),
    "validate": _Stage(
        upstream=("calibrate",),
        artifacts=("validation_errors.json",),
        compute=_validate),
}

STAGES = (*_STAGES, "report")


class Pipeline:
    """Stage runner bound to one RunConfig and output directory.

    Each stage of ``_STAGES`` is a method of the same name (dashes become
    underscores) that runs, loads or returns the kept result of the stage.
    """

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        # the rows in canonical order, so every order of one file is one run
        rows = sorted(load_dataset(cfg.dataset_path), key=_row_values)
        self.dataset = ExperimentalDataset(rows=tuple(
            dataclasses.replace(row, index=i) for i, row in enumerate(rows, start=1)))
        self.out = Path(cfg.out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.stream = RandomStream(cfg.seed)
        config, sources = cfg.to_dict(), _source_digests()
        if cfg.external is not None:  # where the simulator runs, not what it gives
            del config["external"]["working_dir"]
        self.keys = {
            **config, **sources, "numpy": np.__version__, "scipy": scipy.__version__,
            "dataset": [_row_values(row) for row in self.dataset],
            "model": sources["forward.py" if cfg.external is None else "simulator.py"]}
        self._results: dict[str, object] = {}

    # -- digests -----------------------------------------------------------

    def config_digest(self) -> str:
        """Digest of every stage's digest: of all the code and inputs that
        make the run's results, and of nothing else."""
        return _digest("config", [self._stage_digest(name) for name in _STAGES])

    def _stage_digest(self, name: str) -> str:
        """Digest of stage ``name``: its name, reads and upstream digests."""
        stage = _STAGES[name]
        return _digest(name, {key: self.keys[key] for key in stage.reads},
                       [self._stage_digest(up) for up in stage.upstream])

    # -- stages ------------------------------------------------------------

    def _run(self, name: str):
        """The result of stage ``name``: kept, loaded if fresh, else computed.

        Upstream results are fetched through the stage methods, and only
        when the stage computes.  An error of ``compute``, or of ``load``
        on a cached artifact, becomes a StageError raised from it; a load's
        names the artifact files.  Saving keeps its own error types.
        """
        if name in self._results:
            return self._results[name]
        stage = _STAGES[name]
        paths = [self.out / a for a in stage.artifacts]
        meta = self.out / f"{_attr(name)}.meta.json"
        digest = self._stage_digest(name)
        if all(path.exists() for path in paths) and _stored_digest(meta) == digest:
            try:
                result = stage.load(*paths)
            except Exception as exc:
                files = ", ".join(map(str, paths))
                raise StageError(name, f"cannot load {files}: {exc}") from exc
        else:
            upstream = [getattr(self, _attr(up))() for up in stage.upstream]
            try:
                result = stage.compute(self, *upstream)
            except Exception as exc:
                raise StageError(name, str(exc)) from exc
            # no digest beside a mix of old and new artifacts
            meta.unlink(missing_ok=True)
            stage.save(result, *paths)
            _write_json({"digest": digest, "stage": name}, meta, indent=None)
        self._results[name] = result
        return result

    def report(self) -> dict:
        ts = self.design()
        q2 = self.validate_surrogate()
        sa = self.sa()
        chain = self.calibrate()
        errors = self.validate()
        doc = {
            "posterior": inference.summarize(chain.samples),
            "posterior_mode": chain.posterior_mode().tolist(),
            "validation": errors,
            "surrogate_q2": q2,
            "sensitivity": {
                "parameters": sa["parameters"],
                "sobol_total_length": [row[0] for row in sa["sobol_total"]],
                "sobol_total_depth": [row[1] for row in sa["sobol_total"]],
            },
            "training": {"n": ts.n, "rejections": len(ts.rejections)},
            "likelihood": {"relative_fraction": inference.NOISE_FRACTION,
                           "absolute_floor": inference.NOISE_FLOOR},
            "provenance": {
                "seed": self.cfg.seed,
                "config_digest": self.config_digest(),
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            },
        }
        _write_json(doc, self.out / "report.json")
        emit_plots(doc, chain.pooled_samples(), self.dataset, self.out)
        return doc


def _stage_method(name: str):
    def run(self: Pipeline):
        return self._run(name)

    run.__name__ = run.__qualname__ = _attr(name)
    run.__doc__ = f"Result of the {name!r} stage (see ``_STAGES``)."
    return run


# Class attributes, so upstream fetches go through whatever wraps them.
for _name in _STAGES:
    setattr(Pipeline, _attr(_name), _stage_method(_name))


def validate_at_point(theta: CalibrationParams, dataset: ExperimentalDataset,
                      model: ForwardModel) -> dict:
    """Absolute prediction errors (mm) per experiment at one parameter point.

    Always evaluates the forward model, never a surrogate.
    """
    rows = []
    for row in dataset:
        size = model(row.design, theta)
        rows.append({
            "index": row.index,
            "predicted_length_mm": size.length * 1e3,
            "predicted_depth_mm": size.depth * 1e3,
            "length_error_mm": abs(size.length - row.length) * 1e3,
            "depth_error_mm": abs(size.depth - row.depth) * 1e3,
        })
    return {
        "rows": rows,
        "average_length_error_mm": float(np.mean([r["length_error_mm"] for r in rows])),
        "average_depth_error_mm": float(np.mean([r["depth_error_mm"] for r in rows])),
    }


def run_stage(cfg: RunConfig, stage: str):
    """Run one named CLI stage (and whatever upstream stages it needs) and
    return its result; ``run-all`` and ``report`` return the report
    document."""
    if stage not in (*STAGES, "run-all"):
        raise ValueError(f"unknown stage {stage!r}")
    return getattr(Pipeline(cfg), _attr("report" if stage == "run-all" else stage))()


def emit_plots(report: dict, retained: np.ndarray,
               dataset: ExperimentalDataset, out_dir: Path) -> list[Path]:
    """SVG figures for one completed run from its (n, 8) pooled retained
    states, with CSV data twins: ``posterior_pairs.csv`` holds the states
    every trace plots."""
    out_dir = Path(out_dir)
    if len(retained) == 0:
        raise ValueError("empty chain")
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    val = report["validation"]
    measured_mm = dataset.measurements() * 1e3
    for col, label in enumerate(("length", "depth")):
        prior_pred = np.array([r[f"predicted_{label}_mm"]
                               for r in val["prior_nominal"]["rows"]])
        post_pred = np.array([r[f"predicted_{label}_mm"]
                              for r in val["posterior_mean"]["rows"]])
        path = out_dir / f"parity_{label}.svg"
        plots.parity_plot(measured_mm[:, col], prior_pred, post_pred,
                          f"{label} (mm)", path)
        written.append(path)

    for j, name in enumerate(PARAM_NAMES):
        series = retained[:, j]
        tpath = out_dir / f"trace_{name}.svg"
        plots.trace_plot(series, name, tpath)
        written.append(tpath)
        apath = out_dir / f"acf_{name}.svg"
        if np.all(series == series[0]):
            acf = np.ones(1)
        else:
            acf = inference.autocorrelation(series, min(50, series.size - 1))
        plots.acf_plot(acf, name, apath)
        written.append(apath)

    ppath = out_dir / "posterior_pairs.svg"
    plots.pairs_grid(retained, PARAM_NAMES, ppath)
    written.append(ppath)

    sens = report["sensitivity"]
    for out_name in ("length", "depth"):
        bpath = out_dir / f"sobol_total_{out_name}.svg"
        plots.bar_chart(np.array(sens[f"sobol_total_{out_name}"]),
                        tuple(sens["parameters"]),
                        f"sobol_total_{out_name}", bpath)
        written.append(bpath)
    return written
