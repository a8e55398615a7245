"""End-to-end orchestration: design -> surrogate -> SA -> calibration ->
validation -> report, with JSON configuration and cached stage artifacts.

The cached stages are declared in one table, ``_STAGES``.  Each entry
names the configuration the stage reads, its upstream stages, every
artifact file it writes (sidecars included), and how to compute, save and
load its result.  One runner, ``Pipeline._run``, serves them all.  A
stage's digest hashes its name, its reads and its upstream digests, and a
meta file beside the artifacts stores it.  The stage loads when the stored
digest matches and every declared artifact exists; otherwise it fetches
its upstream results, computes, saves, and writes the meta file.  Either
way the result is kept on the Pipeline, so one run computes or loads each
stage once.  Deleting any artifact recomputes the stage that wrote it; a
changed setting recomputes the stages that read it and all stages
downstream of them.  ``report`` is not cached: it always rewrites
report.json and the figures.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import doe, inference, plots, sensitivity, surrogate
from .domain import (
    CalibrationParams,
    DesignVars,
    ExperimentalDataset,
    PARAM_NAMES,
    PriorSpec,
    RandomStream,
    bundled_dataset_path,
    load_dataset,
    prior_from_table2,
)
from .forward import (
    ExternalModelSpec,
    ForwardModel,
    ReducedModelConfig,
    RunTable,
    external_model,
    reduced_model,
    table_model,
)
from .domain import PhysicalConstants

__all__ = [
    "StageError",
    "McmcConfig",
    "RunConfig",
    "validate_at_point",
    "run_calibration",
    "run_stage",
    "emit_plots",
    "STAGES",
]

# The points (design + theta, raw units) at which the design stage
# evaluated the forward model, in order.
DESIGN_READS = "design_reads.json"


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage!r}: {message}")
        self.stage = stage


@dataclass(frozen=True)
class McmcConfig:
    steps: int = 50_000
    burn: int = 10_000
    thin: int = 20
    adapt_start: int = 1_000

    def __post_init__(self):
        if min(self.steps, self.burn, self.thin, self.adapt_start) <= 0:
            raise ValueError("all MCMC counts must be positive")
        if not (self.steps > self.adapt_start >= 100):
            raise ValueError("need steps > adapt_start >= 100")
        if self.burn >= self.steps:
            raise ValueError("burn must be smaller than steps")


@dataclass(frozen=True)
class RunConfig:
    dataset_path: str = str(bundled_dataset_path())
    model: str = "reduced"  # "reduced" | "external" | "table"
    reduced: ReducedModelConfig = field(default_factory=ReducedModelConfig)
    external: ExternalModelSpec | None = None
    run_table_path: str | None = None
    constants: PhysicalConstants = field(default_factory=PhysicalConstants)
    samples_per_condition: int = 10
    sa_n_base: int = 4096
    mcmc: McmcConfig = field(default_factory=McmcConfig)
    likelihood: inference.LikelihoodConfig = field(
        default_factory=inference.LikelihoodConfig)
    seed: int = 0
    out_dir: str = "meltcal_out"

    def __post_init__(self):
        if self.model not in ("reduced", "external", "table"):
            raise ValueError("model must be 'reduced', 'external', or 'table'")
        if self.model == "external" and self.external is None:
            raise ValueError("external model selected but no spec given")
        if self.model == "table" and self.run_table_path is None:
            raise ValueError("table model selected but no run_table_path given")
        if not Path(self.dataset_path).exists():
            raise FileNotFoundError(f"dataset not found: {self.dataset_path}")
        if self.samples_per_condition < 2:
            raise ValueError("samples_per_condition must be >= 2")

    def to_dict(self) -> dict:
        doc = {
            "dataset_path": self.dataset_path,
            "model": self.model,
            "reduced": dataclasses.asdict(self.reduced),
            "external": (None if self.external is None else {
                "command_template": self.external.command_template,
                "working_dir": str(self.external.working_dir),
                "timeout": self.external.timeout,
            }),
            "run_table_path": self.run_table_path,
            "constants": dataclasses.asdict(self.constants),
            "samples_per_condition": self.samples_per_condition,
            "sa_n_base": self.sa_n_base,
            "mcmc": dataclasses.asdict(self.mcmc),
            "likelihood": dataclasses.asdict(self.likelihood),
            "seed": self.seed,
            "out_dir": self.out_dir,
        }
        return doc

    def to_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True)
                              + "\n", encoding="utf-8")

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        """Inverse of ``to_dict``; a key that names no field is a ValueError."""
        sections = {"reduced": ReducedModelConfig, "external": ExternalModelSpec,
                    "constants": PhysicalConstants, "mcmc": McmcConfig,
                    "likelihood": inference.LikelihoodConfig}
        unknown = _unknown_keys(cls, doc, "")
        for name, section in sections.items():
            if doc.get(name) is None:
                continue
            if not isinstance(doc[name], dict):
                raise ValueError(f"config section {name!r} must be an object")
            unknown += _unknown_keys(section, doc[name], f"{name}.")
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        kwargs = dict(doc)
        if kwargs.get("external") and "working_dir" in kwargs["external"]:
            kwargs["external"] = dict(kwargs["external"],
                                      working_dir=Path(kwargs["external"]["working_dir"]))
        for name, section in sections.items():
            if kwargs.get(name) is not None:
                kwargs[name] = section(**kwargs[name])
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path: str | Path) -> "RunConfig":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

    def forward(self) -> ForwardModel:
        if self.model == "reduced":
            return reduced_model(self.constants, self.reduced)
        if self.model == "external":
            return external_model(self.external)
        fallback = reduced_model(self.constants, self.reduced)
        return table_model(RunTable(self.run_table_path), fallback)


def _unknown_keys(cls, doc: dict, prefix: str) -> list[str]:
    names = {f.name for f in dataclasses.fields(cls)}
    return [prefix + key for key in doc if key not in names]


def _digest(*parts) -> str:
    blob = json.dumps(parts, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _file_digest(path: str | Path) -> str | None:
    path = Path(path)
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16] if path.exists() else None


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

    ``config`` names the ``RunConfig.to_dict`` entries the stage reads
    beyond its upstream stages, and ``inputs(pipeline)`` whatever else it
    reads.  ``compute(pipeline, *upstream_results)`` returns the result,
    ``save(result, *artifact_paths)`` writes every artifact, and
    ``load(pipeline, *artifact_paths)`` reads back a result equal to it.
    """

    config: tuple[str, ...]
    upstream: tuple[str, ...]
    artifacts: tuple[str, ...]
    compute: Callable
    save: Callable
    load: Callable
    inputs: Callable[["Pipeline"], object] = lambda p: None


def _design(p: "Pipeline") -> tuple[doe.TrainingSet, list]:
    """The training set and the points (design + theta, raw units) at which
    it evaluated the forward model, in order."""
    model, reads = p.cfg.forward(), []

    def recorded(design: DesignVars, theta: CalibrationParams):
        reads.append(design.as_array().tolist() + theta.as_array().tolist())
        return model(design, theta)

    ts = doe.build_training_set(p.dataset, p.prior, p.cfg.samples_per_condition,
                                recorded, p.stream.split(1))
    return ts, reads


def _save_design(result, csv_path: Path, _sidecar: Path, reads_path: Path) -> None:
    doe.save_training_set(result[0], csv_path)  # writes the sidecar too
    _write_json(result[1], reads_path, indent=None)


def _save_gps(gps, *paths: Path) -> None:
    for gp, path in zip(gps, paths):
        surrogate.save_gp(gp, path)


def _calibrate(p: "Pipeline", gps) -> tuple[inference.PosteriorChain,
                                             inference.PosteriorSummary]:
    target = inference.make_log_posterior(p.dataset, *gps, p.cfg.likelihood, p.prior)
    step0 = (p.prior.upper() - p.prior.lower()) / 10.0
    chain = inference.adaptive_metropolis(
        target, p.prior.nominal(), p.cfg.mcmc.steps, p.cfg.mcmc.adapt_start,
        p.stream.split(5), initial_step=step0)
    return _with_summary(p, chain)


def _with_summary(p: "Pipeline", chain: inference.PosteriorChain):
    retained = inference.burn_thin(chain, p.cfg.mcmc.burn, p.cfg.mcmc.thin)
    return chain, inference.summarize(retained)


def _save_calibration(result, chain_path: Path, _sidecar: Path,
                      summary_path: Path) -> None:
    inference.save_chain(result[0], chain_path)  # writes the sidecar too
    _write_json(result[1].to_dict(), summary_path)


def _validate(p: "Pipeline", calibrated) -> dict:
    model = p.cfg.forward()
    return {
        "prior_nominal": validate_at_point(p.prior.nominal_params(), p.dataset, model),
        "posterior_mean": validate_at_point(
            CalibrationParams.from_array(calibrated[1].mean), p.dataset, model),
        "note": "in-sample comparison: the validation dataset equals the "
                "calibration dataset",
    }


# Every cached stage, in run order.
_STAGES = {
    "design": _Stage(
        config=("model", "reduced", "constants", "external", "run_table_path",
                "samples_per_condition", "seed"),
        inputs=lambda p: (p._dataset_digest, p._table_rows_read()),
        upstream=(),
        artifacts=("training_set.csv", "training_set.json", DESIGN_READS),
        compute=_design,
        save=_save_design,
        load=lambda p, csv_path, _sidecar, reads_path: (
            doe.load_training_set(csv_path), _read_json(reads_path))),
    "train": _Stage(
        config=("seed",),
        upstream=("design",),
        artifacts=("gp_length.json", "gp_depth.json"),
        compute=lambda p, design: (
            surrogate.fit_gp(design[0], "length", p.stream.split(2)),
            surrogate.fit_gp(design[0], "depth", p.stream.split(3))),
        save=_save_gps,
        load=lambda p, *paths: tuple(map(surrogate.load_gp, paths))),
    "validate-surrogate": _Stage(
        config=(),
        upstream=("train",),
        artifacts=("surrogate_quality.json",),
        compute=lambda p, gps: {
            "q2_length": surrogate.loocv_q2(gps[0])[0],
            "q2_depth": surrogate.loocv_q2(gps[1])[0],
            "samples_per_condition": p.cfg.samples_per_condition},
        save=_write_json,
        load=lambda p, path: _read_json(path)),
    "sa": _Stage(
        config=("sa_n_base",),
        upstream=("train",),
        artifacts=("sensitivity.json", "sensitivity.csv"),
        compute=lambda p, gps: sensitivity.sa_on_surrogate(
            *gps, p.dataset, p.prior, p.cfg.sa_n_base, p.stream.split(4)),
        save=sensitivity.save_report,
        load=lambda p, json_path, _csv: sensitivity.load_report(json_path)),
    "calibrate": _Stage(
        config=("mcmc", "likelihood"),
        upstream=("train",),
        artifacts=("chain.csv", "chain.json", "posterior.json"),
        compute=_calibrate,
        save=_save_calibration,
        load=lambda p, chain_path, *_: _with_summary(
            p, inference.load_chain(chain_path))),
    "validate": _Stage(
        config=(),
        upstream=("calibrate",),
        artifacts=("validation_errors.json",),
        compute=_validate,
        save=_write_json,
        load=lambda p, path: _read_json(path)),
}

STAGES = (*_STAGES, "report")


class Pipeline:
    """Stage runner bound to one RunConfig and output directory.

    Each stage of ``_STAGES`` is a method of the same name (dashes become
    underscores) that runs, loads or returns the kept result of the stage.
    """

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.out = Path(cfg.out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.dataset: ExperimentalDataset = load_dataset(cfg.dataset_path)
        self.prior: PriorSpec = prior_from_table2()
        self.stream = RandomStream(cfg.seed)
        self._dataset_digest = _file_digest(cfg.dataset_path)
        self._results: dict[str, object] = {}

    # -- digests -----------------------------------------------------------

    def config_digest(self) -> str:
        """Digest of the scientific configuration.

        The dataset enters by content, not by path; where the artifacts
        live does not enter at all.
        """
        doc = {k: v for k, v in self.cfg.to_dict().items()
               if k not in ("dataset_path", "out_dir")}
        return _digest("config", doc, self._dataset_digest)

    def _stage_digest(self, name: str) -> str:
        """Digest of stage ``name``: its name, reads and upstream digests."""
        stage, doc = _STAGES[name], self.cfg.to_dict()
        return _digest(name, [doc[k] for k in stage.config], stage.inputs(self),
                       [self._stage_digest(up) for up in stage.upstream])

    def _table_rows_read(self) -> list | None:
        """The run table's current rows at the points the stored design read.

        Later stages and other runs add rows to the table, so the design
        is keyed on the rows it read, not on the whole file.  None for the
        other models and before the design has run.
        """
        path = self.out / DESIGN_READS
        if self.cfg.model != "table" or not path.exists():
            return None
        table = RunTable(self.cfg.run_table_path)
        rows = []
        for x in _read_json(path):
            size = table.lookup(DesignVars(*x[:3]), CalibrationParams.from_array(x[3:]))
            rows.append(None if size is None else dataclasses.astuple(size))
        return rows

    # -- stages ------------------------------------------------------------

    def _run(self, name: str):
        """The result of stage ``name``: kept, loaded if fresh, else computed.

        Upstream results are fetched through the stage methods, and only
        when the stage computes.  Only ``compute``'s errors become a
        StageError; saving and loading keep their own error types.
        """
        if name in self._results:
            return self._results[name]
        stage = _STAGES[name]
        paths = [self.out / a for a in stage.artifacts]
        meta = self.out / f"{_attr(name)}.meta.json"
        if (all(path.exists() for path in paths)
                and _stored_digest(meta) == self._stage_digest(name)):
            result = stage.load(self, *paths)
        else:
            upstream = [getattr(self, _attr(up))() for up in stage.upstream]
            try:
                result = stage.compute(self, *upstream)
            except Exception as exc:
                raise StageError(name, str(exc)) from exc
            stage.save(result, *paths)
            # after saving: the design's digest covers the table rows it read
            _write_json({"digest": self._stage_digest(name), "stage": name}, meta,
                        indent=None)
        self._results[name] = result
        return result

    def report(self) -> dict:
        ts, _ = self.design()
        q2 = self.validate_surrogate()
        sa_report = self.sa()
        chain, summary = self.calibrate()
        errors = self.validate()
        doc = {
            "posterior": summary.to_dict(),
            "posterior_mode": chain.samples[int(np.argmax(chain.log_post))].tolist(),
            "validation": errors,
            "surrogate_q2": q2,
            "sensitivity": {
                "parameters": list(sa_report.parameters),
                "sobol_total_length": sa_report.sobol_total[:, 0].tolist(),
                "sobol_total_depth": sa_report.sobol_total[:, 1].tolist(),
            },
            "training": {"n": ts.n, "rejections": len(ts.rejections)},
            "likelihood": dataclasses.asdict(self.cfg.likelihood),
            "provenance": {
                "seed": self.cfg.seed,
                "config_digest": self.config_digest(),
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            },
        }
        _write_json(doc, self.out / "report.json")
        retained = inference.burn_thin(chain, self.cfg.mcmc.burn, self.cfg.mcmc.thin)
        emit_plots(doc, retained, self.dataset, self.out)
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


def run_calibration(cfg: RunConfig) -> dict:
    """Execute the full stage sequence and return the report document."""
    return Pipeline(cfg).report()


def run_stage(cfg: RunConfig, stage: str) -> None:
    """Run one named CLI stage (and whatever upstream stages it needs)."""
    if stage not in (*STAGES, "run-all"):
        raise ValueError(f"unknown stage {stage!r}")
    getattr(Pipeline(cfg), _attr("report" if stage == "run-all" else stage))()


def emit_plots(report: dict, retained: inference.PosteriorChain,
               dataset: ExperimentalDataset, out_dir: Path) -> list[Path]:
    """SVG figures (with CSV data twins) for one completed run."""
    out_dir = Path(out_dir)
    if retained.steps == 0:
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
        series = retained.samples[:, j]
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
    plots.pairs_grid(retained.samples, PARAM_NAMES, ppath)
    written.append(ppath)

    sens = report["sensitivity"]
    for out_name in ("length", "depth"):
        bpath = out_dir / f"sobol_total_{out_name}.svg"
        plots.bar_chart(np.array(sens[f"sobol_total_{out_name}"]),
                        tuple(sens["parameters"]),
                        f"sobol_total_{out_name}", bpath)
        written.append(bpath)
    return written
