"""End-to-end orchestration: design -> surrogate -> SA -> calibration ->
validation -> report, with JSON configuration and cached stage artifacts.

Every stage writes its artifact plus a small meta file holding a content
digest of (its config section, upstream digests).  A stage re-runs only
when that digest changes, so deleting one artifact recomputes exactly the
stages downstream of it.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import time
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
# evaluated a table model, in order.
DESIGN_READS = "design_reads.json"

STAGES = ("design", "train", "validate-surrogate", "sa", "calibrate",
          "validate", "report")


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
    threads: int = 1

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
        if self.threads < 1:
            raise ValueError("threads must be >= 1")

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
            "threads": self.threads,
        }
        return doc

    def to_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True)
                              + "\n", encoding="utf-8")

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        kwargs = dict(doc)
        if "reduced" in kwargs:
            kwargs["reduced"] = ReducedModelConfig(**kwargs["reduced"])
        if kwargs.get("external"):
            ext = kwargs["external"]
            kwargs["external"] = ExternalModelSpec(
                command_template=ext["command_template"],
                working_dir=Path(ext["working_dir"]), timeout=ext["timeout"])
        if "constants" in kwargs:
            kwargs["constants"] = PhysicalConstants(**kwargs["constants"])
        if "mcmc" in kwargs:
            kwargs["mcmc"] = McmcConfig(**kwargs["mcmc"])
        if "likelihood" in kwargs:
            kwargs["likelihood"] = inference.LikelihoodConfig(**kwargs["likelihood"])
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


def _digest(*parts) -> str:
    blob = json.dumps(parts, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _file_digest(path: str | Path) -> str | None:
    path = Path(path)
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16] if path.exists() else None


def _meta_path(out: Path, stage: str) -> Path:
    return out / f"{stage.replace('-', '_')}.meta.json"


def _stage_fresh(out: Path, stage: str, digest: str, artifacts: list[Path]) -> bool:
    meta = _meta_path(out, stage)
    if not meta.exists() or not all(p.exists() for p in artifacts):
        return False
    try:
        return json.loads(meta.read_text())["digest"] == digest
    except (json.JSONDecodeError, KeyError):
        return False


def _mark_stage(out: Path, stage: str, digest: str) -> None:
    _meta_path(out, stage).write_text(
        json.dumps({"digest": digest, "stage": stage}, sort_keys=True) + "\n",
        encoding="utf-8")


def _kept(stage):
    """Keep a stage's result on its Pipeline after the first call.

    Later calls, from downstream stages or from ``report``, get the result
    computed or loaded then, instead of loading the artifacts again.  A
    stage may be kept only if its loaded result equals the computed one.
    """
    @functools.wraps(stage)
    def kept(self):
        if stage.__name__ not in self._results:
            self._results[stage.__name__] = stage(self)
        return self._results[stage.__name__]

    return kept


class Pipeline:
    """Stage runner bound to one RunConfig and output directory."""

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
        live and how many workers ran do not enter at all.
        """
        doc = {k: v for k, v in self.cfg.to_dict().items()
               if k not in ("dataset_path", "out_dir", "threads")}
        return _digest("config", doc, self._dataset_digest)

    def _design_digest(self) -> str:
        return _digest("design", self._dataset_digest, self.cfg.model,
                       dataclasses.asdict(self.cfg.reduced),
                       dataclasses.asdict(self.cfg.constants),
                       self.cfg.to_dict()["external"], self.cfg.run_table_path,
                       self._table_rows_read(),
                       self.cfg.samples_per_condition, self.cfg.seed)

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
        for x in json.loads(path.read_text(encoding="utf-8")):
            size = table.lookup(DesignVars(*x[:3]), CalibrationParams.from_array(x[3:]))
            rows.append(None if size is None else dataclasses.astuple(size))
        return rows

    def _train_digest(self) -> str:
        return _digest("train", self._design_digest(), self.cfg.seed)

    def _sa_digest(self) -> str:
        return _digest("sa", self._train_digest(), self.cfg.sa_n_base)

    def _calibrate_digest(self) -> str:
        return _digest("calibrate", self._train_digest(),
                       dataclasses.asdict(self.cfg.mcmc),
                       dataclasses.asdict(self.cfg.likelihood))

    def _validate_digest(self) -> str:
        return _digest("validate", self._calibrate_digest())

    # -- stages ------------------------------------------------------------

    # Not kept: training_set.csv rounds to 12 significant digits, and a
    # run-all fits the GPs on the design as re-read from it; keeping the
    # computed set would fit them on unrounded inputs and move every result.
    def design(self) -> doe.TrainingSet:
        path = self.out / "training_set.csv"
        reads_path = self.out / DESIGN_READS
        on_table = self.cfg.model == "table"
        digest = self._design_digest()
        if _stage_fresh(self.out, "design", digest,
                        [path, reads_path] if on_table else [path]):
            return doe.load_training_set(path)
        model, reads = self.cfg.forward(), []

        def recorded(design: DesignVars, theta: CalibrationParams):
            reads.append(design.as_array().tolist() + theta.as_array().tolist())
            return model(design, theta)

        try:
            ts = doe.build_training_set(self.dataset, self.prior,
                                        self.cfg.samples_per_condition,
                                        recorded, self.stream.split(1))
        except Exception as exc:
            raise StageError("design", str(exc)) from exc
        doe.save_training_set(ts, path)
        if on_table:
            reads_path.write_text(json.dumps(reads) + "\n", encoding="utf-8")
        # the table now holds every row the design read
        _mark_stage(self.out, "design", self._design_digest())
        return ts

    @_kept
    def train(self) -> tuple[surrogate.GpSurrogate, surrogate.GpSurrogate]:
        paths = [self.out / "gp_length.json", self.out / "gp_depth.json"]
        digest = self._train_digest()
        if _stage_fresh(self.out, "train", digest, paths):
            return surrogate.load_gp(paths[0]), surrogate.load_gp(paths[1])
        ts = self.design()
        try:
            gp_l = surrogate.fit_gp(ts, "length", self.stream.split(2))
            gp_d = surrogate.fit_gp(ts, "depth", self.stream.split(3))
        except Exception as exc:
            raise StageError("train", str(exc)) from exc
        surrogate.save_gp(gp_l, paths[0])
        surrogate.save_gp(gp_d, paths[1])
        _mark_stage(self.out, "train", digest)
        return gp_l, gp_d

    @_kept
    def validate_surrogate(self) -> dict:
        path = self.out / "surrogate_quality.json"
        digest = _digest("validate-surrogate", self._train_digest())
        if _stage_fresh(self.out, "validate-surrogate", digest, [path]):
            return json.loads(path.read_text(encoding="utf-8"))
        gp_l, gp_d = self.train()
        try:
            q2_l, _ = surrogate.loocv_q2(gp_l)
            q2_d, _ = surrogate.loocv_q2(gp_d)
        except Exception as exc:
            raise StageError("validate-surrogate", str(exc)) from exc
        doc = {"q2_length": q2_l, "q2_depth": q2_d,
               "samples_per_condition": self.cfg.samples_per_condition}
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        _mark_stage(self.out, "validate-surrogate", digest)
        return doc

    @_kept
    def sa(self) -> sensitivity.SensitivityReport:
        json_path = self.out / "sensitivity.json"
        csv_path = self.out / "sensitivity.csv"
        digest = self._sa_digest()
        if _stage_fresh(self.out, "sa", digest, [json_path, csv_path]):
            return sensitivity.load_report(json_path)
        gp_l, gp_d = self.train()
        try:
            report = sensitivity.sa_on_surrogate(gp_l, gp_d, self.dataset,
                                                 self.prior, self.cfg.sa_n_base,
                                                 self.stream.split(4))
        except Exception as exc:
            raise StageError("sa", str(exc)) from exc
        sensitivity.save_report(report, json_path, csv_path)
        _mark_stage(self.out, "sa", digest)
        return report

    @_kept
    def calibrate(self) -> tuple[inference.PosteriorChain, inference.PosteriorSummary]:
        chain_path = self.out / "chain.csv"
        summary_path = self.out / "posterior.json"
        digest = self._calibrate_digest()
        if _stage_fresh(self.out, "calibrate", digest, [chain_path, summary_path]):
            chain = inference.load_chain(chain_path)
            retained = inference.burn_thin(chain, self.cfg.mcmc.burn,
                                           self.cfg.mcmc.thin)
            return chain, inference.summarize(retained)
        gp_l, gp_d = self.train()
        target = inference.make_log_posterior(self.dataset, gp_l, gp_d,
                                              self.cfg.likelihood, self.prior)
        init = self.prior.nominal()
        step0 = (self.prior.upper() - self.prior.lower()) / 10.0
        try:
            chain = inference.adaptive_metropolis(
                target, init, self.cfg.mcmc.steps, self.cfg.mcmc.adapt_start,
                self.stream.split(5), initial_step=step0)
        except Exception as exc:
            raise StageError("calibrate", str(exc)) from exc
        inference.save_chain(chain, chain_path)
        retained = inference.burn_thin(chain, self.cfg.mcmc.burn, self.cfg.mcmc.thin)
        summary = inference.summarize(retained)
        summary_path.write_text(
            json.dumps(summary.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        _mark_stage(self.out, "calibrate", digest)
        return chain, summary

    @_kept
    def validate(self) -> dict:
        path = self.out / "validation_errors.json"
        digest = self._validate_digest()
        if _stage_fresh(self.out, "validate", digest, [path]):
            return json.loads(path.read_text(encoding="utf-8"))
        _, summary = self.calibrate()
        model = self.cfg.forward()
        try:
            prior_tab = validate_at_point(self.prior.nominal_params(),
                                          self.dataset, model)
            post_tab = validate_at_point(
                CalibrationParams.from_array(summary.mean), self.dataset, model)
        except Exception as exc:
            raise StageError("validate", str(exc)) from exc
        doc = {"prior_nominal": prior_tab, "posterior_mean": post_tab,
               "note": "in-sample comparison: the validation dataset equals "
                       "the calibration dataset"}
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        _mark_stage(self.out, "validate", digest)
        return doc

    def report(self) -> dict:
        ts = self.design()
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
        (self.out / "report.json").write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        retained = inference.burn_thin(chain, self.cfg.mcmc.burn, self.cfg.mcmc.thin)
        emit_plots(doc, retained, self.dataset, self.out)
        return doc


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
    p = Pipeline(cfg)
    actions = {
        "design": p.design,
        "train": p.train,
        "validate-surrogate": p.validate_surrogate,
        "sa": p.sa,
        "calibrate": p.calibrate,
        "validate": p.validate,
        "report": p.report,
        "run-all": p.report,
    }
    if stage not in actions:
        raise ValueError(f"unknown stage {stage!r}")
    actions[stage]()


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
