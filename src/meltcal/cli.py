"""Command-line interface.

One subcommand per pipeline stage plus ``run-all``.  Global options select
the configuration file, output directory (overridable by the MELTCAL_OUT
environment variable) and seed.  Errors exit nonzero with a
single machine-parsable line ``error:<category>: <message>`` on stderr.
"""

from __future__ import annotations

import dataclasses
import os
import sys

import click

from .doe import TrainingSetError
from .domain import DatasetFormatError
from .forward import AdapterError, NumericsError
from .pipeline import RunConfig, StageError, run_stage
from .surrogate import IllConditionedError

_CATEGORIES = (
    (DatasetFormatError, "dataset"),
    (AdapterError, "adapter"),
    (TrainingSetError, "training"),
    (IllConditionedError, "numerics"),
    (NumericsError, "numerics"),
    (StageError, "stage"),
    (FileNotFoundError, "io"),
    (PermissionError, "io"),
    (OSError, "io"),
    (ValueError, "config"),
)


def _fail(exc: Exception) -> "NoReturn":  # noqa: F821
    category = "internal"
    for etype, name in _CATEGORIES:
        if isinstance(exc, etype):
            category = name
            break
    msg = " ".join(str(exc).split())
    click.echo(f"error:{category}: {msg}", err=True)
    sys.exit(1)


def _load_config(config: str | None, out: str | None, seed: int | None) -> RunConfig:
    cfg = RunConfig() if config is None else RunConfig.from_json(config)
    overrides = {}
    env_out = os.environ.get("MELTCAL_OUT")
    if out is not None:
        overrides["out_dir"] = out
    elif env_out:
        overrides["out_dir"] = env_out
    if seed is not None:
        overrides["seed"] = seed
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def _stage_command(name: str, help_text: str):
    @main.command(name, help=help_text)
    @click.option("--config", type=click.Path(), default=None,
                  help="JSON run configuration (defaults used if omitted).")
    @click.option("--out", type=click.Path(), default=None,
                  help="Output directory (overrides config and MELTCAL_OUT).")
    @click.option("--seed", type=int, default=None, help="Master RNG seed.")
    def _cmd(config, out, seed):
        try:
            cfg = _load_config(config, out, seed)
            run_stage(cfg, name)
        except Exception as exc:  # noqa: BLE001 - single exit path by design
            _fail(exc)
        click.echo(f"{name}: ok ({cfg.out_dir})")

    _cmd.__name__ = name.replace("-", "_")
    return _cmd


@click.group()
def main():
    """Melt-pool model calibration toolkit."""


_stage_command("design", "Build the Latin hypercube training set.")
_stage_command("train", "Fit the length and depth surrogates.")
_stage_command("validate-surrogate", "Leave-one-out Q2 of both surrogates.")
_stage_command("sa", "Correlation and Sobol sensitivity analysis.")
_stage_command("calibrate", "Run the adaptive Metropolis sampler.")
_stage_command("validate", "Prediction errors at prior and posterior points.")
_stage_command("report", "Assemble report.json and all figures.")
_stage_command("run-all", "Run every stage in order.")


if __name__ == "__main__":
    main()
