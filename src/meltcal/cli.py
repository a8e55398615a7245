"""Command-line interface.

One subcommand per pipeline stage plus ``run-all``.  Global options select
the configuration file, output directory and seed.  Errors exit nonzero
with a single machine-parsable line ``error:<category>: <message>`` on
stderr.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .doe import TrainingSetError
from .domain import DatasetFormatError
from .forward import NumericsError
from .pipeline import RunConfig, StageError, run_stage
from .simulator import AdapterError
from .surrogate import IllConditionedError

# Errors that say what failed.  A stage failure takes the category of the
# deepest of these in its cause chain, not that of the wrapping StageError.
_CAUSES = (
    (DatasetFormatError, "dataset"),
    (AdapterError, "adapter"),
    (TrainingSetError, "training"),
    (IllConditionedError, "numerics"),
    (NumericsError, "numerics"),
)
_CATEGORIES = _CAUSES + (
    (StageError, "stage"),
    (FileNotFoundError, "io"),
    (PermissionError, "io"),
    (OSError, "io"),
    (ValueError, "config"),
)


def _fail(exc: Exception) -> "NoReturn":  # noqa: F821
    typed, cause = exc, exc.__cause__
    while cause is not None:
        if isinstance(cause, tuple(etype for etype, _ in _CAUSES)):
            typed = cause
        cause = cause.__cause__
    category = next((name for etype, name in _CATEGORIES if isinstance(typed, etype)),
                    "internal")
    msg = " ".join(str(exc).split())
    click.echo(f"error:{category}: {msg}", err=True)
    sys.exit(1)


def _unique_keys(pairs: list[tuple]) -> dict:
    """A JSON object of ``pairs``; a repeated key is an error, not the last value."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"config repeats key {key!r}")
        doc[key] = value
    return doc


def _load_config(config: str | None, out: str | None, seed: int | None) -> RunConfig:
    """The config document with ``--out`` and ``--seed`` written into it,
    read by the same rules as the file."""
    doc = {} if config is None else json.loads(Path(config).read_text(encoding="utf-8"),
                                               object_pairs_hook=_unique_keys)
    if isinstance(doc, dict):  # from_dict names any other document
        for key, value in (("out_dir", out), ("seed", seed)):
            if value is not None:
                doc[key] = value
    return RunConfig.from_dict(doc)


def _stage_command(name: str, help_text: str):
    @main.command(name, help=help_text)
    @click.option("--config", type=click.Path(), default=None,
                  help="JSON run configuration (defaults used if omitted).")
    @click.option("--out", type=click.Path(), default=None,
                  help="Output directory (overrides the config's out_dir).")
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
