"""Adapter for an out-of-process melt-pool simulator.

``evaluate_external`` runs the simulator once per evaluation through a
key=value file protocol: it writes the design and the parameters to an
input file, runs the configured command, and parses ``length_mm`` and
``depth_mm`` from the output file.  Under ``external`` the design stage
keys on this module's source in place of the reduced model's, so an edit
to the protocol reruns the simulator.
"""

from __future__ import annotations

import re
import shlex
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path

from .domain import (
    CalibrationParams,
    DesignVars,
    MeltPoolSize,
    PARAM_SYMBOLS,
    finite_float,
)

__all__ = [
    "AdapterError",
    "ExternalModelSpec",
    "evaluate_external",
]


class AdapterError(RuntimeError):
    """External simulator invocation or output parsing failed."""


@dataclass(frozen=True)
class ExternalModelSpec:
    """How to invoke an out-of-process melt-pool simulator.

    The command template is split into words as a POSIX shell would
    (``shlex``); then ``{input}`` and ``{output}`` are replaced inside their
    words, so each path stays one argument and other braces pass as written.
    """

    command_template: str  # must contain {input} and {output} exactly once
    working_dir: Path | None = None  # None: the directory at call time
    timeout: float = 600.0

    def __post_init__(self):
        for ph in ("{input}", "{output}"):
            if self.command_template.count(ph) != 1:
                raise ValueError(f"command template must contain {ph} exactly once")
        try:
            shlex.split(self.command_template)
        except ValueError as exc:
            raise ValueError(f"command template {self.command_template!r} "
                             f"cannot be split into words: {exc}") from None
        if not self.timeout > 0:
            raise ValueError(f"timeout must be positive, got {self.timeout!r}")


def _write_input_file(path: Path, design: DesignVars, theta: CalibrationParams) -> None:
    lines = [f"power_W={design.power:.12g}",
             f"beam_radius_mm={design.beam_radius * 1e3:.12g}",
             f"pulse_ms={design.pulse_duration * 1e3:.12g}"]
    values = theta.as_array()
    lines += [f"{sym}={val:.12g}" for sym, val in zip(PARAM_SYMBOLS, values)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_output_file(path: Path) -> MeltPoolSize:
    kv = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        if "=" not in line:
            raise AdapterError(f"malformed output line {line!r}")
        key, _, val = (part.strip() for part in line.partition("="))
        if key in kv:
            raise AdapterError(f"output file repeats key {key!r}")
        kv[key] = val
    dims = {}
    for key in ("length_mm", "depth_mm"):
        if key not in kv:
            raise AdapterError(f"output file missing key {key!r}")
        dims[key] = finite_float(kv[key], f"output key {key!r}", AdapterError)
    return _size_from_mm(dims["length_mm"], dims["depth_mm"])


_PLACEHOLDER = re.compile(r"\{input\}|\{output\}")


def evaluate_external(spec: ExternalModelSpec, design: DesignVars,
                      theta: CalibrationParams) -> MeltPoolSize:
    """Run the external simulator once through its key=value file protocol."""
    working_dir = spec.working_dir or Path.cwd()
    with tempfile.TemporaryDirectory(dir=working_dir) as tmp:
        tmp = Path(tmp)
        in_path, out_path = tmp / "input.txt", tmp / "output.txt"
        _write_input_file(in_path, design, theta)
        paths = {"{input}": str(in_path), "{output}": str(out_path)}
        args = [_PLACEHOLDER.sub(lambda m: paths[m[0]], word)
                for word in shlex.split(spec.command_template)]
        try:
            proc = subprocess.run(args, cwd=working_dir, capture_output=True,
                                  text=True, timeout=spec.timeout)
        except subprocess.TimeoutExpired as exc:
            # the output captured before the timeout is bytes, even with text=True
            captured = (exc.stdout or b"") + (exc.stderr or b"")
            raise AdapterError(f"external model timed out after {spec.timeout}s: "
                               f"{captured.decode(errors='replace')}") from None
        if proc.returncode != 0:
            raise AdapterError(
                f"external model exited with status {proc.returncode}: "
                f"{proc.stdout}{proc.stderr}")
        if not out_path.exists():
            raise AdapterError(f"external model wrote no output file: {proc.stdout}{proc.stderr}")
        return _parse_output_file(out_path)


def _size_from_mm(length_mm: float, depth_mm: float) -> MeltPoolSize:
    """A pool size from a finite length and depth in mm, as the external
    model gives them.  A zero size means no melt; a negative one is an
    ``AdapterError`` naming its key."""
    for key, value in (("length_mm", length_mm), ("depth_mm", depth_mm)):
        if value < 0:
            raise AdapterError(f"{key} is a negative pool size: {value!r}")
    length, depth = length_mm * 1e-3, depth_mm * 1e-3
    if length > 0 and depth > 0:
        return MeltPoolSize(length=length, depth=depth, melted=True)
    return MeltPoolSize(length=0.0, depth=0.0, melted=False)
