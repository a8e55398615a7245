"""Pinning the bundled OpenBLAS copies to one thread."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from meltcal import blas
from meltcal.blas import BlasThreadWarning


def test_importing_the_pipeline_pins_one_thread():
    """In a fresh process started at two BLAS threads, importing the
    pipeline leaves numpy's and scipy's OpenBLAS on one thread each."""
    src = str(Path(blas.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OMP_NUM_THREADS"}
    env["OPENBLAS_NUM_THREADS"] = "2"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import meltcal.pipeline\n"
            "from meltcal import blas\n"
            "print(*(blas._thread_control(*entry)[0]() for entry in blas._OPENBLAS))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.split() == ["1", "1"]


def test_missing_setter_warns(monkeypatch):
    monkeypatch.setattr(blas, "_OPENBLAS", (
        ("numpy", "libscipy_openblas64_*.so*", "no_such_getter", "no_such_setter"),))
    with pytest.warns(BlasThreadWarning, match="numpy"):
        blas._pin_one_thread()
