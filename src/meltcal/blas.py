"""One BLAS thread for the whole process.

OpenBLAS splits a large enough factorization or product over its threads,
and the split changes the order of the floating-point sums.  L-BFGS-B
amplifies those last bits into the fitted hyperparameters, so a fitted
GP, and everything computed from it, would depend on the thread count.
Importing this module pins the OpenBLAS copies bundled with numpy and
with scipy to one thread for the rest of the process.  ``surrogate``
imports it, and ``inference``, ``sensitivity`` and ``pipeline`` import
``surrogate``, so a run is pinned before its first BLAS call; the fit's
threads and the forked chain workers inherit the pin.  At the GP's sizes
one thread is also faster than two.

numpy and ``scipy.linalg`` are imported first, so the libraries looked up
here are the ones they already hold.  A numpy or scipy built against
another BLAS has no such setter; that is reported with a
``BlasThreadWarning`` rather than ignored.
"""

from __future__ import annotations

import ctypes
import importlib.util
import warnings
from pathlib import Path

import numpy  # noqa: F401 - loads numpy's OpenBLAS before it is looked up
import scipy.linalg  # noqa: F401 - loads scipy's OpenBLAS likewise

__all__ = ["BlasThreadWarning"]

# package, its bundled OpenBLAS, and that library's thread getter and setter
_OPENBLAS = (
    ("numpy", "libscipy_openblas64_*.so*",
     "scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy", "libscipy_openblas-*.so*",
     "scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


class BlasThreadWarning(RuntimeWarning):
    """A BLAS thread count could not be pinned, so results may depend on it."""


def _thread_control(package: str, pattern: str, getter: str, setter: str):
    """(get, set) of ``package``'s bundled OpenBLAS, or None."""
    spec = importlib.util.find_spec(package)
    if spec is None or spec.origin is None:
        return None
    libs = Path(spec.origin).resolve().parents[1] / f"{package}.libs"
    for path in sorted(libs.glob(pattern)):
        lib = ctypes.CDLL(str(path))  # already loaded: the same handle
        try:
            get, set_ = getattr(lib, getter), getattr(lib, setter)
        except AttributeError:
            continue
        get.restype, get.argtypes = ctypes.c_int, []
        set_.restype, set_.argtypes = None, [ctypes.c_int]
        return get, set_
    return None


def _pin_one_thread() -> None:
    """Set each bundled OpenBLAS to one thread; warn for any not found."""
    for package, *names in _OPENBLAS:
        control = _thread_control(package, *names)
        if control is None:
            warnings.warn(f"no OpenBLAS thread setter found for {package}; "
                          "results may depend on the BLAS thread count",
                          BlasThreadWarning)
        else:
            control[1](1)


_pin_one_thread()
