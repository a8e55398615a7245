"""One BLAS thread for the calls whose result must not depend on it.

OpenBLAS splits a large enough factorization or product over its threads,
and the split changes the order of the floating-point sums.  L-BFGS-B
amplifies those last bits into the fitted hyperparameters, so a fitted
GP, and everything computed from it, would depend on the thread count.
``one_blas_thread`` pins the OpenBLAS copies bundled with numpy and with
scipy to one thread for the duration of a call and then restores their
previous counts.  It nests: only the outermost entry sets and restores.
At the GP's sizes one thread is also faster than two.

The libraries are looked up on first use, not at import.  A numpy or
scipy built against another BLAS has no such setter; that is reported
with a ``BlasThreadWarning`` rather than ignored.
"""

from __future__ import annotations

import contextlib
import ctypes
import importlib.util
import threading
import warnings
from pathlib import Path

__all__ = ["BlasThreadWarning", "one_blas_thread"]

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


_lock = threading.Lock()
_controls: list | None = None
_depth = 0
_saved: list[tuple] = []


def _all_controls() -> list:
    global _controls
    if _controls is None:
        _controls = []
        for package, *names in _OPENBLAS:
            control = _thread_control(package, *names)
            if control is None:
                warnings.warn(f"no OpenBLAS thread setter found for {package}; "
                              "results may depend on the BLAS thread count",
                              BlasThreadWarning)
            else:
                _controls.append(control)
    return _controls


@contextlib.contextmanager
def one_blas_thread():
    """Context manager and decorator: bundled OpenBLAS runs on one thread."""
    global _depth
    with _lock:
        if _depth == 0:
            _saved[:] = [(set_, get()) for get, set_ in _all_controls()]
            for set_, _ in _saved:
                set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for set_, count in _saved:
                    set_(count)
