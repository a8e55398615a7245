"""Pinning the bundled OpenBLAS copies to one thread."""

import pytest

from meltcal import blas
from meltcal.blas import BlasThreadWarning, one_blas_thread


def _counts():
    return [get() for get, _ in blas._all_controls()]


def test_pins_nests_and_restores():
    controls = blas._all_controls()
    assert len(controls) == 2  # numpy's and scipy's copies
    before = _counts()
    try:
        for _, set_ in controls:
            set_(2)
        with one_blas_thread():
            assert _counts() == [1, 1]
            with one_blas_thread():
                assert _counts() == [1, 1]
            assert _counts() == [1, 1]
        assert _counts() == [2, 2]
    finally:
        for (_, set_), count in zip(controls, before):
            set_(count)


def test_decorated_function_runs_pinned():
    @one_blas_thread()
    def counts():
        return _counts()

    assert counts() == [1, 1]


def test_missing_setter_warns(monkeypatch):
    monkeypatch.setattr(blas, "_controls", None)
    monkeypatch.setattr(blas, "_OPENBLAS", (
        ("numpy", "libscipy_openblas64_*.so*", "no_such_getter", "no_such_setter"),))
    with pytest.warns(BlasThreadWarning, match="numpy"):
        with one_blas_thread():
            pass
    assert blas._controls == []
