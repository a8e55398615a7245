"""Bundled-data fixtures shared across the test modules.

The bundled dataset, its training set at 10 rows per condition
(``RandomStream(0)``), the length and depth GPs fitted on that
(``RandomStream(1)`` and ``RandomStream(2)``) and the same design at 20
rows per condition, each built once per test session.  Tests must not
modify them.

Every test must also leave no worker process running.
"""

import multiprocessing

import pytest

from meltcal.doe import build_training_set
from meltcal.domain import (
    RandomStream,
    bundled_dataset_path,
    load_dataset,
)
from meltcal.forward import evaluate_reduced
from meltcal.surrogate import fit_gp


@pytest.fixture(scope="session")
def dataset():
    return load_dataset(bundled_dataset_path())


@pytest.fixture(scope="session")
def training_set(dataset):
    return build_training_set(dataset, 10, evaluate_reduced, RandomStream(0))


@pytest.fixture(scope="session")
def dense_training_set(dataset):
    """The 260-row design: 20 rows per condition, ``RandomStream(0)``."""
    return build_training_set(dataset, 20, evaluate_reduced, RandomStream(0))


@pytest.fixture(scope="session")
def gps(training_set):
    """(length GP, depth GP)."""
    return (fit_gp(training_set, "length", RandomStream(1)),
            fit_gp(training_set, "depth", RandomStream(2)))


@pytest.fixture(autouse=True)
def no_process_left_running():
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join()
    assert not left, f"worker processes left running: {left}"
