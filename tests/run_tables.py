"""Run-table files for the tests, in the stored format.

Inputs are keys and are written to 12 digits; pool sizes are data and are
written with ``repr`` (in mm), so they read back as written.
"""

import csv

import numpy as np

from meltcal.forward import RunTable

# raw units (W, m, s, parameters) -> table units (W, mm, ms, parameters)
_TO_TABLE = np.array([1.0, 1e3, 1e3] + [1.0] * 8)


def write_run_table(path, inputs=(), outputs=()) -> None:
    """Write ``inputs`` (rows of power, beam radius, pulse and the eight
    parameters, raw units) and ``outputs`` (rows of length and depth in m).
    With no rows the table holds only its header."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RunTable.COLUMNS)
        for x, y in zip(inputs, outputs):
            writer.writerow([format(v, ".12g") for v in np.asarray(x, float) * _TO_TABLE]
                            + [repr(float(v * 1e3)) for v in y])
