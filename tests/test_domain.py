"""Domain types, dataset I/O, the prior box, and random streams."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import in_support, synthetic_dataset, write_dataset
from meltcal import domain
from meltcal.domain import (
    CalibrationParams,
    DatasetFormatError,
    DesignVars,
    ExperimentalDataset,
    MeltPoolSize,
    PARAM_NAMES,
    PRIOR_LOWER,
    PRIOR_NOMINAL,
    PRIOR_UPPER,
    RandomStream,
    load_dataset,
)

HEADER = "index,power_W,beam_radius_mm,pulse_ms,length_mm,depth_mm"
NOMINAL = CalibrationParams.from_array(PRIOR_NOMINAL)


def cell_error(path, column: str) -> str:
    """The start of the message naming ``path``'s data row 2 and ``column``."""
    return f"^{re.escape(str(path))}: row 2, column '{column}': "


class TestLoadDataset:
    def test_row_one_values(self, dataset):
        row = dataset.rows[0]
        assert row.design.power == 530.0
        assert row.design.beam_radius == pytest.approx(1.59e-4)
        assert row.design.pulse_duration == pytest.approx(4e-3)
        assert row.length == pytest.approx(6.25e-4)
        assert row.depth == pytest.approx(1.90e-4)

    def test_row_thirteen_values(self, dataset):
        row = dataset.rows[12]
        assert row.design.power == 1967.0
        assert row.length == pytest.approx(1.027e-3)
        assert row.depth == pytest.approx(2.12e-4)

    def test_bundled_has_thirteen_rows(self, dataset):
        assert len(dataset) == 13

    def test_rows_in_file_order(self, dataset):
        assert [r.index for r in dataset] == list(range(1, 14))

    def test_header_only_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text(HEADER + "\n")
        with pytest.raises(DatasetFormatError, match="no data rows"):
            load_dataset(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "nothing.csv"
        p.write_text("")
        with pytest.raises(DatasetFormatError, match="empty"):
            load_dataset(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("index,power_W,pulse_ms,length_mm,depth_mm\n1,530,4,0.6,0.2\n")
        with pytest.raises(DatasetFormatError, match="header"):
            load_dataset(p)

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        p = tmp_path / "nan.csv"
        p.write_text(HEADER + "\n1,530,oops,4,0.625,0.190\n")
        with pytest.raises(DatasetFormatError,
                           match=cell_error(p, "beam_radius_mm") + "non-numeric"):
            load_dataset(p)

    @pytest.mark.parametrize("cells, column", [
        ("1,530,0.159,4,nan,0.190", "length_mm"),
        ("1,530,0.159,4,0.625,inf", "depth_mm"),
        ("1,inf,0.159,4,0.625,0.190", "power_W"),
        ("1,530,0.159,-inf,0.625,0.190", "pulse_ms"),
        ("nan,530,0.159,4,0.625,0.190", "index"),
    ])
    def test_non_finite_cell_names_file_row_and_column(self, tmp_path, cells, column):
        p = tmp_path / "inf.csv"
        p.write_text(HEADER + "\n" + cells + "\n")
        with pytest.raises(DatasetFormatError, match=cell_error(p, column) + "non-finite"):
            load_dataset(p)

    def test_non_integral_index_names_file_row_and_column(self, tmp_path):
        p = tmp_path / "index.csv"
        p.write_text(HEADER + "\n1.7,530,0.159,4,0.625,0.190\n")
        with pytest.raises(DatasetFormatError,
                           match=cell_error(p, "index") + "non-integral"):
            load_dataset(p)

    @pytest.mark.parametrize("cell", ["2", "2.0"])
    def test_integral_index_loads(self, tmp_path, cell):
        p = tmp_path / "index.csv"
        p.write_text(HEADER + "\n1,530,0.159,4,0.625,0.190\n"
                     + cell + ",530,0.159,4,0.625,0.190\n")
        assert [r.index for r in load_dataset(p)] == [1, 2]

    def test_non_positive_measurement(self, tmp_path):
        p = tmp_path / "neg.csv"
        p.write_text(HEADER + "\n1,530,0.159,4,-0.625,0.190\n")
        with pytest.raises(DatasetFormatError, match="non-positive"):
            load_dataset(p)

    def test_design_outside_its_domain_names_file_and_row(self, tmp_path):
        p = tmp_path / "zero.csv"
        p.write_text(HEADER + "\n1,0,0.159,4,0.625,0.190\n")
        with pytest.raises(DatasetFormatError,
                           match=f"^{re.escape(str(p))}: row 2: design variables"):
            load_dataset(p)

    @pytest.mark.parametrize("sigmas, column", [
        ("0,0.01", "length_sigma_mm"),
        ("0.03,-0.01", "depth_sigma_mm"),
        ("0.03,nan", "depth_sigma_mm"),
    ])
    def test_bad_sigma_names_file_row_and_column(self, tmp_path, sigmas, column):
        p = tmp_path / "sig.csv"
        p.write_text(HEADER + ",length_sigma_mm,depth_sigma_mm\n"
                     "1,530,0.159,4,0.625,0.190," + sigmas + "\n")
        with pytest.raises(DatasetFormatError, match=cell_error(p, column)):
            load_dataset(p)

    def test_sigma_columns_captured(self, tmp_path):
        p = tmp_path / "sig.csv"
        p.write_text(HEADER + ",length_sigma_mm,depth_sigma_mm\n"
                     "1,530,0.159,4,0.625,0.190,0.03,0.01\n")
        row = load_dataset(p).rows[0]
        assert row.length_sigma == pytest.approx(3e-5)
        assert row.depth_sigma == pytest.approx(1e-5)

    def test_round_trip_preserves_numeric_content(self, dataset, tmp_path):
        out = tmp_path / "roundtrip.csv"
        write_dataset(dataset, out)
        back = load_dataset(out)
        for a, b in zip(dataset, back):
            assert b.design.power == pytest.approx(a.design.power, rel=1e-12)
            assert b.design.beam_radius == pytest.approx(a.design.beam_radius, rel=1e-12)
            assert b.length == pytest.approx(a.length, rel=1e-12)
            assert b.depth == pytest.approx(a.depth, rel=1e-12)


class TestPrior:
    def test_alpha_interval(self):
        assert (PRIOR_LOWER[0], PRIOR_UPPER[0]) == pytest.approx((0.135, 0.405))

    def test_gamma_t_interval_sorted(self):
        i = PARAM_NAMES.index("gamma_t")
        assert PRIOR_LOWER[i] == pytest.approx(-4.73e-4)
        assert PRIOR_UPPER[i] == pytest.approx(-3.87e-4)

    def test_mu_l_interval(self):
        i = PARAM_NAMES.index("mu_l")
        assert (PRIOR_LOWER[i], PRIOR_UPPER[i]) == pytest.approx((0.05, 0.2))

    def test_intervals_contain_nominal(self):
        assert np.all(PRIOR_LOWER <= PRIOR_NOMINAL)
        assert np.all(PRIOR_NOMINAL <= PRIOR_UPPER)

    @pytest.mark.parametrize("name", ["PRIOR_NOMINAL", "PRIOR_LOWER", "PRIOR_UPPER"])
    def test_constants_are_read_only(self, name):
        array = getattr(domain, name)
        assert array.dtype == np.float64 and array.shape == (len(PARAM_NAMES),)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            array += 1.0


class TestInSupport:
    def test_nominal_inside(self):
        assert in_support(NOMINAL)

    def test_alpha_above_bound(self):
        assert not in_support(dataclasses.replace(NOMINAL, alpha=0.406))

    def test_boundary_is_inside(self):
        assert in_support(dataclasses.replace(NOMINAL, alpha=0.405))


class TestCalibrationParams:
    @given(st.lists(st.floats(0.01, 10.0), min_size=8, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_array_round_trip(self, mults):
        vals = PRIOR_NOMINAL * np.clip(mults, 0.5, 1.5)
        theta = CalibrationParams.from_array(vals)
        np.testing.assert_array_equal(theta.as_array(), vals)

    def test_positive_gamma_t_rejected(self):
        with pytest.raises(ValueError):
            dataclasses.replace(NOMINAL, gamma_t=4.3e-4)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", PARAM_NAMES)
    def test_non_finite_rejected_naming_the_field(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got"):
            dataclasses.replace(NOMINAL, **{name: value})


class TestMeltPoolSize:
    def test_unmelted_forces_zero_dims(self):
        with pytest.raises(ValueError):
            MeltPoolSize(length=1e-4, depth=0.0, melted=False)

    def test_melted_requires_positive_dims(self):
        with pytest.raises(ValueError):
            MeltPoolSize(length=0.0, depth=1e-4, melted=True)

    def test_melted_requires_finite_dims(self):
        with pytest.raises(ValueError):
            MeltPoolSize(length=np.inf, depth=1e-4, melted=True)


class TestRandomStream:
    def test_same_key_same_draws(self):
        a = RandomStream(42, 7).generator().random(10_000)
        b = RandomStream(42, 7).generator().random(10_000)
        np.testing.assert_array_equal(a, b)

    def test_different_ids_differ(self):
        a = RandomStream(42, 0).generator().random(100)
        b = RandomStream(42, 1).generator().random(100)
        assert not np.array_equal(a, b)

    def test_split_is_deterministic(self):
        assert RandomStream(3).split(5) == RandomStream(3).split(5)
        assert RandomStream(3).split(5) != RandomStream(3).split(6)

    @given(st.integers(0, 2**63 - 1), st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_split_keeps_seed(self, seed, idx):
        child = RandomStream(seed).split(idx)
        assert child.seed == seed


class TestSyntheticDataset:
    THETA = NOMINAL

    @staticmethod
    def model(design, theta):
        return MeltPoolSize(length=design.power * theta.alpha * 1e-6,
                            depth=design.pulse_duration * 0.1, melted=True)

    def test_model_sizes_at_the_base_conditions(self, dataset):
        synth = synthetic_dataset(dataset, self.model, self.THETA)
        assert len(synth) == len(dataset)
        for row, base in zip(synth, dataset):
            size = self.model(base.design, self.THETA)
            assert (row.index, row.design) == (base.index, base.design)
            assert (row.length, row.depth) == (size.length, size.depth)

    def test_noise_drawn_row_by_row_length_first(self, dataset):
        synth = synthetic_dataset(dataset, self.model, self.THETA, 0.02,
                                  RandomStream(123))
        z = RandomStream(123).generator().standard_normal((len(dataset), 2))
        for row, base, (z_length, z_depth) in zip(synth, dataset, z):
            size = self.model(base.design, self.THETA)
            assert row.length == size.length * (1.0 + 0.02 * z_length)
            assert row.depth == size.depth * (1.0 + 0.02 * z_depth)


class TestDesignVars:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DesignVars(power=0.0, beam_radius=1e-4, pulse_duration=1e-3)


class TestDatasetValidation:
    def test_duplicate_indices_rejected(self, dataset):
        with pytest.raises(ValueError):
            ExperimentalDataset(rows=(dataset.rows[0], dataset.rows[0]))
