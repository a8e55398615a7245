"""Latin hypercube sampling and training-set assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import in_support
from meltcal.doe import (
    TrainingSetError,
    build_training_set,
    input_bounds,
    latin_hypercube,
    load_training_set,
    save_training_set,
)
from meltcal.domain import (
    ExperimentalDataset,
    MeltPoolSize,
    PRIOR_LOWER,
    PRIOR_NOMINAL,
    PRIOR_UPPER,
    RandomStream,
)
from meltcal.forward import evaluate_reduced

# 99% chi-square critical value for 9 degrees of freedom (10 bins)
CHI2_99_DF9 = 21.666


class TestLatinHypercube:
    def test_five_strata_each_hold_one_point(self):
        u = latin_hypercube(5, 1, RandomStream(1))
        strata = np.floor(u[:, 0] * 5).astype(int)
        assert sorted(strata) == [0, 1, 2, 3, 4]

    def test_single_point_in_unit_cube(self):
        u = latin_hypercube(1, 3, RandomStream(2))
        assert u.shape == (1, 3)
        assert np.all((u >= 0) & (u < 1))

    @given(st.integers(2, 40), st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_stratification_invariant(self, n, d, seed):
        u = latin_hypercube(n, d, RandomStream(seed))
        for j in range(d):
            strata = np.floor(u[:, j] * n).astype(int)
            assert sorted(strata) == list(range(n))

    def test_columns_pass_chi_square_uniformity(self):
        u = latin_hypercube(130, 8, RandomStream(3))
        for j in range(8):
            counts, _ = np.histogram(u[:, j], bins=10, range=(0.0, 1.0))
            expected = 13.0
            chi2 = ((counts - expected) ** 2 / expected).sum()
            assert chi2 < CHI2_99_DF9

    def test_deterministic_for_fixed_stream(self):
        a = latin_hypercube(17, 4, RandomStream(9, 5))
        b = latin_hypercube(17, 4, RandomStream(9, 5))
        np.testing.assert_array_equal(a, b)


class TestScaleToPrior:
    """The unit hypercube's map onto the prior box, the map
    build_training_set applies."""

    @staticmethod
    def _to_box(u):
        return PRIOR_LOWER + u * (PRIOR_UPPER - PRIOR_LOWER)

    def test_midpoint_is_nominal_for_alpha(self):
        vals = self._to_box(np.full((1, 8), 0.5))
        assert vals[0, 0] == pytest.approx(0.27)

    def test_zero_maps_to_lower_mu_l(self):
        vals = self._to_box(np.zeros((1, 8)))
        assert vals[0, 6] == pytest.approx(0.05)

    def test_one_approaches_sorted_gamma_t_upper(self):
        vals = self._to_box(np.full((1, 8), 1.0 - 1e-12))
        assert vals[0, 7] == pytest.approx(-3.87e-4, rel=1e-6)


def _melts(design, theta):
    return MeltPoolSize(length=1e-4, depth=1e-5, melted=True)


class TestInputBounds:
    def test_bounds_cover_dataset(self, dataset, training_set):
        """The bundled training set's bounds scale the dataset's design
        rows, at the nominal parameters, into [0, 1]."""
        lo, hi = input_bounds(training_set.inputs_raw)
        x = np.concatenate([dataset.design_matrix(),
                            np.tile(PRIOR_NOMINAL, (13, 1))], axis=1)
        u = (x - lo) / (hi - lo)
        assert np.all(u >= -1e-12) and np.all(u <= 1.0 + 1e-12)

    def test_constant_design_columns_are_padded(self, dataset, tmp_path):
        """Rows 1-5 share their power and pulse: those two columns get a
        +/-5% pad, the radius its range and the parameters the prior box."""
        ts = build_training_set(ExperimentalDataset(dataset.rows[:5]), 4, _melts,
                                RandomStream(3))
        assert (ts.lo[0], ts.hi[0]) == (530.0 * 0.95, 530.0 * 1.05)
        assert (ts.lo[2], ts.hi[2]) == (4e-3 * 0.95, 4e-3 * 1.05)
        radii = [row.design.beam_radius for row in dataset.rows[:5]]
        assert (ts.lo[1], ts.hi[1]) == (min(radii), max(radii))
        assert ts.lo[3:].tobytes() == PRIOR_LOWER.tobytes()
        assert ts.hi[3:].tobytes() == PRIOR_UPPER.tobytes()
        u = ts.inputs_std()
        assert np.all(u >= 0.0) and np.all(u <= 1.0)
        paths = tmp_path / "ts.csv", tmp_path / "ts.json"
        save_training_set(ts, *paths)
        back = load_training_set(*paths)
        assert back.lo.tobytes() == ts.lo.tobytes()
        assert back.hi.tobytes() == ts.hi.tobytes()


class TestBuildTrainingSet:
    def test_thirteen_by_ten_gives_130_rows(self, training_set):
        assert training_set.n == 130

    def test_thirteen_by_twenty_gives_260_rows(self, dataset):
        ts = build_training_set(dataset, 20, evaluate_reduced, RandomStream(5))
        assert ts.n == 260

    def test_outputs_finite_and_positive(self, training_set):
        assert np.all(np.isfinite(training_set.outputs))
        assert np.all(training_set.outputs > 0)

    def test_reproducible_for_equal_seed(self, dataset):
        a = build_training_set(dataset, 5, evaluate_reduced, RandomStream(11))
        b = build_training_set(dataset, 5, evaluate_reduced, RandomStream(11))
        np.testing.assert_array_equal(a.inputs_raw, b.inputs_raw)
        np.testing.assert_array_equal(a.outputs, b.outputs)

    def test_lengths_mostly_enveloped(self, dataset, training_set):
        """Per-condition output ranges bracket most measured lengths.

        The count below is what this model produces at this seed; the
        qualitative expectation is envelopment with a few exceptions.
        """
        count = 0
        for row in dataset:
            mask = np.all(training_set.inputs_raw[:, :3] == row.design.as_array(), axis=1)
            lengths = training_set.outputs[mask, 0]
            if lengths.min() <= row.length <= lengths.max():
                count += 1
        assert count >= 8

    def test_aborts_when_model_never_melts(self, dataset):
        def frozen(design, theta):
            return MeltPoolSize(length=0.0, depth=0.0, melted=False)

        with pytest.raises(TrainingSetError):
            build_training_set(dataset, 3, frozen, RandomStream(0))

    def test_thetas_are_the_hypercube_in_the_box(self, dataset):
        """With no redraws, each condition's thetas are its Latin hypercube
        mapped affinely onto the prior box, bitwise."""
        ts = build_training_set(dataset, 4, _melts, RandomStream(7))
        for i, row in enumerate(dataset):
            u = latin_hypercube(4, 8, RandomStream(7).split(row.index))
            np.testing.assert_array_equal(ts.inputs_raw[4 * i:4 * i + 4, 3:],
                                          PRIOR_LOWER + u * (PRIOR_UPPER - PRIOR_LOWER))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_every_design_theta_in_support(self, dataset, seed):
        """Hypercube points and no-melt redraws alike lie in the prior box."""
        def model(design, theta):  # no melt in the lowest ~6% of alpha
            if theta.alpha < 0.15:
                return MeltPoolSize(length=0.0, depth=0.0, melted=False)
            return MeltPoolSize(length=1e-4, depth=1e-5, melted=True)

        ts = build_training_set(dataset, 16, model, RandomStream(seed))
        assert all(in_support(theta) for theta in ts.inputs_raw[:, 3:])

    def test_standardized_inputs_in_unit_box(self, training_set):
        u = training_set.inputs_std()
        assert np.all(u >= -1e-12) and np.all(u <= 1.0 + 1e-12)

    def test_save_load_round_trip(self, training_set, tmp_path):
        """The set reads back bitwise, also with blank lines between and
        after its rows."""
        paths = tmp_path / "ts.csv", tmp_path / "ts.json"
        save_training_set(training_set, *paths)
        lines = paths[0].read_text(encoding="utf-8").splitlines(keepends=True)
        for text in ("".join(lines), "".join(lines[:5] + ["\n"] + lines[5:] + ["\n\n"])):
            paths[0].write_text(text, encoding="utf-8")
            back = load_training_set(*paths)
            np.testing.assert_array_equal(back.inputs_raw, training_set.inputs_raw)
            np.testing.assert_array_equal(back.outputs, training_set.outputs)
            np.testing.assert_array_equal(back.lo, training_set.lo)
            np.testing.assert_array_equal(back.hi, training_set.hi)
            assert back.rejections == training_set.rejections
