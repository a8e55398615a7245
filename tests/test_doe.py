"""Latin hypercube sampling and training-set assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meltcal.doe import (
    AffineMap,
    TrainingSetError,
    build_training_set,
    design_affine,
    latin_hypercube,
    load_training_set,
    save_training_set,
    scale_to_prior,
)
from meltcal.domain import (
    CalibrationParams,
    MeltPoolSize,
    RandomStream,
    bundled_dataset_path,
    in_support,
    load_dataset,
    prior_from_table2,
)
from meltcal.forward import reduced_model

PRIOR = prior_from_table2()

# 99% chi-square critical value for 9 degrees of freedom (10 bins)
CHI2_99_DF9 = 21.666


@pytest.fixture(scope="module")
def dataset():
    return load_dataset(bundled_dataset_path())


@pytest.fixture(scope="module")
def training_set(dataset):
    return build_training_set(dataset, PRIOR, 10, reduced_model(), RandomStream(0))


class TestLatinHypercube:
    def test_five_strata_each_hold_one_point(self):
        u = latin_hypercube(5, 1, RandomStream(1))
        strata = np.floor(u.values[:, 0] * 5).astype(int)
        assert sorted(strata) == [0, 1, 2, 3, 4]

    def test_single_point_in_unit_cube(self):
        u = latin_hypercube(1, 3, RandomStream(2))
        assert u.values.shape == (1, 3)
        assert np.all((u.values >= 0) & (u.values < 1))

    @given(st.integers(2, 40), st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_stratification_invariant(self, n, d, seed):
        u = latin_hypercube(n, d, RandomStream(seed))
        for j in range(d):
            strata = np.floor(u.values[:, j] * n).astype(int)
            assert sorted(strata) == list(range(n))

    def test_columns_pass_chi_square_uniformity(self):
        u = latin_hypercube(130, 8, RandomStream(3))
        for j in range(8):
            counts, _ = np.histogram(u.values[:, j], bins=10, range=(0.0, 1.0))
            expected = 13.0
            chi2 = ((counts - expected) ** 2 / expected).sum()
            assert chi2 < CHI2_99_DF9

    def test_deterministic_for_fixed_stream(self):
        a = latin_hypercube(17, 4, RandomStream(9, 5))
        b = latin_hypercube(17, 4, RandomStream(9, 5))
        np.testing.assert_array_equal(a.values, b.values)


class TestScaleToPrior:
    def test_midpoint_is_nominal_for_alpha(self):
        u = np.full((1, 8), 0.5)
        vals = scale_to_prior(u, PRIOR)
        assert vals[0, 0] == pytest.approx(0.27)

    def test_zero_maps_to_lower_mu_l(self):
        u = np.zeros((1, 8))
        vals = scale_to_prior(u, PRIOR)
        assert vals[0, 6] == pytest.approx(0.05)

    def test_one_approaches_sorted_gamma_t_upper(self):
        u = np.full((1, 8), 1.0 - 1e-12)
        vals = scale_to_prior(u, PRIOR)
        assert vals[0, 7] == pytest.approx(-3.87e-4, rel=1e-6)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_always_in_support(self, seed):
        u = latin_hypercube(16, 8, RandomStream(seed))
        vals = scale_to_prior(u, PRIOR)
        for row in vals:
            assert in_support(CalibrationParams.from_array(row), PRIOR)


class TestAffineMap:
    @given(st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4),
           st.lists(st.floats(1e-3, 1e3), min_size=4, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, lo, width):
        lo = np.array(lo)
        hi = lo + np.array(width)
        amap = AffineMap(lo=lo, hi=hi)
        x = lo + 0.37 * (hi - lo)
        np.testing.assert_allclose(amap.inverse(amap.forward(x)), x, rtol=1e-12)

    def test_design_affine_covers_dataset(self, dataset):
        amap = design_affine(dataset, PRIOR)
        u = amap.forward(np.concatenate([dataset.design_matrix(),
                                         np.tile(PRIOR.nominal(), (13, 1))], axis=1))
        assert np.all(u >= -1e-12) and np.all(u <= 1.0 + 1e-12)


class TestBuildTrainingSet:
    def test_thirteen_by_ten_gives_130_rows(self, training_set):
        assert training_set.n == 130

    def test_thirteen_by_twenty_gives_260_rows(self, dataset):
        ts = build_training_set(dataset, PRIOR, 20, reduced_model(), RandomStream(5))
        assert ts.n == 260

    def test_outputs_finite_and_positive(self, training_set):
        assert np.all(np.isfinite(training_set.outputs))
        assert np.all(training_set.outputs > 0)

    def test_reproducible_for_equal_seed(self, dataset):
        a = build_training_set(dataset, PRIOR, 5, reduced_model(), RandomStream(11))
        b = build_training_set(dataset, PRIOR, 5, reduced_model(), RandomStream(11))
        np.testing.assert_array_equal(a.inputs_raw, b.inputs_raw)
        np.testing.assert_array_equal(a.outputs, b.outputs)

    def test_lengths_mostly_enveloped(self, dataset, training_set):
        """Per-condition output ranges bracket most measured lengths.

        The count below is what this model produces at this seed; the
        qualitative expectation is envelopment with a few exceptions.
        """
        count = 0
        for row in dataset:
            mask = training_set.condition_index == row.index
            lengths = training_set.outputs[mask, 0]
            if lengths.min() <= row.length <= lengths.max():
                count += 1
        assert count >= 8

    def test_aborts_when_model_never_melts(self, dataset):
        def frozen(design, theta):
            return MeltPoolSize(length=0.0, depth=0.0, melted=False)

        with pytest.raises(TrainingSetError):
            build_training_set(dataset, PRIOR, 3, frozen, RandomStream(0))

    def test_standardized_inputs_in_unit_box(self, training_set):
        u = training_set.inputs_std()
        assert np.all(u >= -1e-12) and np.all(u <= 1.0 + 1e-12)

    def test_save_load_round_trip(self, training_set, tmp_path):
        path = tmp_path / "ts.csv"
        save_training_set(training_set, path)
        back = load_training_set(path)
        np.testing.assert_array_equal(back.inputs_raw, training_set.inputs_raw)
        np.testing.assert_array_equal(back.outputs, training_set.outputs)
        np.testing.assert_array_equal(back.condition_index,
                                      training_set.condition_index)
