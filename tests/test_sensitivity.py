"""Correlation coefficients and Sobol indices."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meltcal.domain import RandomStream, prior_from_table2
from meltcal.sensitivity import (
    SensitivityReport,
    UndefinedStatisticError,
    load_report,
    pcc,
    save_report,
    sobol_indices,
    srcc,
)

PRIOR = prior_from_table2()

nonconstant_samples = st.lists(
    st.floats(-100.0, 100.0), min_size=5, max_size=40).filter(
        lambda xs: len(set(xs)) > 2)


class TestPcc:
    def test_exact_linear_map(self):
        x = np.array([0.3, 1.7, 2.2, 5.0, 9.1])
        assert pcc(x, 2.0 * x + 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_sign_symmetry(self):
        x = np.array([1.0, 4.0, 2.0, 8.0])
        assert pcc(x, -x) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_oracle(self):
        # cov((1,2,3),(2,1,4)) = 1 with n-1; sx = 1, sy = sqrt(7/3)
        got = pcc(np.array([1.0, 2.0, 3.0]), np.array([2.0, 1.0, 4.0]))
        assert got == pytest.approx(1.0 / np.sqrt(7.0 / 3.0), rel=1e-9)
        assert got == pytest.approx(0.6547, abs=5e-5)

    def test_constant_input_rejected(self):
        with pytest.raises(UndefinedStatisticError):
            pcc(np.ones(5), np.arange(5.0))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pcc(np.arange(4.0), np.arange(5.0))

    @given(nonconstant_samples, st.floats(0.1, 50.0), st.floats(-10.0, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_increasing_affine(self, xs, a, b):
        x = np.array(xs)
        y = np.sin(x) + x
        if np.std(y) == 0.0:
            return
        assert pcc(a * x + b, y) == pytest.approx(pcc(x, y), abs=1e-9)


class TestSrcc:
    def test_strict_monotone_map(self):
        x = np.array([0.1, 0.9, 0.4, 2.5, 1.1])
        assert srcc(x, np.exp(x)) == pytest.approx(1.0, abs=1e-12)

    def test_strict_antitone_map(self):
        x = np.array([0.1, 0.9, 0.4, 2.5, 1.1])
        assert srcc(x, -x**3) == pytest.approx(-1.0, abs=1e-12)

    def test_tie_handling_matches_average_ranks(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([1.0, 1.0, 3.0, 2.0])
        expected = pcc(np.array([1.0, 2.0, 3.0, 4.0]),
                       np.array([1.5, 1.5, 4.0, 3.0]))
        assert srcc(x, y) == pytest.approx(expected, rel=1e-12)

    @given(nonconstant_samples)
    @settings(max_examples=40, deadline=None)
    def test_equals_pcc_of_ranks(self, xs):
        from scipy.stats import rankdata
        x = np.array(xs)
        y = np.cos(x)
        if np.unique(y).size < 3:
            return
        assert srcc(x, y) == pcc(rankdata(x), rankdata(y))

    def test_invariant_under_any_increasing_map(self):
        rng = RandomStream(0).generator()
        x = rng.random(30)
        y = rng.random(30)
        assert srcc(np.exp(3.0 * x), y) == pytest.approx(srcc(x, y), abs=1e-12)


def _box(d):
    return np.zeros(d), np.ones(d)


class TestSobolIndices:
    def test_single_active_variable(self):
        lower, upper = PRIOR.lower(), PRIOR.upper()

        def f(thetas):
            return thetas[:, 0]

        res = sobol_indices(f, lower, upper, 4096, RandomStream(1))
        assert res.main[0] == pytest.approx(1.0, abs=0.02)
        assert res.total[0] == pytest.approx(1.0, abs=0.02)
        assert np.all(np.abs(res.main[1:]) < 0.02)
        assert np.all(np.abs(res.total[1:]) < 0.02)

    def test_symmetric_additive_split(self):
        lower, upper = _box(4)

        def f(u):
            return u[:, 0] + u[:, 1]

        res = sobol_indices(f, lower, upper, 2**16, RandomStream(2))
        assert res.main[0] == pytest.approx(0.5, abs=0.02)
        assert res.main[1] == pytest.approx(0.5, abs=0.02)
        assert res.main.sum() == pytest.approx(1.0, abs=0.05)

    def test_total_at_least_main_within_noise(self):
        lower, upper = _box(3)

        def f(u):
            return u[:, 0] * u[:, 1] + u[:, 2]

        res = sobol_indices(f, lower, upper, 4096, RandomStream(3))
        for i in range(3):
            se = res.main_se[i] + res.total_se[i]
            assert res.total[i] >= res.main[i] - 2.0 * se

    def test_reproducible_for_fixed_seed(self):
        lower, upper = _box(3)

        def f(u):
            return np.sin(u).sum(axis=1)

        a = sobol_indices(f, lower, upper, 512, RandomStream(4))
        b = sobol_indices(f, lower, upper, 512, RandomStream(4))
        np.testing.assert_array_equal(a.main, b.main)
        np.testing.assert_array_equal(a.total_se, b.total_se)

    def test_bootstrap_se_shrinks_with_n(self):
        lower, upper = _box(3)

        def f(u):
            return u[:, 0] + 0.5 * u[:, 1] ** 2 + 0.1 * u[:, 2]

        small = sobol_indices(f, lower, upper, 2048, RandomStream(5))
        big = sobol_indices(f, lower, upper, 4096, RandomStream(5))
        ratio = small.main_se.mean() / big.main_se.mean()
        assert ratio == pytest.approx(np.sqrt(2.0), rel=0.30)

    def test_n_base_validation(self):
        lower, upper = _box(2)
        with pytest.raises(ValueError):
            sobol_indices(lambda u: u[:, 0], lower, upper, 100, RandomStream(0))
        with pytest.raises(ValueError):
            sobol_indices(lambda u: u[:, 0], lower, upper, 300, RandomStream(0))


class TestReportSerialization:
    def test_csv_layout(self, tmp_path):
        d = 8
        report = SensitivityReport(
            parameters=tuple(f"p{i}" for i in range(d)),
            outputs=("length", "depth"),
            pcc=np.zeros((d, 2)), srcc=np.zeros((d, 2)),
            sobol_main=np.zeros((d, 2)), sobol_total=np.zeros((d, 2)),
            sobol_main_se=np.zeros((d, 2)), sobol_total_se=np.zeros((d, 2)),
            n_base=256)
        jpath, cpath = tmp_path / "sa.json", tmp_path / "sa.csv"
        save_report(report, jpath, cpath)
        lines = cpath.read_text().splitlines()
        assert lines[0].startswith("parameter,length_pcc,length_srcc")
        assert len(lines) == d + 1

    def test_json_round_trip(self, tmp_path):
        rng = RandomStream(3).generator()
        d = 8
        report = SensitivityReport(
            parameters=tuple(f"p{i}" for i in range(d)),
            outputs=("length", "depth"),
            **{name: rng.random((d, 2)) for name in (
                "pcc", "srcc", "sobol_main", "sobol_total",
                "sobol_main_se", "sobol_total_se")},
            n_base=512, aggregation="mean over conditions")
        path = tmp_path / "sa.json"
        save_report(report, path)
        back = load_report(path)
        for field in dataclasses.fields(SensitivityReport):
            a, b = getattr(back, field.name), getattr(report, field.name)
            if isinstance(b, np.ndarray):
                assert np.array_equal(a, b), field.name
            else:
                assert a == b, field.name
