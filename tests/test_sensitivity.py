"""Correlation coefficients and Sobol indices."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from meltcal import sensitivity
from meltcal.domain import PRIOR_LOWER, PRIOR_UPPER, RandomStream
from meltcal.sensitivity import (
    QUADRATURE_MIN_ELL,
    UndefinedStatisticError,
    _average_ranks,
    _factor_moments,
    gp_mean_sobol,
    pcc,
    sa_on_surrogate,
    sobol_indices,
    srcc,
)
from meltcal.pipeline import _read_json, _write_json
from meltcal.surrogate import ConditionedGp

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
    @example(xs=[0.0, 1e-16, 2e-16, 0.0, 0.0], a=1.0, b=1.0)
    @example(xs=[0.0, 0.0, 0.0, 1.18e-38, 1.73e-94], a=1.0, b=1.0)
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_increasing_affine(self, xs, a, b):
        x = np.array(xs)
        y = np.sin(x) + x
        if np.std(y) == 0.0:
            return
        # a*x + b must keep the spread of x; where it rounds the spread
        # away, pcc of the transformed sample measures rounding, not x
        assume(a * np.ptp(x) > 1e-6 * (abs(b) + a * np.max(np.abs(x))))
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

    def test_average_ranks_equal_scipy_rankdata(self):
        from scipy.stats import rankdata
        rng = RandomStream(6).generator()
        for k in range(3000):
            n = int(rng.integers(1, 80))
            if k % 2:  # many ties: a few distinct values
                x = rng.integers(0, int(rng.integers(1, 12)), n).astype(float)
            else:
                x = rng.standard_normal(n)
            assert np.array_equal(_average_ranks(x), rankdata(x))
        for x in ([], [2.0, np.nan, 1.0], [-0.0, 0.0, np.inf, -np.inf]):
            np.testing.assert_array_equal(_average_ranks(x), rankdata(x))

    def test_cli_import_leaves_scipy_stats_out(self):
        """scipy.stats takes about a third of the CLI's import time."""
        src = str(Path(sensitivity.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = "import sys, meltcal.cli; print('scipy.stats' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True, timeout=60)
        assert proc.stdout.strip() == "False"


def _box(d):
    return np.zeros(d), np.ones(d)


class TestSobolIndices:
    def test_single_active_variable(self):
        def f(thetas):
            return thetas[:, 0]

        res = sobol_indices(f, PRIOR_LOWER, PRIOR_UPPER, 4096, RandomStream(1))
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

    def test_independent_of_output_offset(self):
        """An output far from zero gives the indices and SEs of the same
        output centred: f_B enters the main estimator centred."""
        lower, upper = np.full(3, -np.pi), np.full(3, np.pi)

        def ishigami(x):
            return (np.sin(x[:, 0]) + 7.0 * np.sin(x[:, 1]) ** 2
                    + 0.1 * x[:, 2] ** 4 * np.sin(x[:, 0]))

        plain = sobol_indices(ishigami, lower, upper, 4096, RandomStream(7))
        offset = sobol_indices(lambda x: ishigami(x) + 1e3, lower, upper, 4096,
                               RandomStream(7))
        for field in ("main", "total", "main_se", "total_se"):
            np.testing.assert_allclose(getattr(offset, field),
                                       getattr(plain, field), rtol=0, atol=1e-9)

    def test_n_base_validation(self):
        lower, upper = _box(2)
        with pytest.raises(ValueError):
            sobol_indices(lambda u: u[:, 0], lower, upper, 100, RandomStream(0))
        with pytest.raises(ValueError):
            sobol_indices(lambda u: u[:, 0], lower, upper, 300, RandomStream(0))


def _tensor_grid_sobol(x, ell, v, nodes=64):
    """Brute-force V_i / V and V_Ti / V of f(t) = sum_j v_j prod_k g_jk(t_k)
    over [0, 1]^3, on a Gauss-Legendre tensor grid.  V_Ti centres f along
    axis i itself, so a near-zero total does not come from a difference of
    two large variances."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    t, w = 0.5 * (t + 1.0), 0.5 * w
    g = [np.exp(-0.5 * ((t[None, :] - x[:, k, None]) / ell[k]) ** 2) for k in range(3)]
    f = np.einsum("j,ja,jb,jc->abc", v, *g)
    weights = [w[:, None, None], w[None, :, None], w[None, None, :]]
    mean = np.einsum("abc,a,b,c->", f, w, w, w)
    var = np.einsum("abc,a,b,c->", (f - mean) ** 2, w, w, w)
    main, total = np.empty(3), np.empty(3)
    for i in range(3):
        others = tuple(k for k in range(3) if k != i)
        cond = (f * weights[others[0]] * weights[others[1]]).sum(axis=others)
        main[i] = (w * (cond - mean) ** 2).sum() / var
        centred = f - (f * weights[i]).sum(axis=i, keepdims=True)
        total[i] = np.einsum("abc,a,b,c->", centred**2, w, w, w) / var
    return main, total


class TestGpMeanSobol:
    def test_matches_tensor_grid(self):
        rng = RandomStream(21).generator()
        x = rng.random((25, 3))
        ell = np.array([0.1, 1.0, 1e3])
        v = rng.normal(0.0, 300.0, 25)
        main, total = gp_mean_sobol(x, ell, v, np.zeros(3), np.ones(3))
        ref_main, ref_total = _tensor_grid_sobol(x, ell, v)
        assert ref_total[2] < 1e-9  # the near-zero index is checked too
        np.testing.assert_allclose(main, ref_main, rtol=1e-6, atol=0)
        np.testing.assert_allclose(total, ref_total, rtol=1e-6, atol=0)

    def test_box_and_affine_map(self):
        rng = RandomStream(22).generator()
        x = rng.random((12, 3))
        ell = np.array([0.3, 0.7, 2.0])
        v = rng.normal(0.0, 1.0, 12)
        lower, upper = np.array([1.0, -2.0, 10.0]), np.array([3.0, 0.0, 20.0])
        span = upper - lower
        raw = gp_mean_sobol(lower + x * span, ell * span, 5.0 * v, lower, upper)
        unit = gp_mean_sobol(x, ell, v, np.zeros(3), np.ones(3))
        for got, want in zip(raw, unit):
            np.testing.assert_allclose(got, want, rtol=1e-10)

    @pytest.mark.parametrize("ell", [1e-3, 1e-2, 0.049])
    def test_erf_moments_match_quad(self, ell):
        assert ell < QUADRATURE_MIN_ELL
        x = np.array([0.0, 0.5 * ell, 0.4, 0.4 + 2.0 * ell, 1.0])
        a, b, c = _factor_moments(x, ell, 0.0, 1.0)

        def integral(fn, *peaks):
            return quad(fn, 0.0, 1.0, points=peaks, epsabs=0.0, epsrel=1e-13,
                        limit=500)[0]

        def g(j):
            return lambda t: np.exp(-0.5 * ((t - x[j]) / ell) ** 2)

        a_ref = [integral(g(j), x[j]) for j in range(x.size)]
        np.testing.assert_allclose(a, a_ref, rtol=1e-9)
        for j in range(x.size):
            for k in range(x.size):
                peaks = (x[j], x[k], 0.5 * (x[j] + x[k]))
                b_ref = integral(lambda t: g(j)(t) * g(k)(t), *peaks)
                c_ref = integral(lambda t: (g(j)(t) - a_ref[j]) * (g(k)(t) - a_ref[k]),
                                 *peaks)
                assert b[j, k] == pytest.approx(b_ref, rel=1e-9, abs=0.0)
                assert c[j, k] == pytest.approx(c_ref, rel=1e-7, abs=0.0)

    def test_constant_mean_rejected(self):
        with pytest.raises(UndefinedStatisticError):
            gp_mean_sobol(np.full((3, 2), 0.5), np.ones(2), np.zeros(3),
                          np.zeros(2), np.ones(2))

    def test_bundled_surrogates_match_saltelli(self, dataset, gps):
        report = sa_on_surrogate(*gps, dataset, 256, RandomStream(3))
        for col, gp in enumerate(gps):
            cgp = ConditionedGp.build([gp], dataset.design_matrix())

            def f(thetas):  # in chunks: an 8192-row call holds a 68 MB tensor
                return np.concatenate([cgp.averaged_mean(thetas[i:i + 4096])[0]
                                       for i in range(0, len(thetas), 4096)])

            mc = sobol_indices(f, PRIOR_LOWER, PRIOR_UPPER, 8192,
                               RandomStream(30 + col))
            main = np.asarray(report["sobol_main"])[:, col]
            total = np.asarray(report["sobol_total"])[:, col]
            assert np.all(np.abs(main - mc.main) <= 4 * mc.main_se)
            assert np.all(np.abs(total - mc.total) <= 4 * mc.total_se)


class TestReportSerialization:
    def test_json_round_trip(self, tmp_path, dataset, gps):
        """The SA document comes back from its file equal, each float bitwise."""
        doc = sa_on_surrogate(*gps, dataset, 256, RandomStream(3))
        path = tmp_path / "sensitivity.json"
        _write_json(doc, path)
        back = _read_json(path)
        assert back == doc
        for name in ("pcc", "srcc", "sobol_main", "sobol_total"):
            a, b = np.asarray(back[name]), np.asarray(doc[name])
            assert a.shape == b.shape == (8, 2), name
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name
