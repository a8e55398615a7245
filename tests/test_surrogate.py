"""GP surrogate: fitting, prediction, LOOCV, and serialization."""

import dataclasses
import threading
import tracemalloc

import numpy as np
import pytest

from meltcal import surrogate
from meltcal.doe import TrainingSet, build_training_set, latin_hypercube
from meltcal.domain import PRIOR_LOWER, PRIOR_UPPER, RandomStream
from meltcal.forward import evaluate_reduced
from meltcal.surrogate import (
    JITTER_CEILING,
    JITTER_FLOOR,
    KERNEL_BLOCK_ROWS,
    LENGTHSCALE_BOUNDS,
    ConditionedGp,
    GpSurrogate,
    IllConditionedError,
    _chol_with_escalation,
    _Likelihood,
    _PairDistances,
    _se_kernel,
    fit_gp,
    load_gp,
    loocv_q2,
    save_gp,
)
from nlml_reference import _nlml_and_grad as reference_nlml_and_grad
from nlml_reference import inverse_from_factor, nlml, packed_nlml_and_grad
from scipy.linalg import cho_solve, cholesky, cython_blas, cython_lapack
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs


def make_ts(x: np.ndarray, y: np.ndarray) -> TrainingSet:
    """Wrap 1-d toy data in the TrainingSet container (both outputs = y)."""
    x = np.atleast_2d(np.asarray(x, float).reshape(-1, 1))
    lo = np.array([x.min() - 1e-9])
    hi = np.array([x.max() + 1e-9])
    outputs = np.column_stack([y, y])
    return TrainingSet(inputs_raw=x, outputs=outputs, lo=lo, hi=hi)


def traced_peak(fn) -> int:
    """The peak of the memory tracemalloc sees allocated during ``fn()``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def sine_gp():
    x = np.linspace(0.0, 1.0, 10)
    ts = make_ts(x, np.sin(2.0 * np.pi * x))
    return fit_gp(ts, "length", RandomStream(1))


class TestFitGp:
    def test_sine_toy_q2(self, sine_gp):
        q2, _ = loocv_q2(sine_gp)
        assert q2 >= 0.95

    def test_duplicate_rows_rejected(self):
        x = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.1])
        ts = make_ts(x, np.sin(x))
        with pytest.raises(ValueError, match="duplicate"):
            fit_gp(ts, "length", RandomStream(0))

    def test_too_few_rows_rejected(self):
        x = np.linspace(0, 1, 5)
        with pytest.raises(ValueError, match="10"):
            fit_gp(make_ts(x, x), "length", RandomStream(0))

    def test_bad_output_selector(self):
        x = np.linspace(0, 1, 10)
        with pytest.raises(ValueError, match="output"):
            fit_gp(make_ts(x, x), "width", RandomStream(0))

    def test_constant_targets_predict_the_constant(self):
        x = np.linspace(0, 1, 12)
        gp = fit_gp(make_ts(x, np.full(12, 3.5)), "length", RandomStream(2))
        mean, _ = gp.predict(np.linspace(-0.2, 1.2, 9).reshape(-1, 1))
        np.testing.assert_allclose(mean, 3.5, atol=1e-8)


class TestPredict:
    def test_interpolates_training_points(self, sine_gp):
        mean, var = sine_gp.predict(sine_gp.lo + sine_gp.x * (sine_gp.hi - sine_gp.lo))
        target = sine_gp.y_mean + sine_gp.y_scale * sine_gp.y_std
        np.testing.assert_allclose(mean, target,
                                   atol=10.0 * np.sqrt(sine_gp.sn2) * sine_gp.y_scale)
        assert np.all(var <= 2.0 * sine_gp.sn2 * sine_gp.y_scale**2 + 1e-15)

    def test_far_field_reverts_to_prior(self, sine_gp):
        far = np.array([[1e6]])
        mean, var = sine_gp.predict(far)
        assert mean[0] == pytest.approx(sine_gp.y_mean, abs=1e-6)
        assert var[0] == pytest.approx(sine_gp.sf2 * sine_gp.y_scale**2, rel=0.01)

    def test_linear_midpoints(self):
        x = np.linspace(0.0, 1.0, 10)
        gp = fit_gp(make_ts(x, 2.0 * x + 1.0), "length", RandomStream(3))
        mids = 0.5 * (x[:-1] + x[1:])
        mean, _ = gp.predict(mids.reshape(-1, 1))
        np.testing.assert_allclose(mean, 2.0 * mids + 1.0, rtol=0.02)

    def test_non_finite_input_rejected(self, sine_gp):
        with pytest.raises(ValueError):
            sine_gp.predict(np.array([[np.nan]]))

    def test_variance_bounded_by_signal_plus_jitter(self, sine_gp):
        xs = np.linspace(-2.0, 3.0, 200).reshape(-1, 1)
        _, var = sine_gp.predict(xs)
        cap = (sine_gp.sf2 + sine_gp.sn2) * sine_gp.y_scale**2
        assert np.all(var >= 0.0)
        assert np.all(var <= cap + 1e-12)


class TestBatchLayout:
    """A row's prediction must not depend on the rest of its batch: the
    calibration likelihood is a product over conditions and cannot change
    with the order of the dataset's rows."""

    @pytest.fixture(scope="class")
    def gp_and_batch(self):
        rng = RandomStream(11).generator()
        x = latin_hypercube(40, 4, RandomStream(12))
        y = np.sin(3.0 * x[:, 0]) * np.cos(2.0 * x[:, 1]) + x[:, 2] ** 2 - x[:, 3]
        ts = TrainingSet(inputs_raw=x, outputs=np.column_stack([y, y]),
                         lo=np.zeros(4), hi=np.ones(4))
        return fit_gp(ts, "length", RandomStream(13)), rng.random((37, 4))

    def test_mean_bitwise_equal_permuted_and_alone(self, gp_and_batch):
        gp, xs = gp_and_batch
        mean, _ = gp.predict(xs)
        rng = RandomStream(14).generator()
        for _ in range(5):
            perm = rng.permutation(xs.shape[0])
            assert np.array_equal(gp.predict(xs[perm])[0], mean[perm])
        alone = np.array([gp.predict(row)[0][0] for row in xs])
        assert np.array_equal(alone, mean)

    def test_variance_bitwise_equal_permuted(self, gp_and_batch):
        gp, xs = gp_and_batch
        _, var = gp.predict(xs)
        rng = RandomStream(15).generator()
        for _ in range(5):
            perm = rng.permutation(xs.shape[0])
            assert np.array_equal(gp.predict(xs[perm])[1], var[perm])


class TestConditionedGp:
    """The fast path at fixed design rows against the general ``predict``,
    on the bundled conditions and GPs fitted as the pipeline fits them."""

    @pytest.fixture(scope="class")
    def setup(self, dataset, gps):
        rng = RandomStream(21).generator()
        thetas = PRIOR_LOWER + rng.random((64, 8)) * (PRIOR_UPPER - PRIOR_LOWER)
        return gps, dataset.design_matrix(), thetas

    @staticmethod
    def stacked(designs, theta):
        return np.concatenate([designs, np.tile(theta, (designs.shape[0], 1))], axis=1)

    def test_averaged_mean_matches_predict(self, setup):
        gps, designs, thetas = setup
        for gp in gps:
            (fast,) = ConditionedGp.build([gp], designs).averaged_mean(thetas)
            ref = np.array([gp.predict(self.stacked(designs, t))[0].mean()
                            for t in thetas])
            np.testing.assert_allclose(fast, ref, rtol=1e-10, atol=0)

    def test_per_condition_mean_bitwise_and_variance_close(self, setup):
        gps, designs, thetas = setup
        for gp in gps:
            cgp = ConditionedGp.build([gp], designs)
            for t in thetas:
                (mean,), (var,) = cgp.predict(t)
                ref_mean, ref_var = gp.predict(self.stacked(designs, t))
                assert np.array_equal(mean, ref_mean)
                # sf2 - |L^-1 k|^2 cancels to ~1e-7 of sf2 here, so compare
                # against the prior variance as well as relatively
                np.testing.assert_allclose(var, ref_var, rtol=1e-6, atol=0)
                assert np.all(np.abs(var - ref_var) <= 1e-12 * gp.sf2 * gp.y_scale**2)

    def test_kernel_rows_close_to_the_full_kernel(self, setup):
        """The stored design factor times the theta factor against the SE
        kernel over all inputs at once: the product rounds differently,
        by a few ulp in the rows and far less than the mean's scale."""
        gps, designs, thetas = setup
        cgp = ConditionedGp.build(gps, designs)
        for t in thetas:
            rows, mean = cgp._kernel_rows(t), cgp.predict(t)[0]
            for o, gp in enumerate(gps):
                xs = (self.stacked(designs, t) - gp.lo) / (gp.hi - gp.lo)
                k_full = _se_kernel(xs, gp.x, gp.sf2, gp.ell)
                np.testing.assert_allclose(rows[o], k_full, rtol=2e-15, atol=0)
                mean_full = gp.y_mean + gp.y_scale * (k_full @ gp.weights)
                np.testing.assert_allclose(mean[o], mean_full, rtol=1e-9, atol=0)

    def test_independent_of_row_order_and_batch(self, setup):
        gps, designs, thetas = setup
        perm = RandomStream(22).generator().permutation(designs.shape[0])
        for gp in gps:
            cgp = ConditionedGp.build([gp], designs)
            permuted = ConditionedGp.build([gp], designs[perm])
            averaged = cgp.averaged_mean(thetas)
            assert np.array_equal(permuted.averaged_mean(thetas), averaged)
            alone = np.array([cgp.averaged_mean(t)[0, 0] for t in thetas])
            assert np.array_equal(alone, averaged[0])
            for t in thetas[:8]:
                (mean,), (var,) = cgp.predict(t)
                (p_mean,), (p_var,) = permuted.predict(t)
                assert np.array_equal(p_mean, mean[perm])
                assert np.array_equal(p_var, var[perm])

    def test_non_finite_theta_rejected(self, setup):
        gps, designs, thetas = setup
        cgp = ConditionedGp.build(gps[:1], designs)
        bad = thetas[0].copy()
        bad[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            cgp.predict(bad)
        with pytest.raises(ValueError, match="finite"):
            cgp.averaged_mean(np.vstack([thetas[:2], bad]))

    def test_one_design_row_equals_its_row_among_all(self, setup):
        gps, designs, thetas = setup
        for gp in gps:
            full = ConditionedGp.build([gp], designs)
            expected = [full.predict(t) for t in thetas[:8]]
            for c in range(designs.shape[0]):
                one = ConditionedGp.build([gp], designs[c:c + 1])
                for t, ((mean,), (var,)) in zip(thetas[:8], expected):
                    (o_mean,), (o_var,) = one.predict(t)
                    assert o_mean[0] == mean[c] and o_var[0] == var[c]

    def test_rows_past_a_pad_boundary_equal_their_one_row_builds(self, setup):
        """17 fixed rows pad to two blocks of PAD_ROWS; each row still
        equals its one-row build and follows its row under a permutation."""
        gps, designs, thetas = setup
        many = np.vstack([designs, designs[:4] * [1.02, 0.98, 1.01]])
        assert many.shape[0] == 17 and surrogate.PAD_ROWS == 16
        perm = RandomStream(23).generator().permutation(many.shape[0])
        for gp in gps:
            full = ConditionedGp.build([gp], many)
            permuted = ConditionedGp.build([gp], many[perm])
            ones = [ConditionedGp.build([gp], many[c:c + 1]) for c in range(17)]
            for t in thetas[:8]:
                (mean,), (var,) = full.predict(t)
                (p_mean,), (p_var,) = permuted.predict(t)
                assert np.array_equal(p_mean, mean[perm])
                assert np.array_equal(p_var, var[perm])
                for c, one in enumerate(ones):
                    (o_mean,), (o_var,) = one.predict(t)
                    assert o_mean[0] == mean[c] and o_var[0] == var[c]

    def test_stack_equals_each_outputs_own_predict(self, setup):
        """Several outputs in one ConditionedGp give bitwise each output's
        one-output results."""
        gps, designs, thetas = setup
        ones = [ConditionedGp.build([gp], designs) for gp in gps]
        for members in ((0, 1), (1,)):
            cgp = ConditionedGp.build([gps[o] for o in members], designs)
            averaged = cgp.averaged_mean(thetas)
            assert averaged.shape == (len(members), len(thetas))
            for row, o in enumerate(members):
                assert np.array_equal(averaged[row], ones[o].averaged_mean(thetas)[0])
            for t in thetas:
                mean, var = cgp.predict(t)
                assert mean.shape == var.shape == (len(members), designs.shape[0])
                for row, o in enumerate(members):
                    o_mean, o_var = ones[o].predict(t)
                    assert np.array_equal(mean[row], o_mean[0])
                    assert np.array_equal(var[row], o_var[0])

    def test_stack_rejects_mismatch_and_non_finite_theta(self, setup):
        gps, designs, thetas = setup
        fewer = dataclasses.replace(gps[1], x=gps[1].x[:-1])
        with pytest.raises(ValueError, match="same numbers of inputs"):
            ConditionedGp.build([gps[0], fewer], designs)
        cgp = ConditionedGp.build(gps, designs)
        bad = thetas[0].copy()
        bad[5] = np.nan
        with pytest.raises(ValueError, match="finite"):
            cgp.predict(bad)


class TestGradient:
    def test_analytic_gradient_matches_finite_differences(self):
        rng = RandomStream(7).generator()
        x = rng.random((12, 3))
        y = np.sin(x.sum(axis=1)) + 0.1 * rng.standard_normal(12)
        likelihood = _Likelihood(y, _PairDistances.build(x))
        for _ in range(20):
            p = rng.uniform(-2.0, 2.0, size=5)
            _, grad = likelihood(p)
            fd = np.empty_like(grad)
            h = 1e-6
            for j in range(p.size):
                e = np.zeros_like(p)
                e[j] = h
                fd[j] = (nlml(p + e, x, y) - nlml(p - e, x, y)) / (2.0 * h)
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)


class TestPackedNlml:
    """The marginal likelihood on packed pair distances against a verbatim
    copy of its dense (N, N, d) form, on bundled training sets."""

    @pytest.fixture(scope="class", params=["N130", "N260"])
    def training(self, request, dataset):
        """The session training set, and the same design at 20 per condition."""
        ts = (request.getfixturevalue("training_set") if request.param == "N130"
              else build_training_set(dataset, 20, evaluate_reduced, RandomStream(0)))
        x = ts.inputs_std()
        y = ts.outputs[:, 0]
        return x, (y - y.mean()) / y.std()

    def test_matches_dense_reference(self, training):
        x, y = training
        d = x.shape[1]
        likelihood = _Likelihood(y, _PairDistances.build(x))
        sq = (x[:, None, :] - x[None, :, :]) ** 2
        lo = np.r_[np.full(d, np.log(LENGTHSCALE_BOUNDS[0])), -10.0,
                   np.log(JITTER_FLOOR)]
        hi = np.r_[np.full(d, np.log(LENGTHSCALE_BOUNDS[1])), 10.0, 0.0]
        rng = RandomStream(41).generator()
        # across fit_gp's whole bounds, and in the box its starts come from
        draws = [lo + rng.random(d + 2) * (hi - lo) for _ in range(12)]
        draws += [np.r_[rng.uniform(-3.0, 3.0, d + 1), rng.uniform(-9.0, -3.0)]
                  for _ in range(12)]
        for p in draws:
            value, grad = likelihood(p)
            ref_value, ref_grad = reference_nlml_and_grad(p, x, y, sq)
            assert ref_value < 1e12
            assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
            assert np.abs(grad - ref_grad).max() <= 1e-10 * np.abs(ref_grad).max()

    def test_not_positive_definite_in_both(self, training):
        x, y = training
        d = x.shape[1]
        # long length scales and noise far below sf2 * eps: K is the rank-one
        # sf2 * 11^T to working precision
        p = np.r_[np.full(d, np.log(LENGTHSCALE_BOUNDS[1])), 10.0, -40.0]
        sq = (x[:, None, :] - x[None, :, :]) ** 2
        for value, grad in (_Likelihood(y, _PairDistances.build(x))(p),
                            reference_nlml_and_grad(p, x, y, sq)):
            assert value == 1e12
            assert np.array_equal(grad, np.zeros(d + 2))

    def test_call_allocates_no_pair_tensor(self, training):
        """A start's first call, its buffers included."""
        x, y = training
        n, d = x.shape
        pairs = _PairDistances.build(x)
        p = np.r_[np.zeros(d + 1), -5.0]
        _Likelihood(y, pairs)(p)
        peak = traced_peak(lambda: _Likelihood(y, pairs)(p))
        assert peak < n * n * d * 8 / 2

    def test_later_call_allocates_less_than_a_pair_vector(self, training):
        """Once a start has its buffers, a call writes into them: it
        allocates no (M,) vector and no (N, N) matrix."""
        x, y = training
        pairs = _PairDistances.build(x)
        likelihood = _Likelihood(y, pairs)
        p = np.r_[np.zeros(x.shape[1] + 1), -5.0]
        likelihood(p)
        peak = traced_peak(lambda: likelihood(p))
        assert peak < len(pairs.flat) * 8

    def test_failed_inverse_gives_penalty(self, training, monkeypatch):
        x, y = training
        monkeypatch.setattr(surrogate, "_dpotri", lambda low_t: 1)
        p = np.r_[np.zeros(x.shape[1] + 1), -5.0]
        value, grad = _Likelihood(y, _PairDistances.build(x))(p)
        assert value == 1e12
        assert np.array_equal(grad, np.zeros_like(p))

    def test_zero_pivot_in_last_block_gives_penalty(self, training, monkeypatch):
        """The real inverse entry on a factor with a zero on its diagonal
        near its end, which at N=260 lies in the split's last dtrtri block:
        its positive info reaches the likelihood as the penalty."""
        x, y = training
        inverse = surrogate._dpotri
        infos = []

        def zero_pivot(low_t):
            low_t[-2, -2] = 0.0
            infos.append(inverse(low_t))
            return infos[-1]

        monkeypatch.setattr(surrogate, "_dpotri", zero_pivot)
        p = np.r_[np.zeros(x.shape[1] + 1), -5.0]
        value, grad = _Likelihood(y, _PairDistances.build(x))(p)
        assert infos == [len(x) - 1]
        assert value == 1e12
        assert np.array_equal(grad, np.zeros_like(p))


class TestLapackNlml:
    """The marginal likelihood on direct LAPACK calls against a verbatim
    copy of its form through scipy's cholesky and cho_solve, on the bundled
    N=130 training set: the same bits, and the same errors."""

    @pytest.fixture(scope="class")
    def training(self, training_set):
        x = training_set.inputs_std()
        y = training_set.outputs[:, 0]
        return x, (y - y.mean()) / y.std(), _PairDistances.build(x)

    def test_bitwise_equal_to_packed_reference(self, training):
        x, y, pairs = training
        d = x.shape[1]
        lo = np.r_[np.full(d, np.log(LENGTHSCALE_BOUNDS[0])), -10.0,
                   np.log(JITTER_FLOOR)]
        hi = np.r_[np.full(d, np.log(LENGTHSCALE_BOUNDS[1])), 10.0, 0.0]
        rng = RandomStream(43).generator()
        draws = [lo + rng.random(d + 2) * (hi - lo) for _ in range(50)]
        draws += [np.r_[rng.uniform(-3.0, 3.0, d + 1), rng.uniform(-9.0, -3.0)]
                  for _ in range(50)]
        likelihood = _Likelihood(y, pairs)
        for p in draws:
            value, grad = likelihood(p)
            ref_value, ref_grad = packed_nlml_and_grad(p, x, y, pairs)
            assert value == ref_value
            assert np.array_equal(grad, ref_grad)

    def test_bitwise_equal_to_packed_reference_above_the_split(self, dataset):
        """At N=260 the inverse is split: the reference splits it the same
        way through the f2py wrappers."""
        ts = build_training_set(dataset, 20, evaluate_reduced, RandomStream(0))
        x = ts.inputs_std()
        y = (ts.outputs[:, 0] - ts.outputs[:, 0].mean()) / ts.outputs[:, 0].std()
        pairs = _PairDistances.build(x)
        assert len(x) > surrogate.KINV_SPLIT_ROWS
        d = x.shape[1]
        rng = RandomStream(45).generator()
        likelihood = _Likelihood(y, pairs)
        for _ in range(12):
            p = np.r_[rng.uniform(-3.0, 3.0, d + 1), rng.uniform(-9.0, -3.0)]
            value, grad = likelihood(p)
            ref_value, ref_grad = packed_nlml_and_grad(p, x, y, pairs)
            assert ref_value < 1e12
            assert value == ref_value
            assert np.array_equal(grad, ref_grad)

    def test_reused_buffers_bitwise_across_failed_calls(self, training,
                                                        monkeypatch):
        """One start's buffers over a sequence of calls that takes in a
        failed factorization and a failed inverse: every call gives the
        reference's bits, so what a failed call leaves half written in the
        buffers never reaches a later one."""
        x, y, pairs = training
        d = x.shape[1]
        rng = RandomStream(44).generator()
        good = [np.r_[rng.uniform(-3.0, 3.0, d + 1), rng.uniform(-9.0, -3.0)]
                for _ in range(4)]
        # K is the rank-one sf2 * 11^T to working precision: dpotrf writes
        # part of the factor, then stops
        singular = np.r_[np.full(d, np.log(LENGTHSCALE_BOUNDS[1])), 10.0, -40.0]
        likelihood = _Likelihood(y, pairs)

        def assert_reference(p):
            value, grad = likelihood(p)
            ref_value, ref_grad = packed_nlml_and_grad(p, x, y, pairs)
            assert value == ref_value
            assert np.array_equal(grad, ref_grad)
            return value

        def scribble(low_t):
            """A dpotri that fails after writing over part of its triangle."""
            upper = np.triu_indices(len(low_t))
            low_t[upper[0][::2], upper[1][::2]] = np.nan
            return 1

        assert_reference(good[0])
        assert assert_reference(singular) == 1e12
        assert_reference(good[1])
        with monkeypatch.context() as m:
            m.setattr(surrogate, "_dpotri", scribble)
            value, grad = likelihood(good[2])
        assert value == 1e12
        assert np.array_equal(grad, np.zeros(d + 2))
        for p in (good[2], good[3], singular, good[0]):
            assert_reference(p)

    @pytest.mark.parametrize("where", ["log sn2", "log sf2", "y"])
    def test_nan_input_raises(self, training, where):
        x, y, pairs = training
        p = np.r_[np.zeros(x.shape[1] + 1), -5.0]
        if where == "y":
            y = y.copy()
            y[3] = np.nan
        else:
            p[-1 if where == "log sn2" else -2] = np.nan
        def library(p, x, y, pairs):
            return _Likelihood(y, pairs)(p)

        for fn in (library, packed_nlml_and_grad):
            with pytest.raises(ValueError, match="infs or NaNs"):
                fn(p, x, y, pairs)


class TestLapackEntries:
    """The likelihood's ctypes entries to scipy's ``cython_lapack`` against
    the f2py wrappers of ``scipy.linalg.lapack``: the same routines, so the
    same bits, on the transposed C-order buffer the likelihood passes."""

    @staticmethod
    def spd(n: int) -> np.ndarray:
        a = RandomStream(n).generator().standard_normal((n, n))
        return a @ a.T + n * np.eye(n)

    @pytest.mark.parametrize("n", [26, 130, 260, 261])
    def test_bitwise_equal_to_f2py_wrappers(self, n):
        k = self.spd(n)
        b = RandomStream(n + 1).generator().standard_normal(n)
        low, info = dpotrf(k, lower=True, clean=False)
        assert info == 0
        k_t = np.ascontiguousarray(k.T)
        assert surrogate._dpotrf(k_t) == 0
        assert np.array_equal(k_t.T, low)

        x, info = dpotrs(low, b, lower=True)
        assert info == 0
        x_entry = b.copy()
        assert surrogate._dpotrs(k_t, x_entry) == 0
        assert np.array_equal(x_entry, x)

        # the inverse: the library's route through the f2py wrappers gives
        # its bits; below the split that route is dpotri itself
        inv, info = inverse_from_factor(low)
        assert info == 0
        assert surrogate._dpotri(k_t) == 0
        assert np.array_equal(k_t.T, inv)
        potri, info = dpotri(low, lower=True)
        assert info == 0
        lower = np.tril_indices(n)
        assert (np.abs(inv[lower] - potri[lower]).max()
                <= 1e-13 * np.abs(potri[lower]).max())
        if n <= surrogate.KINV_SPLIT_ROWS:
            assert np.array_equal(inv, potri)

    @pytest.mark.parametrize("n", [26, 130])
    def test_not_positive_definite_gives_positive_info(self, n):
        k = self.spd(n)
        k[n // 2, n // 2] = -1.0
        assert surrogate._dpotrf(np.ascontiguousarray(k.T)) > 0
        # a factor with a zero on its diagonal has no inverse
        low = np.eye(n)
        low[n // 3, n // 3] = 0.0
        assert surrogate._dpotri(low) > 0

    @pytest.mark.parametrize("n", [26, 130, 260, 261])
    def test_zero_pivot_gives_dpotris_info(self, n):
        """A zero on the diagonal of the factor's last block: the split
        reports its row as dpotri does."""
        low = np.eye(n)
        low[n - 2, n - 2] = 0.0
        assert dpotri(low, lower=True)[1] == n - 1
        assert surrogate._dpotri(low) == n - 1

    @pytest.mark.parametrize("n", [130, 260])
    def test_split_into_blocks_of_64_to_100_rows_above_130(self, n, monkeypatch):
        """130 rows take one dpotri call; 260 are split into dtrtri blocks
        of 64 to 100 rows, the leaves the split pays off with on two fit
        threads."""
        calls = {"potri": 0, "trtri": []}
        potri, trtri = surrogate._POTRI, surrogate._TRTRI

        def count_potri(*args):
            calls["potri"] += 1
            potri(*args)

        def record_trtri(*args):
            calls["trtri"].append(args[2].value)
            trtri(*args)

        monkeypatch.setattr(surrogate, "_POTRI", count_potri)
        monkeypatch.setattr(surrogate, "_TRTRI", record_trtri)
        k_t = np.ascontiguousarray(self.spd(n).T)
        assert surrogate._dpotrf(k_t) == 0
        assert surrogate._dpotri(k_t) == 0
        if n == 130:
            assert calls == {"potri": 1, "trtri": []}
        else:
            assert calls["potri"] == 0
            assert sum(calls["trtri"]) == n
            assert all(64 <= rows <= 100 for rows in calls["trtri"])

    def test_foreign_buffers_rejected(self):
        k_t = np.ascontiguousarray(self.spd(26).T)
        for bad in (np.asfortranarray(k_t), k_t[:, :-1], k_t.astype(np.float32)):
            with pytest.raises(ValueError, match="C-contiguous float64"):
                surrogate._dpotrf(bad)
        with pytest.raises(ValueError, match=r"shape \(26,\)"):
            surrogate._dpotrs(k_t, np.ones(25))

    def test_missing_routine_or_other_signature_raises(self):
        with pytest.raises(ImportError, match="cython_lapack.dpotrf is not"):
            surrogate._cython_routine(cython_lapack, "dpotrf", "char *", "int *")
        with pytest.raises(ImportError, match="dnosuch is not"):
            surrogate._cython_routine(cython_lapack, "dnosuch", "char *")
        # dtrmm's arguments without alpha
        with pytest.raises(ImportError, match="cython_blas.dtrmm is not"):
            surrogate._cython_routine(cython_blas, "dtrmm", "char *", "char *",
                                      "char *", "char *", "int *", "int *",
                                      "double *", "int *", "double *", "int *")


class TestFitWorkers:
    """The multi-start fit on 1, 2 and 3 worker threads, on a small and on
    two dense designs, the densest above the likelihood's inverse split."""

    @pytest.fixture(scope="class", params=[2, 12, 20], ids=["N26", "N156", "N260"])
    def ts(self, request, dataset):
        return build_training_set(dataset, request.param, evaluate_reduced,
                                  RandomStream(0))

    def test_same_bits_at_any_worker_count(self, ts, monkeypatch):
        fits = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(surrogate, "FIT_WORKERS", workers)
            before = threading.active_count()
            fits.append(fit_gp(ts, "length", RandomStream(1)))
            # no pool thread outlives the fit, so a later fork copies none
            assert threading.active_count() == before
        for gp in fits[1:]:
            for name in ("ell", "sf2", "sn2", "chol", "weights"):
                assert np.array_equal(getattr(gp, name), getattr(fits[0], name)), name


class TestFitMemory:
    def test_fit_holds_one_pair_array(self, training_set):
        """``fit_gp`` at N=130 peaks below 1.5 times its pair arrays plus
        one set of likelihood buffers per worker thread (the N x N factor
        buffer, three (M,) vectors and alpha): it holds no (N, N, d)
        tensor and no second (M, d) array."""
        n = training_set.n
        pairs = _PairDistances.build(training_set.inputs_std())
        m = len(pairs.flat)
        pair_bytes = sum(a.nbytes for a in (pairs.rows, pairs.cols, pairs.flat,
                                            pairs.sq))
        start_bytes = (n * n + 3 * m + n) * 8
        peak = traced_peak(lambda: fit_gp(training_set, "length", RandomStream(1)))
        assert peak < 1.5 * pair_bytes + surrogate.FIT_WORKERS * start_bytes


class TestInPlaceBuilds:
    """The kernel built in row blocks and the pair differences built an
    input at a time, against verbatim copies of their one-shot forms."""

    @staticmethod
    def one_shot_kernel(x1, x2, sf2, ell):
        d = (x1[:, None, :] - x2[None, :, :]) / ell
        return sf2 * np.exp(-0.5 * np.einsum("ijk,ijk->ij", d, d))

    @pytest.mark.parametrize("n1", [1, KERNEL_BLOCK_ROWS - 1, KERNEL_BLOCK_ROWS,
                                    KERNEL_BLOCK_ROWS + 5,
                                    3 * KERNEL_BLOCK_ROWS + 7, 130])
    def test_se_kernel_bitwise_equal_to_one_shot(self, n1):
        rng = RandomStream(n1).generator()
        for d in (3, 8, 11):
            x1, x2 = rng.random((n1, d)), rng.random((130, d))
            ell = rng.uniform(0.05, 3.0, d)
            assert np.array_equal(_se_kernel(x1, x2, 1.7, ell),
                                  self.one_shot_kernel(x1, x2, 1.7, ell))
            # column slices, as GpSurrogate.predict passes them
            both = np.hstack([x1, x1])
            assert np.array_equal(_se_kernel(both[:, d:], x2, 1.0, ell),
                                  self.one_shot_kernel(x1, x2, 1.0, ell))
        x = rng.random((n1, 11))
        ell = rng.uniform(0.05, 3.0, 11)
        assert np.array_equal(_se_kernel(x, x, 0.3, ell),
                              self.one_shot_kernel(x, x, 0.3, ell))

    @pytest.mark.parametrize("n", [26, 130, 260])
    def test_pair_differences_bitwise_equal_to_one_shot(self, n):
        x = RandomStream(n).generator().random((n, 11))
        pairs = _PairDistances.build(x)
        rows, cols = np.triu_indices(n, k=1)
        assert np.array_equal(pairs.rows, rows)
        assert np.array_equal(pairs.cols, cols)
        assert np.array_equal(pairs.flat, rows * n + cols)
        assert np.array_equal(pairs.sq, ((x[rows] - x[cols]) ** 2).T)


class TestJitterInPlace:
    """The GP factored with its jitter added to one copy of the kernel's
    diagonal, against a verbatim copy of the form that added a scaled
    identity, on bundled designs of 26, 130 and 260 rows."""

    @staticmethod
    def identity_form(k, sn2):
        jitter = max(sn2, JITTER_FLOOR)
        while True:
            try:
                return cholesky(k + jitter * np.eye(k.shape[0]), lower=True), jitter
            except np.linalg.LinAlgError:
                if jitter >= JITTER_CEILING:
                    raise IllConditionedError(
                        f"kernel matrix not positive definite at jitter {jitter:g}")
                jitter = min(jitter * 10.0, JITTER_CEILING)

    @pytest.fixture(scope="class")
    def designs(self, dataset, training_set):
        """The bundled design at 2, 10 and 20 per condition, by row count."""
        return {26: build_training_set(dataset, 2, evaluate_reduced, RandomStream(0)),
                130: training_set,
                260: build_training_set(dataset, 20, evaluate_reduced, RandomStream(0))}

    @staticmethod
    def factored(x, ts, sf2, ell, sn2):
        y = ts.outputs[:, 0]
        return surrogate._factored_gp(x, (y - y.mean()) / y.std(), sf2, ell, sn2,
                                      ts.lo, ts.hi, 0.0, 1.0, "length")

    @pytest.mark.parametrize("n", [26, 130, 260])
    def test_gp_bitwise_equal_to_identity_form(self, designs, gps, n, monkeypatch):
        """At the bundled length GP's hyperparameters; and with the last row
        a copy of the first at sf2 1e9, where the jitter floor is lost to
        rounding and the factor needs escalation."""
        gp, ts = gps[0], designs[n]
        duplicated = ts.inputs_std().copy()
        duplicated[-1] = duplicated[0]
        cases = ((ts.inputs_std(), gp.sf2, gp.ell, gp.sn2),
                 (duplicated, 1e9, np.full(gp.ell.size, 0.5), 0.0))
        new = [self.factored(x, ts, *hyper) for x, *hyper in cases]
        monkeypatch.setattr(surrogate, "_chol_with_escalation", self.identity_form)
        old = [self.factored(x, ts, *hyper) for x, *hyper in cases]
        assert new[1].sn2 > 10 * JITTER_FLOOR
        for a, b in zip(new, old):
            assert a.sn2 == b.sn2
            for name in ("chol", "weights"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name

    def test_peak_below_three_kernels(self, designs, gps):
        """At N=260, ``_factored_gp`` holds the kernel and one copy, where
        the identity form held the kernel, the scaled identity and the sum."""
        ts, gp = designs[260], gps[0]
        peak = traced_peak(lambda: self.factored(ts.inputs_std(), ts, gp.sf2, gp.ell,
                                                 gp.sn2))
        assert peak < 3 * ts.n * ts.n * 8


class TestScreening:
    def test_extra_point_never_increases_variance(self, sine_gp):
        """With hyperparameters frozen, conditioning on more data shrinks var."""
        extra_std = np.array([[0.55]])
        x_new = np.vstack([sine_gp.x, extra_std])
        y_new = np.append(sine_gp.y_std, 0.0)
        k = _se_kernel(x_new, x_new, sine_gp.sf2, sine_gp.ell)
        low, _ = _chol_with_escalation(k, sine_gp.sn2)
        bigger = GpSurrogate(x=x_new, y_std=y_new, sf2=sine_gp.sf2,
                             ell=sine_gp.ell, sn2=sine_gp.sn2, chol=low,
                             weights=cho_solve((low, True), y_new),
                             lo=sine_gp.lo, hi=sine_gp.hi, y_mean=sine_gp.y_mean,
                             y_scale=sine_gp.y_scale, output="length")
        xs = np.linspace(0.0, 1.0, 50).reshape(-1, 1)
        _, var_small = sine_gp.predict(xs)
        _, var_big = bigger.predict(xs)
        assert np.all(var_big <= var_small + 1e-12)


class TestLoocv:
    def test_q2_formula_consistency(self, sine_gp):
        q2, residuals = loocv_q2(sine_gp)
        y = sine_gp.y_std
        expected = 1.0 - (residuals**2).sum() / ((y - y.mean()) ** 2).sum()
        assert q2 == pytest.approx(expected, rel=1e-12)
        assert q2 <= 1.0
        assert q2 < 1.0  # residuals are tiny but not exactly zero

    def test_white_noise_q2_near_zero(self):
        q2s = []
        for rep in range(5):
            rng = RandomStream(100 + rep).generator()
            x = rng.random(24)
            y = rng.standard_normal(24)
            gp = fit_gp(make_ts(x, y), "length", RandomStream(rep))
            q2s.append(loocv_q2(gp)[0])
        assert np.mean(q2s) <= 0.2

    def test_affine_target_invariance(self):
        """Q2 is unchanged by expressing the outputs in mm instead of m."""
        x = np.linspace(0.0, 1.0, 14)
        y = 1e-4 * (1.0 + 0.3 * np.sin(2 * np.pi * x))
        q2_m = loocv_q2(fit_gp(make_ts(x, y), "length", RandomStream(4)))[0]
        q2_mm = loocv_q2(fit_gp(make_ts(x, 1e3 * y + 7.0), "length",
                                RandomStream(4)))[0]
        assert q2_mm == pytest.approx(q2_m, abs=1e-6)


class TestSerialization:
    def test_round_trip_predictions(self, sine_gp, tmp_path):
        path = tmp_path / "gp.json"
        save_gp(sine_gp, path)
        back = load_gp(path)
        xs = np.linspace(0.0, 1.0, 33).reshape(-1, 1)
        m0, v0 = sine_gp.predict(xs)
        m1, v1 = back.predict(xs)
        np.testing.assert_allclose(m1, m0, rtol=1e-10)
        np.testing.assert_allclose(v1, v0, rtol=1e-8, atol=1e-18)

    def test_unknown_format_rejected(self, sine_gp, tmp_path):
        import json
        path = tmp_path / "gp.json"
        save_gp(sine_gp, path)
        doc = json.loads(path.read_text())
        doc["gp_format"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="gp_format"):
            load_gp(path)
