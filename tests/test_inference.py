"""Posterior density, adaptive Metropolis sampling, chain post-processing."""

import dataclasses
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from am_reference import adaptive_metropolis as reference_adaptive_metropolis
from am_reference import burn_thin
from meltcal import cli, inference
from meltcal.domain import (
    ExperimentalDataset,
    PRIOR_LOWER,
    PRIOR_NOMINAL,
    PRIOR_UPPER,
    RandomStream,
)
from meltcal.forward import NumericsError
from meltcal.inference import (
    AM_BLOCK,
    CHAINS,
    NOISE_FLOOR,
    NOISE_FRACTION,
    ChainWorkerError,
    FixedTerms,
    PosteriorChain,
    _merge_block,
    adaptive_metropolis,
    autocorrelation,
    effective_sample_size,
    experimental_sigmas,
    load_chain,
    log_posterior,
    run_chains,
    save_chain,
    split_rhat,
    summarize,
)
from meltcal.pipeline import StageError

def posterior_at(theta, dataset, gps):
    """``log_posterior`` at ``theta`` with the terms fixed by these arguments."""
    return log_posterior(theta, FixedTerms.build(dataset, *gps))


class TestExperimentalSigmas:
    def test_relative_rule(self, dataset):
        sig = experimental_sigmas(dataset)
        meas = dataset.measurements()
        np.testing.assert_array_equal(
            sig, np.maximum(NOISE_FRACTION * meas, NOISE_FLOOR))

    def test_explicit_sigmas_win(self, dataset):
        rows = tuple(dataclasses.replace(r, length_sigma=1e-4, depth_sigma=2e-4)
                     for r in dataset)
        ds = ExperimentalDataset(rows=rows)
        sig = experimental_sigmas(ds)
        assert np.all(sig[:, 0] == 1e-4)
        assert np.all(sig[:, 1] == 2e-4)


class TestLogPosterior:
    def test_outside_support_is_minus_inf(self, dataset, gps):
        theta = PRIOR_NOMINAL.copy()
        theta[0] = 0.5  # above the alpha upper bound
        lp = posterior_at(theta, dataset, gps)
        assert lp == -np.inf

    def test_boundary_is_finite(self, dataset, gps):
        theta = PRIOR_NOMINAL.copy()
        theta[0] = PRIOR_UPPER[0]
        lp = posterior_at(theta, dataset, gps)
        assert np.isfinite(lp)

    def test_matches_dense_gaussian_oracle(self, dataset, gps):
        """Differences of log p equal the dense multivariate normal
        log-density differences, the GP variance on the diagonal."""
        from scipy.stats import multivariate_normal

        gp_l, gp_d = gps
        sig = experimental_sigmas(dataset)
        meas = dataset.measurements()
        designs = dataset.design_matrix()
        fixed = FixedTerms.build(dataset, *gps)

        def oracle(theta):
            rows = np.concatenate([designs, np.tile(theta, (13, 1))], axis=1)
            mu = np.concatenate([gp_l.predict(rows)[0], gp_d.predict(rows)[0]])
            y = np.concatenate([meas[:, 0], meas[:, 1]])
            # the conditioned GPs' variance: GpSurrogate.predict's differs
            # from it by up to ~6e-8 relative, more than this test allows
            var = fixed.gps.predict(theta)[1].ravel()
            cov = np.diag(np.concatenate([sig[:, 0], sig[:, 1]]) ** 2 + var)
            return multivariate_normal.logpdf(y, mean=mu, cov=cov)

        t1 = PRIOR_NOMINAL
        t2 = PRIOR_NOMINAL * 0.98
        lp1 = posterior_at(t1, dataset, gps)
        lp2 = posterior_at(t2, dataset, gps)
        assert lp1 - lp2 == pytest.approx(oracle(t1) - oracle(t2), rel=1e-9)

    def test_invariant_under_row_reordering(self, dataset, gps):
        theta = PRIOR_NOMINAL
        lp = posterior_at(theta, dataset, gps)
        rows = list(dataset.rows)[::-1]
        reordered = ExperimentalDataset(rows=tuple(
            dataclasses.replace(r, index=i + 1) for i, r in enumerate(rows)))
        lp_rev = posterior_at(theta, reordered, gps)
        assert lp_rev == pytest.approx(lp, rel=1e-12)

    def test_exactly_invariant_under_random_row_permutation(self, dataset, gps):
        rng = RandomStream(5).generator()
        theta = PRIOR_LOWER + (0.2 + 0.6 * rng.random(8)) * (PRIOR_UPPER - PRIOR_LOWER)
        lp = posterior_at(theta, dataset, gps)
        assert np.isfinite(lp)
        for _ in range(20):
            rows = [dataset.rows[i] for i in rng.permutation(len(dataset))]
            permuted = ExperimentalDataset(rows=tuple(
                dataclasses.replace(r, index=i + 1) for i, r in enumerate(rows)))
            assert posterior_at(theta, permuted, gps) == lp

    def test_code_uncertainty_widens_every_quadratic_term(self, dataset, gps):
        """Inflating the variance can only shrink each |r^2 / Sigma_ii|."""
        gp_l, gp_d = gps
        theta = PRIOR_NOMINAL
        designs = dataset.design_matrix()
        rows = np.concatenate([designs, np.tile(theta, (13, 1))], axis=1)
        sig = experimental_sigmas(dataset)
        meas = dataset.measurements()
        for c, gp in enumerate((gp_l, gp_d)):
            mean, var = gp.predict(rows)
            r2 = (meas[:, c] - mean) ** 2
            plain = r2 / sig[:, c] ** 2
            inflated = r2 / (sig[:, c] ** 2 + var)
            assert np.all(inflated <= plain)


class TestAdaptiveMetropolis:
    def test_standard_normal_moments(self):
        def target(x):
            return -0.5 * float(x[0] ** 2)

        chain = adaptive_metropolis(target, np.zeros(1), 50_000, 1_000,
                                    RandomStream(10), initial_step=np.array([1.0]),
                                    burn=10_000, thin=20)
        kept = chain.samples[:, 0]
        ess = effective_sample_size(kept)
        assert abs(kept.mean()) < 3.0 * kept.std() / np.sqrt(ess)
        assert kept.var() == pytest.approx(1.0, rel=0.10)

    def test_uniform_box_marginals(self):
        def target(x):
            return 0.0 if np.all((x >= 0.0) & (x <= 1.0)) else -np.inf

        kept = adaptive_metropolis(target, np.full(2, 0.5), 50_000, 1_000,
                                   RandomStream(11), burn=5_000, thin=25).samples
        n = kept.shape[0]
        crit = 1.63 / np.sqrt(n)  # 1% Kolmogorov-Smirnov critical value
        for j in range(2):
            s = np.sort(kept[:, j])
            ecdf = np.arange(1, n + 1) / n
            ks = np.max(np.maximum(np.abs(ecdf - s), np.abs(s - (ecdf - 1.0 / n))))
            assert ks < crit

    def test_correlated_gaussian_acceptance_window(self):
        cov = np.array([[1.0, 0.8], [0.8, 1.0]])
        prec = np.linalg.inv(cov)

        def target(x):
            return -0.5 * float(x @ prec @ x)

        chain = adaptive_metropolis(target, np.zeros(2), 20_000, 1_000,
                                    RandomStream(12))
        rate = chain.acceptance_rate(after=1_000)
        assert 0.1 <= rate <= 0.5

    def test_detailed_balance_on_discrete_embedding(self):
        """Empirical flows between rounded states balance in stationarity."""
        weights = np.log(np.array([1.0, 2.0, 3.0]))

        def target(x):
            s = int(round(float(x[0])))
            if s < 0 or s > 2:
                return -np.inf
            return float(weights[s])

        chain = adaptive_metropolis(target, np.ones(1), 60_000, 1_000,
                                    RandomStream(13),
                                    initial_step=np.array([1.0]))
        states = np.clip(np.round(chain.samples[5_000:, 0]).astype(int), 0, 2)
        for i in range(3):
            for j in range(i + 1, 3):
                fwd = int(np.sum((states[:-1] == i) & (states[1:] == j)))
                rev = int(np.sum((states[:-1] == j) & (states[1:] == i)))
                assert abs(fwd - rev) <= 5.0 * np.sqrt(fwd + rev + 1)

    def test_requires_finite_start(self):
        def target(x):
            return -np.inf

        with pytest.raises(ValueError, match="finite"):
            adaptive_metropolis(target, np.zeros(2), 1_000, 100, RandomStream(0))

    def test_every_state_stored(self):
        def target(x):
            return -0.5 * float(x @ x)

        chain = adaptive_metropolis(target, np.zeros(3), 500, 100, RandomStream(1))
        assert chain.steps == 500
        assert chain.samples.shape == (500, 3) and chain.log_post.shape == (500,)
        assert chain.accepted.shape == (500,) and chain.accepted.dtype == bool
        assert chain.mode.shape == (3,) and chain.mode_log_post.shape == ()
        assert 0.0 <= chain.acceptance_rate() <= 1.0

    def test_adaptation_starts_at_a_block_end(self):
        """An adapt_start between block ends adapts from the next one."""
        def run(adapt_start):
            return adaptive_metropolis(_gaussian, np.zeros(2), 600, adapt_start,
                                       RandomStream(5)).samples

        assert AM_BLOCK == 20
        assert np.array_equal(run(101), run(120))
        assert np.array_equal(run(120)[:100], run(100)[:100])
        assert not np.array_equal(run(120)[:120], run(100)[:120])

    def test_fixed_seed_reproducible(self):
        def target(x):
            return -0.5 * float(x @ x)

        a = adaptive_metropolis(target, np.zeros(2), 2_000, 200, RandomStream(3))
        b = adaptive_metropolis(target, np.zeros(2), 2_000, 200, RandomStream(3))
        np.testing.assert_array_equal(a.samples, b.samples)


class TestMergeBlock:
    def test_moments_of_the_initial_state_and_every_block(self):
        """Merged block by block, the mean and m2/(n-1) are those of all the
        states at once."""
        rng = RandomStream(34).generator()
        init = rng.standard_normal(3)
        seen, mean, m2 = 1, init.copy(), np.zeros((3, 3))
        states = [init[None]]
        for _ in range(30):
            size = int(rng.integers(1, 41))
            block = 5.0 + rng.standard_normal((size, 3)) * [1.0, 0.1, 3.0]
            seen, mean, m2 = _merge_block(seen, mean, m2, block)
            states.append(block)
            every = np.vstack(states)
            assert seen == every.shape[0]
            np.testing.assert_allclose(mean, np.mean(every, axis=0), rtol=1e-12)
            np.testing.assert_allclose(m2 / (seen - 1), np.cov(every.T), rtol=1e-12)


class CountingTarget:
    """A target that counts its calls and the calls that return -inf."""

    def __init__(self, target):
        self.target, self.calls, self.neginf = target, 0, 0

    def __call__(self, x):
        self.calls += 1
        lp = self.target(x)
        self.neginf += lp == -np.inf
        return lp


class TestAdaptiveMetropolisOracle:
    """The sampler against a plain implementation of its rule
    (``am_reference``), which stores every state: at each burn and thin,
    the retained states and log densities must be bitwise those
    ``burn_thin`` keeps of the reference's, the mode must be the first of
    its highest log densities, the accept flags must be its accepts, and
    the counts must be a counting target's and the reference's fallbacks;
    the target must be called once per step and at the initial state.  A
    state must move exactly where the reference accepted."""

    RETENTION = ((0, 1), (100, 2), (137, 7), (500, 20))

    @classmethod
    def assert_same_chain(cls, make_target, init, steps, adapt_start, seed,
                          initial_step=None):
        """Runs the reference once and the sampler at each of ``RETENTION``,
        each on a fresh ``make_target()``; returns the sampler's last chain."""
        ref = reference_adaptive_metropolis(make_target(), init, steps, adapt_start,
                                            RandomStream(seed),
                                            initial_step=initial_step)
        before = np.vstack([init, ref.samples[:-1]])  # step 0 moves from init
        assert np.array_equal((ref.samples != before).any(axis=1), ref.accepted)
        best = int(np.argmax(ref.log_post))
        for burn, thin in cls.RETENTION:
            target = CountingTarget(make_target())
            new = adaptive_metropolis(target, init, steps, adapt_start,
                                      RandomStream(seed), initial_step=initial_step,
                                      burn=burn, thin=thin)
            samples, log_post = burn_thin(ref, burn, thin)
            assert np.array_equal(new.samples, samples)
            assert np.array_equal(new.log_post, log_post)
            assert np.array_equal(new.mode, ref.samples[best])
            assert new.mode_log_post == ref.log_post[best]
            assert np.array_equal(new.accepted, ref.accepted)
            assert new.steps == steps
            assert target.calls == new.steps + 1
            assert new.target_neginf == target.neginf
            assert new.chol_fallbacks == ref.chol_fallbacks
            for after in (0, 1, 2, adapt_start, steps - 1):
                assert new.acceptance_rate(after) == ref.accepted[max(after, 1):].mean()
        return new

    def test_correlated_gaussian(self):
        prec = np.linalg.inv(np.array([[1.0, 0.8], [0.8, 1.0]]))

        def target(x):
            return -0.5 * float(x @ prec @ x)

        chain = self.assert_same_chain(lambda: target, np.zeros(2), 5_000, 500, 31)
        assert 0.1 < chain.acceptance_rate(500) < 0.9

    def test_box_with_minus_inf_region(self):
        def target(x):
            return 0.0 if np.all(np.abs(x) <= 1.0) else -np.inf

        chain = self.assert_same_chain(lambda: target, np.zeros(3), 5_000, 500, 32,
                                       initial_step=np.full(3, 0.8))
        assert chain.acceptance_rate() < 1.0  # proposals fell outside the box
        assert chain.target_neginf > 0

    def test_bundled_log_posterior(self, dataset, gps):
        target = FixedTerms.build(dataset, *gps)
        step0 = (PRIOR_UPPER - PRIOR_LOWER) / 10.0
        chain = self.assert_same_chain(lambda: target, PRIOR_NOMINAL, 3_000, 1_000, 33,
                                       initial_step=step0)
        assert chain.acceptance_rate(1_000) > 0.0  # the adapted proposal moved

    def test_step_0_accepts_a_downhill_proposal(self):
        """Every state but the initial one is below it and is nearly always
        taken, so the initial state, which is not stored, is no mode."""
        def target(x):
            return -1e-3 * (1.0 + float(x @ x)) if x.any() else 0.0

        chain = self.assert_same_chain(lambda: target, np.zeros(2), 2_000, 200, 34)
        assert chain.accepted[0] and chain.mode_log_post < 0.0

    def test_rank_deficient_block_covariance_falls_back(self):
        """The chain visits three states, the initial one and two taken
        proposals, which span a plane in 3-d; at a scale of 1e8 the rounding
        of that rank-2 covariance outweighs the 1e-10 regularizer, and the
        factor fails at block ends."""
        def make_target():
            calls = 0

            def target(x):
                nonlocal calls
                calls += 1
                return 0.0 if calls <= 3 else -np.inf
            return target

        chain = self.assert_same_chain(make_target, np.zeros(3), 3_000, 200, 0,
                                       initial_step=np.full(3, 1e8))
        assert chain.chol_fallbacks > 0


class TestBurnThin:
    """The sampler keeps the states of steps burn, burn + thin, ... and
    every step's accept flag."""

    def test_paper_schedule_keeps_2000(self):
        chain = adaptive_metropolis(_gaussian, np.zeros(2), 50_000, 1_000,
                                    RandomStream(9), burn=10_000, thin=20)
        assert chain.samples.shape == (2_000, 2) and chain.log_post.shape == (2_000,)
        assert chain.steps == 50_000

    def test_identity(self):
        """The defaults, burn 0 and thin 1, keep every state."""
        chain = adaptive_metropolis(_gaussian, np.zeros(2), 300, 100, RandomStream(9))
        ref = reference_adaptive_metropolis(_gaussian, np.zeros(2), 300, 100,
                                            RandomStream(9))
        assert np.array_equal(chain.samples, ref.samples)
        assert np.array_equal(chain.log_post, ref.log_post)

    def test_burn_too_large(self):
        for burn in (200, 201, -1):
            with pytest.raises(ValueError, match="burn"):
                adaptive_metropolis(_gaussian, np.zeros(2), 200, 100, RandomStream(0),
                                    burn=burn)

    def test_thin_below_one(self):
        with pytest.raises(ValueError, match="thin"):
            adaptive_metropolis(_gaussian, np.zeros(2), 200, 100, RandomStream(0),
                                thin=0)

    @given(st.integers(101, 400), st.integers(0, 399), st.integers(1, 50))
    @settings(max_examples=30, deadline=None)
    def test_length_formula(self, steps, burn, thin):
        if burn >= steps:
            return
        chain = adaptive_metropolis(_gaussian, np.zeros(1), steps, 100,
                                    RandomStream(0), burn=burn, thin=thin)
        assert chain.samples.shape[-2] == (steps - burn - 1) // thin + 1
        assert chain.accepted.shape == (steps,)


def _dummy_samples(steps):
    return RandomStream(99).generator().random((steps, 2))


class TestAutocorrelation:
    def test_lag_zero_is_one(self):
        rng = RandomStream(5).generator()
        acf = autocorrelation(rng.standard_normal(500), 10)
        assert acf[0] == 1.0

    def test_white_noise_band(self):
        rng = RandomStream(6).generator()
        acf = autocorrelation(rng.standard_normal(10_000), 50)
        inside = np.abs(acf[1:]) < 3.0 / np.sqrt(10_000)
        assert inside.mean() >= 0.95

    def test_ar1_decay(self):
        rng = RandomStream(7).generator()
        n = 100_000
        x = np.empty(n)
        x[0] = 0.0
        eps = rng.standard_normal(n)
        for i in range(1, n):
            x[i] = 0.9 * x[i - 1] + eps[i]
        acf = autocorrelation(x, 10)
        np.testing.assert_allclose(acf, 0.9 ** np.arange(11), atol=0.05)

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError):
            autocorrelation(np.ones(100), 5)


def _summary_arrays(samples) -> dict:
    """``summarize``'s document with each value as an array."""
    return {key: np.asarray(value) for key, value in summarize(samples).items()}


class TestSummarize:
    def test_iid_uniform_summary(self):
        s = _summary_arrays(RandomStream(8).generator().random((2_000, 2)))
        assert s["mean"][0] == pytest.approx(0.5, abs=0.02)
        assert s["ci_lower"][0] == pytest.approx(0.025, abs=0.03)
        assert s["ci_upper"][0] == pytest.approx(0.975, abs=0.03)
        assert np.all(s["ci_lower"] < s["ci_upper"])
        assert np.all((s["ess"] > 0) & (s["ess"] <= 2_000))

    def test_constant_chain(self):
        s = _summary_arrays(np.full((100, 2), 3.0))
        assert np.all(s["std"] == 0.0)
        assert np.all(s["ci_lower"] == 3.0)
        assert np.all(s["ci_upper"] == 3.0)

    def test_stuck_chains_count_one_draw_each(self):
        """A chain that never moves holds one effective draw, not all of them."""
        assert effective_sample_size(np.full(1_000, 3.0)) == 1.0
        assert summarize(np.full((2, 100, 2), 3.0))["ess"] == [2.0, 2.0]

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="50"):
            summarize(_dummy_samples(10))


def _gaussian(x):
    return -0.5 * float(x @ x)


class TestRunChains:
    def test_each_chain_is_adaptive_metropolis_on_its_stream(self):
        stream = RandomStream(16)
        step0 = np.full(3, 0.5)
        for burn, thin in ((0, 1), (137, 7)):
            chains = run_chains(_gaussian, np.zeros(3), 800, 100, stream, step0,
                                burn=burn, thin=thin)
            assert chains.samples.shape == (CHAINS, len(range(burn, 800, thin)), 3)
            assert chains.accepted.shape == (CHAINS, 800) and chains.steps == 800
            for k in range(CHAINS):
                alone = adaptive_metropolis(_gaussian, np.zeros(3), 800, 100,
                                            stream.split(k) if k else stream, step0,
                                            burn=burn, thin=thin)
                for field in dataclasses.fields(PosteriorChain):
                    expected = getattr(alone, field.name)
                    got = getattr(chains, field.name)[k]
                    assert got.dtype == expected.dtype, field.name
                    np.testing.assert_array_equal(got, expected, err_msg=field.name)
            assert not np.array_equal(chains.samples[0], chains.samples[1])

    @pytest.mark.parametrize("target", [
        _gaussian, lambda x: 0.0 if np.all(np.abs(x) <= 1.0) else -np.inf],
        ids=["gaussian", "flat-box"])
    def test_mode_is_the_first_best_pooled_state(self, target):
        """The mode is the state ``argmax`` finds first over every chain's
        states in turn, chain 0's first: on the flat box every state ties,
        and chain 0's step-0 state wins."""
        chains = run_chains(target, np.zeros(3), 600, 100, RandomStream(17))
        pooled = chains.pooled_samples()
        first = pooled[int(np.argmax(chains.log_post.reshape(-1)))]
        assert np.array_equal(chains.posterior_mode(), first)

    def test_failure_in_worker_names_its_chain(self, capsys):
        parent = os.getpid()

        def target(x):
            if os.getpid() != parent:
                raise NumericsError("boom in the worker")
            return _gaussian(x)

        with pytest.raises(ChainWorkerError, match="chain 1 .*NumericsError: "
                           "boom in the worker") as err:
            run_chains(target, np.zeros(2), 500, 100, RandomStream(3))
        assert err.value.chain == 1
        assert type(err.value.__cause__) is NumericsError
        try:
            raise StageError("calibrate", str(err.value)) from err.value
        except StageError as exc:
            with pytest.raises(SystemExit):
                cli._fail(exc)
        assert capsys.readouterr().err.startswith("error:numerics: stage 'calibrate'")

    def test_unpicklable_failure_in_worker_gives_its_exit_code(self):
        parent = os.getpid()

        class LocalError(Exception):  # a local class does not pickle
            pass

        def target(x):
            if os.getpid() != parent:
                raise LocalError("boom in the worker")
            return _gaussian(x)

        with pytest.raises(ChainWorkerError, match="chain 1 .*exited with code 1"):
            run_chains(target, np.zeros(2), 500, 100, RandomStream(3))

    def test_failure_in_chain_0_reaps_the_worker(self):
        parent = os.getpid()
        calls = 0

        def target(x):
            nonlocal calls
            if os.getpid() == parent:
                calls += 1
                if calls > 50:
                    raise FloatingPointError("boom in chain 0")
            return _gaussian(x)

        with pytest.raises(FloatingPointError, match="chain 0"):
            run_chains(target, np.zeros(2), 200_000, 100, RandomStream(4))
        assert multiprocessing.active_children() == []


class TestSplitRhat:
    def test_iid_chains_near_one(self):
        draws = RandomStream(20).generator().standard_normal((2, 1_000))
        assert split_rhat(draws) < 1.01

    def test_chains_one_sd_apart(self):
        draws = RandomStream(21).generator().standard_normal((2, 1_000))
        draws[1] += 1.0
        assert split_rhat(draws) > 1.1

    def test_invariant_under_monotone_transform(self):
        draws = RandomStream(22).generator().standard_normal((2, 501))
        draws[1] += 0.3
        assert split_rhat(np.exp(3.0 * draws) - 7.0) == split_rhat(draws)

    def test_all_equal_draws(self):
        assert split_rhat(np.full((2, 100), 3.0)) == 1.0

    def test_summary_pools_chains(self):
        rng = RandomStream(23).generator()
        chains = rng.standard_normal((2, 400, 3))
        s = _summary_arrays(chains)
        for j in range(3):
            assert s["ess"][j] == sum(effective_sample_size(chains[k, :, j])
                                      for k in range(2))
            assert s["rhat"][j] == split_rhat(chains[:, :, j])
        np.testing.assert_array_equal(s["mean"], chains.reshape(-1, 3).mean(axis=0))
        assert s["retained"] == 800


class TestChainSerialization:
    @pytest.fixture(scope="class")
    def chains(self):
        init = PRIOR_NOMINAL

        def target(x):
            z = (x - init) / init
            return -0.5 * float(z @ z)

        return run_chains(target, init, 500, 100, RandomStream(16), burn=100, thin=4)

    def test_round_trip(self, chains, tmp_path):
        path = tmp_path / "chain.npz"
        save_chain(chains, path)
        back = load_chain(path)
        for field in dataclasses.fields(PosteriorChain):
            expected, got = getattr(chains, field.name), getattr(back, field.name)
            assert got.dtype == expected.dtype, field.name
            np.testing.assert_array_equal(got, expected, err_msg=field.name)

    def test_npz_arrays(self, chains, tmp_path):
        path = tmp_path / "chain.npz"
        save_chain(chains, path)
        with np.load(path) as arrays:
            assert sorted(arrays.files) == sorted(
                field.name for field in dataclasses.fields(PosteriorChain))
            assert arrays["samples"].shape == (2, 100, 8)
            assert arrays["accepted"].shape == (2, 500)
            assert arrays["mode"].shape == (2, 8)
            assert arrays["target_neginf"].shape == (2,)
        arrays = {field.name: getattr(chains, field.name)
                  for field in dataclasses.fields(PosteriorChain)}
        np.savez(path, **{**arrays, "extra": np.zeros(2)})
        with pytest.raises(ValueError, match="unexpected chain arrays"):
            load_chain(path)
        # as older versions wrote it: every state, and no flags, mode or counts
        np.savez(path, samples=chains.samples, log_post=chains.log_post)
        with pytest.raises(ValueError, match="unexpected chain arrays"):
            load_chain(path)
        # as the previous version wrote it: the target calls, always steps + 1
        np.savez(path, **arrays, target_calls=np.full(2, 501))
        with pytest.raises(ValueError, match="unexpected chain arrays"):
            load_chain(path)
        # one chain without the leading chain axis
        np.savez(path, **{name: array[0] for name, array in arrays.items()})
        with pytest.raises(ValueError, match="inconsistent chain array shapes"):
            load_chain(path)
        # the log densities of other states than those stored
        np.savez(path, **{**arrays, "log_post": arrays["log_post"][:, 1:]})
        with pytest.raises(ValueError, match="inconsistent chain array shapes"):
            load_chain(path)


class TestFixedTermsTarget:
    """``FixedTerms`` called on theta, the target the sampler calls."""

    def test_closure_matches_direct_call(self, dataset, gps, monkeypatch):
        target = FixedTerms.build(dataset, *gps)
        theta = PRIOR_NOMINAL
        assert target(theta) == posterior_at(theta, dataset, gps)
        # through the module's name, so that a wrapper of it sees every call
        calls = []
        monkeypatch.setattr(inference, "log_posterior",
                            lambda t, fixed: calls.append(fixed) or 0.0)
        assert target(theta) == 0.0 and calls[0] is target

    def test_non_finite_theta_raises(self, dataset, gps):
        target = FixedTerms.build(dataset, *gps)
        theta = PRIOR_NOMINAL.copy()
        theta[2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            target(theta)
