#!/usr/bin/env python3
"""Per-call timings of the calibration chain's layers on the bundled GPs.

Fits the two surrogates on the bundled dataset (10 samples per condition,
as the pipeline does by default), then times, per call:

* one reduced forward-model evaluation, ``evaluate_reduced`` at the
  nominal theta and the bundled condition 1, at the default settings:
  ``forward_eval_us``; and ``forward_eval_prior_us``, the mean per call
  over the 13 bundled conditions at each of 4 prior draws, the traffic
  the design stage sends the model;
* the GP negative log marginal likelihood and its gradient, as an L-BFGS
  start calls it (one set of buffers for every call, on one BLAS thread),
  at the fitted length hyperparameters of the bundled design (N=130) and
  of a design with 20 samples per condition (N=260): ``nlml_n130_us`` and
  ``nlml_n260_us`` on one thread, and ``nlml2t_n130_us`` and
  ``nlml2t_n260_us``, the wall time per call of two threads that each
  call their own likelihood, as a fit's two workers do.  Two threads
  overlap only the calls that release the GIL, so the second pair shows
  what a split of those calls costs or gains on two threads;
* ``kinv_n130_us`` and ``kinv_n260_us``: the likelihood's K^-1 alone,
  ``surrogate._dpotri`` on the same GPs' Cholesky factors, on one thread,
  the copy of the factor into its buffer before each call not counted;
* the GP fits of both outputs, one after the other as the ``train`` stage
  runs them, in seconds: ``train_n130_s`` on the bundled design and
  ``train_n260_s`` on the N=260 design, their starts on
  ``surrogate.FIT_WORKERS`` threads.  Under threads a
  tracer's per-call NLML time includes waits for the GIL, so this is where
  the parallel fit is measured;
* the same fits' peak memory as tracemalloc sees it, in MB:
  ``train_n130_peak_mb`` and ``train_n260_peak_mb``, one traced run each.
  These do not drift with the host's speed, as the times do;
* the conditioned GPs' two callers: ``ConditionedGp.predict`` at an
  in-box theta, both outputs in one call as the log posterior makes it,
  and ``ConditionedGp.averaged_mean`` of one output on a 256-row batch of
  prior draws, the chunk sensitivity analysis takes;
* the log posterior at an in-box and an out-of-box theta, through the
  ``FixedTerms`` target the sampler calls;
* the adaptive-Metropolis loop's own cost per step, on an 8-d standard
  normal target whose per-call time is subtracted, keeping every
  ``thin``-th state after ``burn`` as the calibration does;
* the calibration's chains on the bundled target, at the default ``mcmc``
  counts: ``chains_two_s`` runs two 25k-step chains through
  ``run_chains``, the second in a forked worker, and ``chain_one_s`` one
  50k-step chain in this process, with twice the burn-in.  A tracer in
  this process sees only chain 0, so this is where the parallel layer is
  measured.  ``chains_two_peak_mb`` is the peak of the memory tracemalloc
  sees ``run_chains`` allocate in this process, the worker's not included;
* ``save_chain`` and ``load_chain`` on two synthetic chains of the shape
  the pipeline writes at the defaults: 1000 retained states and 25k accept
  flags each.
* ``pairs_grid_ms``: ``plots.pairs_grid`` on the same chains' 2000
  pooled states, the pairs figure and its CSV twin that ``report`` writes
  at the defaults, in ms per call.

The meltcal modules imported here pin the process to one BLAS thread
(``meltcal.blas``), so every figure is taken on one BLAS thread, as a run
takes it.  Each figure is the median over ``repeats`` batches.  Prints
one JSON line.

Usage: PYTHONPATH=src python3 scripts/bench_layers.py [repeats]
"""

import json
import statistics
import sys
import tempfile
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from meltcal.doe import build_training_set
from meltcal.domain import (
    CalibrationParams,
    PARAM_NAMES,
    PRIOR_LOWER,
    PRIOR_NOMINAL,
    PRIOR_UPPER,
    RandomStream,
    bundled_dataset_path,
    load_dataset,
)
from meltcal.forward import evaluate_reduced
from meltcal.inference import (
    FixedTerms,
    PosteriorChain,
    adaptive_metropolis,
    load_chain,
    run_chains,
    save_chain,
)
from meltcal.pipeline import McmcConfig
from meltcal.plots import pairs_grid
from meltcal.surrogate import (
    ConditionedGp,
    _dpotri,
    _Likelihood,
    _PairDistances,
    fit_gp,
)


def fit_both(ts) -> tuple:
    """The length and depth GPs on ``ts``, one after the other."""
    return (fit_gp(ts, "length", RandomStream(1)),
            fit_gp(ts, "depth", RandomStream(2)))


def per_call_us(fn, calls: int, repeats: int) -> float:
    """Median over ``repeats`` batches of ``calls`` calls, in us per call."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls * 1e6)
    return statistics.median(times)


def peak_mb(fn) -> float:
    """The peak of the memory tracemalloc sees allocated during ``fn()``, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def seconds(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def fitted_nlml(ts, gp, starts: int = 1) -> list:
    """``starts`` calls of the NLML + gradient at ``gp``'s hyperparameters
    on ``ts``, each on its own start's buffers, as ``fit_gp`` makes them."""
    params = np.r_[np.log(gp.ell), np.log(gp.sf2), np.log(gp.sn2)]
    pairs = _PairDistances.build(ts.inputs_std())
    calls = []
    for _ in range(starts):
        likelihood = _Likelihood(gp.y_std, pairs)
        if likelihood(params)[0] >= 1e12:
            raise RuntimeError("kernel not positive definite at the fitted optimum")
        calls.append(lambda likelihood=likelihood: likelihood(params))
    return calls


def nlml_us(ts, gp, repeats: int) -> float:
    """Per-call NLML + gradient, on one start's buffers and one thread."""
    return per_call_us(fitted_nlml(ts, gp)[0], 200, repeats)


def nlml_two_threads_us(ts, gp, repeats: int) -> float:
    """Wall time per call of two threads making 200 calls each, each on its
    own start's buffers."""
    calls = fitted_nlml(ts, gp, starts=2)

    def run(call):
        for _ in range(200):
            call()

    with ThreadPoolExecutor(2) as pool:
        return 1e6 / 200 * seconds(lambda: list(pool.map(run, calls)), repeats)


def kinv_us(gp, repeats: int) -> float:
    """Per-call K^-1 from ``gp``'s Cholesky factor, the likelihood's entry
    on the buffer layout it uses; each call's copy of the factor into the
    buffer is not timed."""
    factor_t = np.ascontiguousarray(gp.chol.T)
    buf = np.empty_like(factor_t)
    times = []
    for _ in range(repeats):
        total = 0.0
        for _ in range(200):
            np.copyto(buf, factor_t)
            t0 = time.perf_counter()
            info = _dpotri(buf)
            total += time.perf_counter() - t0
            if info != 0:
                raise RuntimeError(f"K^-1 failed with info {info}")
        times.append(total / 200 * 1e6)
    return statistics.median(times)


def main() -> None:
    repeats = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    dataset = load_dataset(bundled_dataset_path())
    ts = build_training_set(dataset, 10, evaluate_reduced, RandomStream(0))
    gps = fit_both(ts)

    inbox = PRIOR_NOMINAL
    outbox = inbox.copy()
    outbox[0] = 2.0 * PRIOR_UPPER[0]
    both = ConditionedGp.build(gps, dataset.design_matrix())
    length = ConditionedGp.build(gps[:1], dataset.design_matrix())
    chunk = PRIOR_LOWER + (RandomStream(5).generator().random((256, 8))
                           * (PRIOR_UPPER - PRIOR_LOWER))
    target = FixedTerms.build(dataset, *gps)
    ts_dense = build_training_set(dataset, 20, evaluate_reduced, RandomStream(0))
    gp_dense = fit_gp(ts_dense, "length", RandomStream(1))
    condition_1 = dataset.rows[0].design
    nominal = CalibrationParams.from_array(PRIOR_NOMINAL)
    draws = [CalibrationParams.from_array(PRIOR_LOWER + u * (PRIOR_UPPER - PRIOR_LOWER))
             for u in RandomStream(6).generator().random((4, 8))]
    prior_traffic = [(row.design, theta) for row in dataset for theta in draws]
    out = {
        "forward_eval_us": per_call_us(lambda: evaluate_reduced(condition_1, nominal),
                                       100, repeats),
        "forward_eval_prior_us": per_call_us(
            lambda: [evaluate_reduced(*pair) for pair in prior_traffic], 2,
            repeats) / len(prior_traffic),
        "nlml_n130_us": nlml_us(ts, gps[0], repeats),
        "nlml_n260_us": nlml_us(ts_dense, gp_dense, repeats),
        "nlml2t_n130_us": nlml_two_threads_us(ts, gps[0], repeats),
        "nlml2t_n260_us": nlml_two_threads_us(ts_dense, gp_dense, repeats),
        "kinv_n130_us": kinv_us(gps[0], repeats),
        "kinv_n260_us": kinv_us(gp_dense, repeats),
        "train_n130_s": seconds(lambda: fit_both(ts), repeats),
        "train_n260_s": seconds(lambda: fit_both(ts_dense), repeats),
        "train_n130_peak_mb": peak_mb(lambda: fit_both(ts)),
        "train_n260_peak_mb": peak_mb(lambda: fit_both(ts_dense)),
        "predict_both_us": per_call_us(lambda: both.predict(inbox), 2000, repeats),
        "averaged_mean_256_us": per_call_us(lambda: length.averaged_mean(chunk),
                                            80, repeats),
        "logpost_inbox_us": per_call_us(lambda: target(inbox), 2000, repeats),
        "logpost_outbox_us": per_call_us(lambda: target(outbox), 20000, repeats),
    }

    def gauss(x):
        return -0.5 * float(x @ x)

    mcmc = McmcConfig()
    steps = 20_000
    z = np.zeros(8)
    gauss_us = per_call_us(lambda: gauss(z), steps, repeats)
    chain_s = seconds(lambda: adaptive_metropolis(
        gauss, z, steps, mcmc.adapt_start, RandomStream(3), burn=mcmc.burn,
        thin=mcmc.thin), repeats)
    out["am_overhead_us"] = chain_s / steps * 1e6 - gauss_us

    step0 = (PRIOR_UPPER - PRIOR_LOWER) / 10.0

    def chains_two():
        return run_chains(target, inbox, mcmc.steps, mcmc.adapt_start,
                          RandomStream(5), step0, burn=mcmc.burn, thin=mcmc.thin)

    out["chains_two_s"] = seconds(chains_two, repeats)
    out["chains_two_peak_mb"] = peak_mb(chains_two)
    out["chain_one_s"] = seconds(lambda: adaptive_metropolis(
        target, inbox, 2 * mcmc.steps, mcmc.adapt_start, RandomStream(5), step0,
        burn=2 * mcmc.burn, thin=mcmc.thin), repeats)

    rng = RandomStream(4).generator()
    retained = len(range(mcmc.burn, mcmc.steps, mcmc.thin))
    chain = PosteriorChain(
        samples=PRIOR_LOWER + rng.random((2, retained, 8)) * (PRIOR_UPPER - PRIOR_LOWER),
        log_post=-300.0 + rng.standard_normal((2, retained)),
        accepted=rng.random((2, mcmc.steps)) < 0.25,
        mode=np.tile(inbox, (2, 1)), mode_log_post=np.full(2, -250.0),
        target_neginf=np.full(2, 3 * mcmc.steps // 4), chol_fallbacks=np.zeros(2, int))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "chain.npz"
        out["save_chain_s"] = seconds(lambda: save_chain(chain, path), repeats)
        out["load_chain_s"] = seconds(lambda: load_chain(path), repeats)
        pooled, svg = chain.pooled_samples(), Path(tmp) / "posterior_pairs.svg"
        out["pairs_grid_ms"] = 1e3 * seconds(
            lambda: pairs_grid(pooled, PARAM_NAMES, svg), repeats)
    print(json.dumps({k: round(v, 3) for k, v in out.items()}))


if __name__ == "__main__":
    main()
