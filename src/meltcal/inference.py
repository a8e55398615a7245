"""Bayesian inverse UQ: posterior density, adaptive Metropolis sampling,
and chain post-processing.

The likelihood stacks residuals between measured pool sizes and the GP
surrogate mean over (conditions x both outputs), with a diagonal
covariance of experimental noise plus the GP predictive variance (the
code-uncertainty term).  Model discrepancy is taken as zero.  A row's
experimental sigma is its own where the dataset gives one, else
``NOISE_FRACTION`` of the measured value, at least ``NOISE_FLOOR``.

The calibrate stage keys on this module's source and on nothing of the
package that its upstream stages do not key, so every rule a calibration
computes with lives here: the noise rule and the sampler.  The stage's
result is the chain alone; its summary, split-R-hat included, is computed
from the chain each time the report is built.  The rank transform of
``split_rhat`` lives here too, and ``sensitivity`` imports it for
Spearman's correlation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import ndtri

from .domain import (
    ExperimentalDataset,
    PARAM_NAMES,
    PRIOR_LOWER,
    PRIOR_UPPER,
    RandomStream,
)
from .surrogate import ConditionedGp, GpSurrogate

__all__ = [
    "PosteriorChain",
    "experimental_sigmas",
    "FixedTerms",
    "log_posterior",
    "adaptive_metropolis",
    "CHAINS",
    "ChainWorkerError",
    "chains_peak_bytes",
    "run_chains",
    "autocorrelation",
    "effective_sample_size",
    "split_rhat",
    "summarize",
    "save_chain",
    "load_chain",
]

AM_SCALE = 2.38**2  # canonical adaptive-Metropolis proposal scaling / d
AM_REGULARIZER = 1e-10
# Steps between updates of the proposal's moments and factor.
AM_BLOCK = 20
# Fewest retained states per chain that summarize accepts.
MIN_RETAINED = 50
# Chains per calibration.  A constant, not a setting and not the host's core
# count, so that a run's bytes do not depend on the machine.
CHAINS = 2
# Experimental sigma of a row without sigma columns: this fraction of the
# measured value, at least the floor.
NOISE_FRACTION = 0.05
NOISE_FLOOR = 1e-5  # m


def experimental_sigmas(dataset: ExperimentalDataset) -> np.ndarray:
    """(n, 2) measurement standard deviations; explicit per-row sigmas win
    over the relative rule."""
    sig = np.empty((len(dataset), 2))
    for i, row in enumerate(dataset):
        sig[i, 0] = (row.length_sigma if row.length_sigma is not None
                     else max(NOISE_FRACTION * row.length, NOISE_FLOOR))
        sig[i, 1] = (row.depth_sigma if row.depth_sigma is not None
                     else max(NOISE_FRACTION * row.depth, NOISE_FLOOR))
    return sig


@dataclass(frozen=True)
class FixedTerms:
    """The parts of the log posterior that do not depend on theta, and the
    target the sampler calls.

    For length and depth, the GPs conditioned on the dataset's designs, the
    measurements and the experimental variances, as (outputs, conditions)
    arrays.  Called on theta, it returns
    ``log_posterior(theta, self)``.
    """

    gps: ConditionedGp
    y: np.ndarray
    s2: np.ndarray

    @classmethod
    def build(cls, dataset: ExperimentalDataset, gp_length: GpSurrogate,
              gp_depth: GpSurrogate) -> "FixedTerms":
        gps = ConditionedGp.build([gp_length, gp_depth], dataset.design_matrix())
        return cls(gps=gps, y=dataset.measurements().T,
                   s2=(experimental_sigmas(dataset) ** 2).T)

    def __call__(self, theta: np.ndarray) -> float:
        # the module-level name, so that whatever wraps it sees every call
        return log_posterior(theta, self)


def log_posterior(theta: np.ndarray, fixed: FixedTerms) -> float:
    """Unnormalized log posterior at an 8-vector (raw units).

    -inf outside the prior box; inside, a diagonal Gaussian over the
    stacked residuals with variance sigma_exp^2 + var_GP.  ``fixed`` holds
    the terms that do not depend on theta (``FixedTerms.build``).  The
    value does not depend on the order of the dataset's rows: each row's
    terms are computed independently of the others and summed exactly.
    """
    theta = np.asarray(theta, float)
    # most proposals land outside the box; a NaN passes this test and
    # raises in predict
    if (theta < PRIOR_LOWER).any() or (theta > PRIOR_UPPER).any():
        return -np.inf
    mean, var = fixed.gps.predict(theta)
    variance = fixed.s2 + var
    r = fixed.y - mean
    return -0.5 * math.fsum(np.log(variance).ravel().tolist()
                            + (r**2 / variance).ravel().tolist())


@dataclass(frozen=True)
class PosteriorChain:
    """What a run of the sampler keeps.

    The retained states are those of steps ``burn``, ``burn + thin``, ...
    (repeats on rejection included), with their log densities.  The accept
    flags cover every step, and the mode is the first state of highest log
    density over every step, burn-in included.  The counts say what the
    run did: its calls of the target that returned -inf, of ``steps + 1``
    calls in all, and the block ends whose proposal covariance failed to
    factor.  One chain's arrays have the shapes below; chains run side
    by side (``run_chains``) add a leading chain axis.
    """

    samples: np.ndarray         # (retained, d) raw units
    log_post: np.ndarray        # (retained,)
    accepted: np.ndarray        # (steps,) bool, True where the proposal was taken
    mode: np.ndarray            # (d,)
    mode_log_post: np.ndarray   # ()
    target_neginf: np.ndarray   # () int
    chol_fallbacks: np.ndarray  # () int

    @property
    def steps(self) -> int:
        """Steps run per chain; ``samples.shape[-2]`` of them are retained."""
        return self.accepted.shape[-1]

    def acceptance_rate(self, after: int = 0) -> float:
        """Share of the steps t >= max(after, 1), over every chain, whose
        proposal was taken."""
        return float(self.accepted[..., max(after, 1):].mean())

    def pooled_samples(self) -> np.ndarray:
        """Every chain's retained states in turn, chain 0's first."""
        return self.samples.reshape(-1, self.samples.shape[-1])

    def posterior_mode(self) -> np.ndarray:
        """The first state of highest log density, chain 0's first."""
        modes = self.mode.reshape(-1, self.mode.shape[-1])
        return modes[int(np.argmax(self.mode_log_post.reshape(-1)))]


_CHAIN_ARRAYS = tuple(f.name for f in fields(PosteriorChain))


def _merge_block(seen: int, mean: np.ndarray, m2: np.ndarray,
                 block: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """Fold the (k, d) states ``block`` into the count, mean and sum of
    squared deviations of ``seen`` states, by the pairwise formula of Chan,
    Golub & LeVeque (1983); returns the merged count, mean and sum."""
    k = block.shape[0]
    n = seen + k
    block_mean = block.mean(axis=0)
    dev = block - block_mean
    delta = block_mean - mean
    m2 = m2 + dev.T @ dev + np.outer(delta, delta) * (seen * k / n)
    return n, mean + delta * (k / n), m2


def adaptive_metropolis(target: Callable[[np.ndarray], float], init: np.ndarray,
                        steps: int, adapt_start: int, stream: RandomStream,
                        initial_step: np.ndarray | None = None,
                        burn: int = 0, thin: int = 1) -> PosteriorChain:
    """Random-walk Metropolis with empirical-covariance adaptation in blocks.

    The proposal covariance is diagonal (initial_step^2 per dimension,
    defaulting to 1/100 of unit scale squared) until adaptation starts, and
    afterwards (2.38^2/d) * covariance + 1e-10 I, the covariance being that
    of the initial state and every visited state so far.  The moments are
    brought up to date, and the proposal refreshed, every ``AM_BLOCK``
    steps: at the end of each block of visited states, which is merged into
    the running mean and sum of squared deviations at once (Haario et al.
    2001 adapt at intervals too).  Adaptation starts at the first block end
    at or after ``adapt_start`` steps, so at ``adapt_start`` itself when
    ``AM_BLOCK`` divides it.  A proposal covariance that fails to factor
    gives the diagonal proposal until the next block end.

    The states of steps ``burn``, ``burn + thin``, ... are retained; the
    defaults keep every state.
    """
    init = np.asarray(init, float)
    d = init.size
    if not (steps > adapt_start >= 100):
        raise ValueError("need steps > adapt_start >= 100")
    if not (0 <= burn < steps):
        raise ValueError(f"burn {burn} must be in [0, steps {steps})")
    if thin < 1:
        raise ValueError("thin must be >= 1")
    lp0 = target(init)
    if not np.isfinite(lp0):
        raise ValueError("target is not finite at the initial state")
    if initial_step is None:
        initial_step = np.full(d, 0.1)
    diag0 = np.asarray(initial_step, float) ** 2

    rng = stream.generator()
    normal, uniform, log = rng.standard_normal, rng.random, np.log
    minus_inf = -math.inf
    sqrt_diag0 = np.sqrt(diag0)
    scale = AM_SCALE / d
    regularizer = AM_REGULARIZER * np.eye(d)
    retained = len(range(burn, steps, thin))
    samples = np.empty((retained, d))
    log_post = np.empty(retained)
    accepted = np.zeros(steps, dtype=bool)
    block = np.empty((AM_BLOCK, d))  # the visited states since the last block end
    current, lp = init.copy(), lp0
    mode, mode_lp = current, lp  # init is the step-0 state unless step 0 accepts
    keep, kept, filled, neginf, fallbacks = burn, 0, 0, 0, 0

    seen, mean, m2 = 1, current.copy(), np.zeros((d, d))  # init counts once
    chol = None
    for step in range(steps):
        if chol is None:
            proposal = current + normal(d) * sqrt_diag0
        else:
            proposal = current + chol @ normal(d)
        lp_prop = target(proposal)
        if log(uniform()) < lp_prop - lp:
            current, lp = proposal, lp_prop
            accepted[step] = True
            if lp > mode_lp or not step:
                mode, mode_lp = current, lp
        elif lp_prop == minus_inf:
            neginf += 1
        if step == keep:
            samples[kept] = current
            log_post[kept] = lp
            kept += 1
            keep += thin
        block[filled] = current
        filled += 1
        if filled < AM_BLOCK:
            continue
        filled = 0
        seen, mean, m2 = _merge_block(seen, mean, m2, block)
        if step + 1 >= adapt_start:
            try:
                chol = np.linalg.cholesky((scale / (seen - 1)) * m2 + regularizer)
            except np.linalg.LinAlgError:
                chol = None
                fallbacks += 1
    return PosteriorChain(samples=samples, log_post=log_post, accepted=accepted,
                          mode=np.array(mode), mode_log_post=np.array(mode_lp),
                          target_neginf=np.array(neginf),
                          chol_fallbacks=np.array(fallbacks))


class ChainWorkerError(RuntimeError):
    """A chain run in a worker process failed; names the chain and the cause."""

    def __init__(self, chain: int, cause: str):
        super().__init__(f"chain {chain} failed in its worker process: {cause}")
        self.chain = chain


def chains_peak_bytes(retained: int, steps: int) -> int:
    """Peak bytes of the chains ``run_chains`` holds at once, each of
    ``retained`` states and ``steps`` accept flags.

    A chain keeps each retained state with its log posterior, and one
    accept flag per step.  ``run_chains`` peaks at 3 * CHAINS - 1 chains
    while the last worker's message arrives: this process holds every
    earlier chain, the message and the chain read from it, and each worker
    its chain and that chain pickled.  The joined result comes after the
    workers exit, at 2 * CHAINS.
    """
    return (3 * CHAINS - 1) * (retained * (len(PARAM_NAMES) + 1) * 8 + steps)


def run_chains(target: Callable[[np.ndarray], float], init: np.ndarray,
               steps: int, adapt_start: int, stream: RandomStream,
               initial_step: np.ndarray | None = None,
               burn: int = 0, thin: int = 1) -> PosteriorChain:
    """``CHAINS`` adaptive-Metropolis chains from ``init``, run side by side.

    Chain 0 runs ``adaptive_metropolis`` on ``stream`` in this process.
    Chain k >= 1 runs it on ``stream.split(k)`` at the same time, in a
    worker forked from this process, and sends the chain back pickled, in
    one message through a pipe.  Forking, not spawning, lets the worker
    call the same ``target`` and its conditioned GPs without pickling them.
    The only threads meltcal starts are ``fit_gp``'s, and it joins them
    before it returns, so none is running at the fork.  Each chain is
    bitwise what ``adaptive_metropolis`` gives on its stream, at any
    scheduling of the workers.  The result stacks each array of the chains
    along a leading chain axis, in chain order.  The workers inherit this
    process's pin to one BLAS thread (``blas``), so the processes do not
    contend for cores through it.

    A worker's failure is a ``ChainWorkerError`` naming the chain, raised
    from the worker's exception; a worker that dies without sending one, or
    whose exception does not pickle, is named by its exit code.  Every
    worker is joined before this returns or raises; one still running when
    chain 0 fails is terminated first.
    """
    import multiprocessing  # here: only a calibration needs it

    ctx = multiprocessing.get_context("fork")
    init = np.asarray(init, float)

    def run(k: int) -> PosteriorChain:
        return adaptive_metropolis(target, init, steps, adapt_start,
                                   stream.split(k) if k else stream, initial_step,
                                   burn, thin)

    def work(k: int, pipe) -> None:
        try:
            chain = run(k)
        except Exception as exc:
            pipe.send(exc)  # one that does not pickle ends the worker here
            raise SystemExit(1) from None
        pipe.send(chain)

    workers = []
    try:
        for k in range(1, CHAINS):
            pipe, sender = ctx.Pipe(duplex=False)
            worker = ctx.Process(target=work, args=(k, sender),
                                 name=f"meltcal-chain-{k}")
            worker.start()
            workers.append((worker, pipe))
            sender.close()  # so that a worker's death reads as EOF
        chains = [run(0)]
        for k, (worker, pipe) in enumerate(workers, 1):
            try:
                sent = pipe.recv()
            except EOFError:
                worker.join()
                raise ChainWorkerError(
                    k, f"worker exited with code {worker.exitcode}") from None
            if isinstance(sent, Exception):
                raise ChainWorkerError(k, f"{type(sent).__name__}: {sent}") from sent
            chains.append(sent)
    finally:
        for worker, pipe in workers:
            if worker.is_alive():
                worker.terminate()
            worker.join()
            pipe.close()
    return PosteriorChain(**{name: np.stack([getattr(chain, name) for chain in chains])
                             for name in _CHAIN_ARRAYS})


def autocorrelation(series: np.ndarray, max_lag: int) -> np.ndarray:
    """Normalized autocovariance, biased (divide-by-n) convention.

    Returns acf[0..max_lag] with acf[0] = 1.
    """
    series = np.asarray(series, float)
    n = series.size
    if not (n > max_lag >= 1):
        raise ValueError("need series length > max_lag >= 1")
    x = series - series.mean()
    c0 = (x**2).sum() / n
    if c0 == 0.0:
        raise ValueError("autocorrelation undefined for constant series")
    acf = np.empty(max_lag + 1)
    for k in range(max_lag + 1):
        acf[k] = (x[: n - k] * x[k:]).sum() / n / c0
    return acf


def effective_sample_size(series: np.ndarray) -> float:
    """ESS via the initial positive sequence on paired autocorrelations.

    A constant series, a chain that never moved, counts as one draw: the
    estimator's floor, and its limit as the autocorrelation tends to 1.
    """
    n = series.size
    if np.all(series == series[0]):
        return 1.0
    acf = autocorrelation(series, min(n - 1, 2 * int(np.sqrt(n)) + 50))
    total = 0.0
    t = 1
    while t + 1 < acf.size:
        pair = acf[t] + acf[t + 1]
        if pair <= 0.0:
            break
        total += pair
        t += 2
    ess = n / (1.0 + 2.0 * total)
    return float(min(max(ess, 1.0), n))


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-d sample, ties sharing their average rank.

    ``scipy.stats.rankdata`` with its defaults, NaN propagating to every
    rank, without importing ``scipy.stats``.
    """
    x = np.asarray(x, float).ravel()
    if np.isnan(x).any():
        return np.full(x.size, np.nan)
    order = np.argsort(x, kind="mergesort")
    xs = x[order]
    first = np.r_[True, xs[1:] != xs[:-1]]      # each tie group's first place
    group = np.cumsum(first)                    # 1-based tie group, sorted order
    bounds = np.r_[np.flatnonzero(first), x.size]
    ranks = np.empty(x.size)
    ranks[order] = 0.5 * (bounds[group] + bounds[group - 1] + 1)
    return ranks


def split_rhat(draws: np.ndarray) -> float:
    """Rank-normalised split-R-hat of one parameter (Vehtari et al. 2021,
    bulk form).

    ``draws`` is (chains, n).  Each chain is split into halves, its middle
    draw dropped when n is odd; the pooled draws are replaced by the normal
    scores of their average ranks, and R-hat is the potential scale
    reduction of those scores over the half chains.  Draws that are all
    equal give 1.0.
    """
    draws = np.asarray(draws, float)
    half = draws.shape[1] // 2
    if half < 2:
        raise ValueError("split R-hat needs at least 4 draws per chain")
    split = np.concatenate([draws[:, :half], draws[:, -half:]])
    z = ndtri((_average_ranks(split.ravel()) - 0.375)
              / (split.size + 0.25)).reshape(split.shape)
    within = z.var(axis=1, ddof=1).mean()
    between = z.mean(axis=1).var(ddof=1)
    if within == 0.0:
        return 1.0 if between == 0.0 else math.inf
    return float(math.sqrt(((half - 1) / half * within + between) / within))


def summarize(samples: np.ndarray) -> dict:
    """Moments, equal-tailed 95% intervals and cross-correlations of the
    pooled retained states ``samples``, (chains, retained, d); the ESS
    summed over chains; split-R-hat per parameter.

    States without a leading chain axis count as one chain.  The result is
    a JSON document: ``ci_lower`` and ``ci_upper`` are the 2.5% and 97.5%
    quantiles, ``rhat`` is the rank-normalised split-R-hat, ``retained``
    counts the pooled states, and each per-parameter value is a list.
    """
    retained, d = samples.shape[-2:]
    if retained < MIN_RETAINED:
        raise ValueError(f"need at least {MIN_RETAINED} retained samples per "
                         f"chain, got {retained}")
    per_chain = samples.reshape(-1, retained, d)
    ess = np.array([sum(effective_sample_size(c[:, j]) for c in per_chain)
                    for j in range(d)])
    rhat = np.array([split_rhat(per_chain[:, :, j]) for j in range(d)])
    x = per_chain.reshape(-1, d)
    n = x.shape[0]
    mean = x.mean(axis=0)
    std = x.std(axis=0, ddof=1)
    ci_lo = np.quantile(x, 0.025, axis=0)
    ci_hi = np.quantile(x, 0.975, axis=0)
    corr = np.eye(d)
    for i in range(d):
        for j in range(i + 1, d):
            if std[i] > 0 and std[j] > 0:
                c = np.cov(x[:, i], x[:, j], ddof=1)[0, 1] / (std[i] * std[j])
            else:
                c = 0.0
            corr[i, j] = corr[j, i] = c
    names = PARAM_NAMES if d == len(PARAM_NAMES) else tuple(f"x{j}" for j in range(d))
    return {"parameters": list(names), "mean": mean.tolist(), "std": std.tolist(),
            "ci_lower": ci_lo.tolist(), "ci_upper": ci_hi.tolist(),
            "ess": ess.tolist(), "rhat": rhat.tolist(),
            "correlation": corr.tolist(), "retained": n}


def save_chain(chain: PosteriorChain, path: str | Path) -> None:
    """Write every array of the chains, leading chain axis included, as an
    uncompressed .npz at ``path``.

    The arrays are stored in binary, so a reloaded chain is bitwise the
    one in memory and summarizes to the same numbers.
    """
    with open(path, "wb") as fh:
        np.savez(fh, **{name: getattr(chain, name) for name in _CHAIN_ARRAYS})


def load_chain(path: str | Path) -> PosteriorChain:
    with np.load(path) as stored:
        if sorted(stored.files) != sorted(_CHAIN_ARRAYS):
            raise ValueError(f"{path}: unexpected chain arrays {stored.files}")
        arrays = {name: stored[name] for name in _CHAIN_ARRAYS}
    shapes = {name: array.shape for name, array in arrays.items()}
    if len(shapes["log_post"]) != 2 or len(shapes["accepted"]) != 2:
        raise ValueError(f"{path}: inconsistent chain array shapes")
    (chains, retained), steps = shapes["log_post"], shapes["accepted"][1]
    d = len(PARAM_NAMES)
    expected = {"samples": (chains, retained, d), "log_post": (chains, retained),
                "accepted": (chains, steps), "mode": (chains, d)}
    if any(shapes[name] != expected.get(name, (chains,)) for name in _CHAIN_ARRAYS):
        raise ValueError(f"{path}: inconsistent chain array shapes")
    return PosteriorChain(**arrays)
