"""Reference adaptive-Metropolis loop for bitwise oracle tests.

A plain implementation of the rule of ``meltcal.inference.adaptive_metropolis``:
every ``AM_BLOCK`` steps the block's stored states are merged into the
running mean and sum of squared deviations (Chan, Golub & LeVeque 1983), and
from ``adapt_start`` on the proposal is refactored from them.  Nothing is
hoisted or updated in place, and the block's statistics are computed here
from the stored states rather than through the library's helper.  Every
state is stored; ``burn_thin`` then keeps those the library retains.  The
tests assert that the library loop retains exactly the same states, that
its mode is the first of this chain's highest log densities, and that its
accept flags and counts are this loop's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from meltcal.domain import RandomStream
from meltcal.inference import AM_BLOCK, AM_REGULARIZER, AM_SCALE


@dataclass(frozen=True)
class FullChain:
    """Every visited state of one chain (repeats on rejection included)."""

    samples: np.ndarray   # (steps, d)
    log_post: np.ndarray  # (steps,)
    accepted: np.ndarray  # (steps,) bool, True where the proposal was taken
    chol_fallbacks: int   # block ends whose proposal covariance failed to factor


def burn_thin(chain: FullChain, burn: int, thin: int) -> tuple[np.ndarray, np.ndarray]:
    """The states and log densities left after dropping the first ``burn``
    steps and then keeping every ``thin``-th one."""
    if burn >= len(chain.log_post):
        raise ValueError(f"burn {burn} >= chain length {len(chain.log_post)}")
    if thin < 1:
        raise ValueError("thin must be >= 1")
    sel = slice(burn, None, thin)
    return chain.samples[sel], chain.log_post[sel]


def adaptive_metropolis(target: Callable[[np.ndarray], float], init: np.ndarray,
                        steps: int, adapt_start: int, stream: RandomStream,
                        initial_step: np.ndarray | None = None) -> FullChain:
    """Random-walk Metropolis with empirical-covariance adaptation in blocks.

    The proposal covariance is diagonal (initial_step^2 per dimension,
    defaulting to 1/100 of unit scale squared) until the first block end at
    or after ``adapt_start`` steps; from then on it is (2.38^2/d) times the
    covariance of the initial state and the stored states so far, plus
    1e-10 I, refreshed at every block end.
    """
    init = np.asarray(init, float)
    d = init.size
    if not (steps > adapt_start >= 100):
        raise ValueError("need steps > adapt_start >= 100")
    lp0 = target(init)
    if not np.isfinite(lp0):
        raise ValueError("target is not finite at the initial state")
    if initial_step is None:
        initial_step = np.full(d, 0.1)
    diag0 = np.asarray(initial_step, float) ** 2

    rng = stream.generator()
    samples = np.empty((steps, d))
    log_post = np.empty(steps)
    accepted = np.zeros(steps, dtype=bool)
    current, lp = init.copy(), lp0

    seen = 1  # the initial state counts as the first observation
    mean = current.copy()
    m2 = np.zeros((d, d))
    chol = None
    fallbacks = 0
    for step in range(steps):
        if chol is None:
            proposal = current + rng.standard_normal(d) * np.sqrt(diag0)
        else:
            proposal = current + chol @ rng.standard_normal(d)
        lp_prop = target(proposal)
        if np.log(rng.random()) < lp_prop - lp:
            current, lp = proposal, lp_prop
            accepted[step] = True
        samples[step] = current
        log_post[step] = lp
        if (step + 1) % AM_BLOCK == 0:
            block = samples[step + 1 - AM_BLOCK:step + 1]
            block_mean = np.mean(block, axis=0)
            dev = block - block_mean
            delta = block_mean - mean
            n = seen + AM_BLOCK
            mean = mean + delta * (AM_BLOCK / n)
            m2 = m2 + dev.T @ dev + np.outer(delta, delta) * (seen * AM_BLOCK / n)
            seen = n
            if step + 1 >= adapt_start:
                prop_cov = (AM_SCALE / d / (seen - 1)) * m2 + AM_REGULARIZER * np.eye(d)
                try:
                    chol = np.linalg.cholesky(prop_cov)
                except np.linalg.LinAlgError:
                    chol = None
                    fallbacks += 1
    return FullChain(samples=samples, log_post=log_post, accepted=accepted,
                     chol_fallbacks=fallbacks)
