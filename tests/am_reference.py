"""Reference adaptive-Metropolis loop for bitwise oracle tests.

A verbatim copy of ``meltcal.inference.adaptive_metropolis`` as written
before its loop was made leaner (hoisted constants, in-place covariance
update, bound RNG methods).  The tests assert that the library loop still
visits exactly the same states, so that ``report.json`` cannot move.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from meltcal.domain import RandomStream
from meltcal.inference import AM_REGULARIZER, AM_SCALE, PosteriorChain


def adaptive_metropolis(target: Callable[[np.ndarray], float], init: np.ndarray,
                        steps: int, adapt_start: int, stream: RandomStream,
                        initial_step: np.ndarray | None = None) -> PosteriorChain:
    """Random-walk Metropolis with recursive empirical-covariance adaptation.

    Before ``adapt_start`` the proposal covariance is diagonal
    (initial_step^2 per dimension, defaulting to 1/100 of unit scale
    squared); afterwards it is (2.38^2/d) * running covariance + 1e-10 I,
    updated each step.
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

    mean = current.copy()
    cov = np.zeros((d, d))
    chol = None
    for step in range(steps):
        if step < adapt_start or chol is None:
            proposal = current + rng.standard_normal(d) * np.sqrt(diag0)
        else:
            proposal = current + chol @ rng.standard_normal(d)
        lp_prop = target(proposal)
        if np.log(rng.random()) < lp_prop - lp:
            current, lp = proposal, lp_prop
            accepted[step] = True
        samples[step] = current
        log_post[step] = lp
        # recursive mean/covariance over the history including this state
        n = step + 2  # init counts as the first observation
        delta = current - mean
        mean = mean + delta / n
        cov = cov * ((n - 2) / (n - 1) if n > 2 else 0.0) + np.outer(delta, current - mean) / (n - 1)
        if step + 1 >= adapt_start:
            prop_cov = (AM_SCALE / d) * cov + AM_REGULARIZER * np.eye(d)
            try:
                chol = np.linalg.cholesky(prop_cov)
            except np.linalg.LinAlgError:
                chol = None
    return PosteriorChain(samples=samples, log_post=log_post, accepted=accepted)

