"""The reduced forward melt-pool model.

``evaluate_reduced`` maps (DesignVars, CalibrationParams) to a MeltPoolSize
with a transient-conduction model: a Gaussian surface source on a
semi-infinite half-space, superposed in time via the Green's function.  The
adapter for a full simulator, the other forward model, is ``simulator``.

The model folds melt-pool convection into an effective-conductivity
enhancement driven by the Marangoni number, and folds convective/radiative
surface losses into a scalar absorbed-power correction, so that all eight
calibration parameters influence the predicted pool size.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from functools import cache

import numpy as np

from .domain import CalibrationParams, DesignVars, MeltPoolSize

__all__ = [
    "NumericsError",
    "evaluate_reduced",
    "effective_conductivity",
    "melting_threshold",
]


STEFAN_BOLTZMANN = 5.670374419e-8  # W/(m^2 K^4)


class NumericsError(ArithmeticError):
    """Non-finite intermediate inside the reduced model."""


# The reduced model's fixed inputs.  Unlike the calibration parameters they
# are not inferred: the material is 304 stainless steel.  Every function
# reads them when it runs, so a test can patch them.
DENSITY = 7200.0              # kg/m^3
MELT_TEMPERATURE = 1727.0     # liquidus, K
AMBIENT_TEMPERATURE = 300.0   # K
CHI = 0.2                     # Marangoni enhancement coefficient
MA_REF = 100.0                # Marangoni reference number
# Scales the calibration conductivity (a liquid-enhanced value) down to a
# solid-phase transport coefficient.  Without it the low-power conditions
# never reach melting anywhere in the prior.  Nominal 209.3 * 0.1 ~ 21
# W/(m K), the handbook solid value for 304 stainless steel near the solidus.
SOLID_CONDUCTIVITY_FRACTION = 0.1
# Scales the volumetric heat capacity in the transient solve, standing in
# for advective heat transport into the pool.  It leaves the steady-state
# temperature untouched but speeds the transient and deepens the reachable
# isotherms; without it the millisecond pulses are diffusion-limited to
# pools far shallower than the measurements.
THERMAL_MASS_FRACTION = 0.25
QUAD_POINTS = 64              # Gauss-Legendre nodes in sqrt(elapsed time)
TIME_SAMPLES = 33             # extent scan points over [t_p, 2 t_p]
SEARCH_TOLERANCE = 1e-6       # m, bisection tolerance for isotherms


def marangoni_number(design: DesignVars, theta: CalibrationParams) -> float:
    a0 = theta.k_l / (DENSITY * theta.c_l)
    dT = MELT_TEMPERATURE - AMBIENT_TEMPERATURE
    return abs(theta.gamma_t) * dT * design.beam_radius / (theta.mu_l * a0)


def effective_conductivity(design: DesignVars, theta: CalibrationParams) -> float:
    """Conduction coefficient with the Marangoni convection enhancement."""
    ma = marangoni_number(design, theta)
    enhancement = 1.0 + CHI * math.log1p(ma / MA_REF)
    return SOLID_CONDUCTIVITY_FRACTION * theta.k_l * enhancement


def loss_fraction(design: DesignVars, theta: CalibrationParams) -> float:
    """Fraction of absorbed power lost to surface convection and radiation."""
    tm, t0 = MELT_TEMPERATURE, AMBIENT_TEMPERATURE
    flux = (theta.a_h * (tm - t0)
            + STEFAN_BOLTZMANN * theta.emissivity * (tm**4 - t0**4))
    f = flux * math.pi * design.beam_radius**2 / (theta.alpha * design.power)
    return min(max(f, 0.0), 0.5)


def melting_threshold(theta: CalibrationParams) -> float:
    """Effective melting temperature: liquidus plus the latent-heat penalty."""
    return MELT_TEMPERATURE + theta.latent_heat / theta.c_l


@cache
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


class _RiseField:
    """Temperature rise above ambient at fixed times t, as a function of (r, z).

    Superposition of the half-space Gaussian-source Green's function over
    source time.  With elapsed time tau and u = sqrt(tau) the integrand is
    smooth (the 1/sqrt(tau) endpoint singularity cancels), so fixed-order
    Gauss-Legendre in u converges spectrally:

        dT = (4 q / (rho c pi^{3/2} sqrt(a))) *
             int exp(-z^2/(4 a u^2) - 2 r^2/(Rb^2 + 8 a u^2)) / (Rb^2 + 8 a u^2) du

    with q the absorbed power less the surface losses.  Every term that
    depends on (design, theta, t) alone is computed here once.  The exponent
    is ``r_term(r) - z_term(z)``, so a probe along one axis computes only
    that axis's term.  The terms and ``rise`` are called, as ``__call__``
    calls them, with divide and invalid floating-point warnings ignored.
    """

    def __init__(self, design: DesignVars, theta: CalibrationParams,
                 t: float | np.ndarray):
        rho_c = THERMAL_MASS_FRACTION * DENSITY * theta.c_l
        a = effective_conductivity(design, theta) / rho_c
        q = theta.alpha * design.power * (1.0 - loss_fraction(design, theta))
        self.t = t = np.asarray(t, float)
        # elapsed-time window is [t - t_p, t] clipped at 0
        tau_lo = np.maximum(t - design.pulse_duration, 0.0)
        u_lo = np.sqrt(tau_lo)
        u_hi = np.sqrt(np.maximum(t, 0.0))
        nodes, self.weights = _leggauss(QUAD_POINTS)
        # map [-1, 1] -> [u_lo, u_hi] per time
        half = 0.5 * (u_hi - u_lo)
        mid = 0.5 * (u_hi + u_lo)
        u = mid[..., None] + half[..., None] * nodes  # (..., n)
        u2 = u * u
        self.denom = design.beam_radius**2 + 8.0 * a * u2
        self.unheated = ~(u2 > 0)
        self.diffusion = 4.0 * a * np.maximum(u2, 1e-300)
        self.scale = 4.0 * q / (rho_c * math.pi**1.5 * math.sqrt(a)) * half
        self.window = u_hi > u_lo

    def r_term(self, r: np.ndarray) -> np.ndarray:
        """-2 r^2 / (Rb^2 + 8 a u^2) at radii r of t's shape or 0-d."""
        return -2.0 * r[..., None] ** 2 / self.denom

    def z_term(self, z: np.ndarray) -> np.ndarray:
        """z^2 / (4 a u^2) at depths z of t's shape or 0-d; inf where u = 0."""
        term = z[..., None] ** 2 / self.diffusion
        np.copyto(term, np.inf, where=self.unheated)
        return term

    def rise(self, expo: np.ndarray) -> np.ndarray:
        """The rise from the exponent ``r_term(r) - z_term(z)``."""
        integrand = np.exp(expo)
        integrand /= self.denom
        np.copyto(integrand, 0.0, where=self.unheated)
        if not np.isfinite(integrand).all():
            bad = np.argwhere(~np.isfinite(integrand))[0]
            raise NumericsError(f"non-finite integrand at quadrature node {bad.tolist()}")
        rise = self.scale * (integrand * self.weights).sum(axis=-1)
        return np.where(self.window, rise, 0.0)

    @np.errstate(divide="ignore", invalid="ignore")
    def __call__(self, r: np.ndarray, z: np.ndarray) -> np.ndarray:
        return self.rise(self.r_term(r) - self.z_term(z))


@np.errstate(divide="ignore", invalid="ignore")
def _max_extent(field: _RiseField, exponent: Callable[[np.ndarray], np.ndarray],
                above: np.ndarray, start: float, threshold_rise: float) -> float:
    """Largest coordinate with rise >= threshold at any of the field's times.

    ``exponent(x)`` is the field's exponent at distance x along one axis,
    the other axis's term fixed at zero; ``above`` flags the times at which
    the origin melts, the only times whose extent counts.  The rise is
    monotone decreasing along each axis, so bisection is exact.  Bisections
    for all scan times run in lockstep, the bracket growing from ``start``
    and the bisection stopping at ``SEARCH_TOLERANCE``.
    """
    # exponential bracket growth from the start
    hi = np.full_like(field.t, start)
    for _ in range(24):
        hot = field.rise(exponent(hi)) >= threshold_rise
        if not hot.any():
            break
        hi = np.where(hot, hi * 2.0, hi)
    lo = np.zeros_like(field.t)
    n_iter = int(math.ceil(math.log2(float(hi.max()) / SEARCH_TOLERANCE))) + 1
    for _ in range(n_iter):
        mid = 0.5 * (lo + hi)
        hot = field.rise(exponent(mid)) >= threshold_rise
        lo = np.where(hot, mid, lo)
        hi = np.where(hot, hi, mid)
    extents = np.where(above, 0.5 * (lo + hi), 0.0)
    return float(extents.max())


@np.errstate(divide="ignore", invalid="ignore")
def evaluate_reduced(design: DesignVars, theta: CalibrationParams) -> MeltPoolSize:
    """Melt-pool length (surface diameter) and depth from the reduced model.

    The melting criterion is the effective threshold T_m + L/c_l; extents
    are the maxima over t in [t_p, 2 t_p] (during the pulse every point
    only heats up, so earlier times never set the maximum).  The pool
    melts if the origin does at t_p, the scan's first time, where the
    rise peaks.
    """
    threshold_rise = melting_threshold(theta) - AMBIENT_TEMPERATURE
    t_p = design.pulse_duration
    field = _RiseField(design, theta, np.linspace(t_p, 2.0 * t_p, TIME_SAMPLES))
    zero = np.zeros_like(field.t)
    r_zero, z_zero = field.r_term(zero), field.z_term(zero)
    above = field.rise(r_zero - z_zero) >= threshold_rise  # the origin melts
    if not above[0]:
        return MeltPoolSize(length=0.0, depth=0.0, melted=False)
    max_r = _max_extent(field, lambda r: field.r_term(r) - z_zero, above,
                        design.beam_radius, threshold_rise)
    max_z = _max_extent(field, lambda z: r_zero - field.z_term(z), above,
                        design.beam_radius, threshold_rise)
    return MeltPoolSize(length=2.0 * max_r, depth=max_z, melted=True)
