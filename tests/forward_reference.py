"""Reference reduced-model evaluation for oracle tests.

``_rise_grid``, ``_max_extent`` and ``evaluate_reduced`` are verbatim
copies of ``meltcal.forward``'s functions as written before the
quadrature's r- and z-independent terms were built once per evaluation.
The closure helpers are verbatim copies from before the model's fixed
inputs became module constants; they read those inputs from a settings
namespace, which ``ReducedModelConfig()`` builds from ``meltcal.forward``'s
constants when it is called, so a test that patches a constant patches
the reference too.  The tests assert that the library still gives
exactly these lengths, depths and melted flags.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from meltcal import forward
from meltcal.domain import CalibrationParams, DesignVars, MeltPoolSize
from meltcal.forward import STEFAN_BOLTZMANN, NumericsError, _leggauss


def ReducedModelConfig() -> SimpleNamespace:  # noqa: N802 - the name the verbatim bodies use
    """The reduced model's settings as ``meltcal.forward`` holds them now."""
    return SimpleNamespace(
        density=forward.DENSITY, melt_temperature=forward.MELT_TEMPERATURE,
        ambient_temperature=forward.AMBIENT_TEMPERATURE,
        quad_points=forward.QUAD_POINTS, search_tolerance=forward.SEARCH_TOLERANCE,
        chi=forward.CHI, ma_ref=forward.MA_REF,
        solid_conductivity_fraction=forward.SOLID_CONDUCTIVITY_FRACTION,
        thermal_mass_fraction=forward.THERMAL_MASS_FRACTION,
        time_samples=forward.TIME_SAMPLES)


def marangoni_number(design: DesignVars, theta: CalibrationParams,
                     cfg: ReducedModelConfig) -> float:
    a0 = theta.k_l / (cfg.density * theta.c_l)
    dT = cfg.melt_temperature - cfg.ambient_temperature
    return abs(theta.gamma_t) * dT * design.beam_radius / (theta.mu_l * a0)


def effective_conductivity(design: DesignVars, theta: CalibrationParams,
                           cfg: ReducedModelConfig) -> float:
    """Conduction coefficient with the Marangoni convection enhancement."""
    ma = marangoni_number(design, theta, cfg)
    enhancement = 1.0 + cfg.chi * math.log1p(ma / cfg.ma_ref)
    return cfg.solid_conductivity_fraction * theta.k_l * enhancement


def loss_fraction(design: DesignVars, theta: CalibrationParams,
                  cfg: ReducedModelConfig) -> float:
    """Fraction of absorbed power lost to surface convection and radiation."""
    tm, t0 = cfg.melt_temperature, cfg.ambient_temperature
    flux = (theta.a_h * (tm - t0)
            + STEFAN_BOLTZMANN * theta.emissivity * (tm**4 - t0**4))
    f = flux * math.pi * design.beam_radius**2 / (theta.alpha * design.power)
    return min(max(f, 0.0), 0.5)


def melting_threshold(theta: CalibrationParams, cfg: ReducedModelConfig) -> float:
    """Effective melting temperature: liquidus plus the latent-heat penalty."""
    return cfg.melt_temperature + theta.latent_heat / theta.c_l


def _absorbed_power(design: DesignVars, theta: CalibrationParams,
                    cfg: ReducedModelConfig) -> float:
    """Absorbed laser power less the surface losses."""
    return theta.alpha * design.power * (1.0 - loss_fraction(design, theta, cfg))


def _rise_grid(design: DesignVars, theta: CalibrationParams,
               cfg: ReducedModelConfig, r: np.ndarray, z: np.ndarray,
               t: np.ndarray) -> np.ndarray:
    """Temperature rise above ambient at broadcastable (r, z, t) arrays.

    Superposition of the half-space Gaussian-source Green's function over
    source time.  With elapsed time tau and u = sqrt(tau) the integrand is
    smooth (the 1/sqrt(tau) endpoint singularity cancels), so fixed-order
    Gauss-Legendre in u converges spectrally:

        dT = (4 q / (rho c pi^{3/2} sqrt(a))) *
             int exp(-z^2/(4 a u^2) - 2 r^2/(Rb^2 + 8 a u^2)) / (Rb^2 + 8 a u^2) du
    """
    r, z, t = np.broadcast_arrays(np.asarray(r, float), np.asarray(z, float),
                                  np.asarray(t, float))
    k_eff = effective_conductivity(design, theta, cfg)
    rho_c = cfg.thermal_mass_fraction * cfg.density * theta.c_l
    a = k_eff / rho_c
    rb2 = design.beam_radius**2
    q = _absorbed_power(design, theta, cfg)
    c0 = 4.0 * q / (rho_c * math.pi**1.5 * math.sqrt(a))

    # elapsed-time window is [t - t_p, t] clipped at 0
    tau_lo = np.maximum(t - design.pulse_duration, 0.0)
    u_lo = np.sqrt(tau_lo)
    u_hi = np.sqrt(np.maximum(t, 0.0))

    nodes, weights = _leggauss(cfg.quad_points)
    # map [-1, 1] -> [u_lo, u_hi] per evaluation point
    half = 0.5 * (u_hi - u_lo)
    mid = 0.5 * (u_hi + u_lo)
    u = mid[..., None] + half[..., None] * nodes  # (..., n)
    u2 = u * u
    denom = rb2 + 8.0 * a * u2
    with np.errstate(divide="ignore", invalid="ignore"):
        expo = -2.0 * r[..., None] ** 2 / denom
        zz = z[..., None] ** 2
        expo = expo - np.where(u2 > 0, zz / (4.0 * a * np.maximum(u2, 1e-300)), np.inf)
        integrand = np.exp(expo) / denom
    integrand = np.where(u2 > 0, integrand, 0.0)
    if not np.all(np.isfinite(integrand)):
        bad = np.argwhere(~np.isfinite(integrand))[0]
        raise NumericsError(f"non-finite integrand at quadrature node {bad.tolist()}")
    rise = c0 * half * (integrand * weights).sum(axis=-1)
    return np.where(u_hi > u_lo, rise, 0.0)


def _max_extent(design: DesignVars, theta: CalibrationParams,
                cfg: ReducedModelConfig, times: np.ndarray, threshold_rise: float,
                axis: str) -> float:
    """Largest coordinate with rise >= threshold at any scanned time.

    axis='r' probes the surface (z=0); axis='z' probes the centerline (r=0).
    The rise is monotone decreasing along each axis, so bisection is exact.
    Bisections for all scan times run in lockstep.
    """
    def rise_at(x: np.ndarray) -> np.ndarray:
        if axis == "r":
            return _rise_grid(design, theta, cfg, x, np.zeros_like(x), times)
        return _rise_grid(design, theta, cfg, np.zeros_like(x), x, times)

    # exponential bracket growth from the beam radius
    hi = np.full_like(times, design.beam_radius)
    for _ in range(24):
        hot = rise_at(hi) >= threshold_rise
        if not hot.any():
            break
        hi = np.where(hot, hi * 2.0, hi)
    lo = np.zeros_like(times)
    above = rise_at(lo) >= threshold_rise  # melted at origin for these times
    n_iter = int(math.ceil(math.log2(float(hi.max()) / cfg.search_tolerance))) + 1
    for _ in range(n_iter):
        mid = 0.5 * (lo + hi)
        hot = rise_at(mid) >= threshold_rise
        lo = np.where(hot, mid, lo)
        hi = np.where(hot, hi, mid)
    extents = np.where(above, 0.5 * (lo + hi), 0.0)
    return float(extents.max())


def evaluate_reduced(design: DesignVars, theta: CalibrationParams,
                     cfg: ReducedModelConfig | None = None) -> MeltPoolSize:
    """Melt-pool length (surface diameter) and depth from the reduced model.

    The melting criterion is the effective threshold T_m + L/c_l; extents
    are the maxima over t in [t_p, 2 t_p] (during the pulse every point
    only heats up, so earlier times never set the maximum).
    """
    cfg = cfg or ReducedModelConfig()
    threshold_rise = melting_threshold(theta, cfg) - cfg.ambient_temperature
    t_p = design.pulse_duration
    peak = _rise_grid(design, theta, cfg, np.array(0.0), np.array(0.0), np.array(t_p))
    if peak < threshold_rise:
        return MeltPoolSize(length=0.0, depth=0.0, melted=False)
    times = np.linspace(t_p, 2.0 * t_p, cfg.time_samples)
    max_r = _max_extent(design, theta, cfg, times, threshold_rise, "r")
    max_z = _max_extent(design, theta, cfg, times, threshold_rise, "z")
    return MeltPoolSize(length=2.0 * max_r, depth=max_z, melted=True)
