"""Independent finite-difference oracle for the reduced conduction model.

Explicit axisymmetric heat conduction on a uniform (r, z) grid with the
same Gaussian surface-flux source and the same effective-property closure
as the analytic model, but written from the PDE directly with no shared
solver code.  Used by the tests to cross-check temperatures and extracted
melt-pool dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from meltcal.domain import CalibrationParams, DesignVars
from meltcal.forward import STEFAN_BOLTZMANN


@dataclass(frozen=True)
class FdSolution:
    """Field at the final time plus isotherm-extent history."""

    times: np.ndarray          # (m,) sample times, s
    depth_extent: np.ndarray   # (m,) largest on-axis z with T >= threshold, m
    radius_extent: np.ndarray  # (m,) largest surface r with T >= threshold, m
    temperature: np.ndarray    # (nz, nr) field at times[-1], K
    dr: float

    def max_depth(self) -> float:
        return float(self.depth_extent.max())

    def max_length(self) -> float:
        return 2.0 * float(self.radius_extent.max())


def _closure(design: DesignVars, theta: CalibrationParams, density: float,
             melt_temperature: float, ambient_temperature: float,
             solid_fraction: float, mass_fraction: float, chi: float,
             ma_ref: float) -> tuple[float, float, float, float]:
    """(k_eff, volumetric heat capacity, surface flux scale, threshold)."""
    dT = melt_temperature - ambient_temperature
    a0 = theta.k_l / (density * theta.c_l)
    ma = abs(theta.gamma_t) * dT * design.beam_radius / (theta.mu_l * a0)
    k_eff = solid_fraction * theta.k_l * (1.0 + chi * np.log1p(ma / ma_ref))
    rho_c = mass_fraction * density * theta.c_l
    q_area = np.pi * design.beam_radius**2
    absorbed = theta.alpha * design.power
    lost = (theta.a_h * dT + STEFAN_BOLTZMANN * theta.emissivity
            * (melt_temperature**4 - ambient_temperature**4))
    f = min(max(lost * q_area / absorbed, 0.0), 0.5)
    absorbed *= 1.0 - f
    q0 = 2.0 * absorbed / q_area  # peak flux of the Gaussian profile
    threshold = melt_temperature + theta.latent_heat / theta.c_l
    return k_eff, rho_c, q0, threshold


def _extent(values: np.ndarray, coords: np.ndarray, threshold: float) -> float:
    """Largest coordinate where values >= threshold, linearly interpolated."""
    above = values >= threshold
    if not above.any():
        return 0.0
    i = int(np.nonzero(above)[0].max())
    if i + 1 >= coords.size:
        return float(coords[i])
    v0, v1 = values[i], values[i + 1]
    if v0 == v1:
        return float(coords[i])
    frac = (v0 - threshold) / (v0 - v1)
    return float(coords[i] + frac * (coords[i + 1] - coords[i]))


def solve_fd(design: DesignVars, theta: CalibrationParams, *,
             density: float = 7200.0, melt_temperature: float = 1727.0,
             ambient_temperature: float = 300.0,
             solid_fraction: float = 0.1, mass_fraction: float = 0.25,
             chi: float = 0.2, ma_ref: float = 100.0, cells_per_radius: int = 24,
             domain_radii: float = 6.0, t_end: float | None = None,
             samples: int = 64) -> FdSolution:
    """March the explicit scheme to ``t_end`` (default twice the pulse).

    The grid spacing is ``beam_radius / cells_per_radius`` and the domain
    extends ``domain_radii`` beam radii in r and z with an ambient far
    boundary, emulating the half space.
    """
    k_eff, rho_c, q0, threshold = _closure(
        design, theta, density, melt_temperature, ambient_temperature,
        solid_fraction, mass_fraction, chi, ma_ref)
    a = k_eff / rho_c
    t_end = t_end if t_end is not None else 2.0 * design.pulse_duration

    dr = design.beam_radius / cells_per_radius
    extent = domain_radii * design.beam_radius + 4.0 * np.sqrt(a * t_end)
    n = int(np.ceil(extent / dr)) + 1
    r = np.arange(n) * dr
    flux = q0 * np.exp(-2.0 * r**2 / design.beam_radius**2)

    dt = 0.2 * dr**2 / a  # well below the 0.25 axisymmetric stability bound
    steps = int(np.ceil(t_end / dt))
    dt = t_end / steps

    # face radii for the conservative axisymmetric radial operator
    r_plus = r + 0.5 * dr
    r_minus = np.maximum(r - 0.5 * dr, 0.0)

    temp = np.full((n, n), ambient_temperature)  # [z, r]
    sample_every = max(1, steps // samples)
    times, depths, radii = [], [], []
    for step in range(1, steps + 1):
        lap = np.zeros_like(temp)
        # radial part
        lap[:, 1:-1] += (r_plus[1:-1] * (temp[:, 2:] - temp[:, 1:-1])
                         - r_minus[1:-1] * (temp[:, 1:-1] - temp[:, :-2])) \
            / (r[1:-1] * dr**2)
        lap[:, 0] += 4.0 * (temp[:, 1] - temp[:, 0]) / dr**2
        # axial part, with a ghost row carrying the surface flux
        lap[1:-1, :] += (temp[2:, :] - 2.0 * temp[1:-1, :] + temp[:-2, :]) / dr**2
        t_now = step * dt
        active = flux if (t_now - dt) < design.pulse_duration else np.zeros_like(flux)
        ghost = temp[1, :] + 2.0 * dr * active / k_eff
        lap[0, :] += (temp[1, :] - 2.0 * temp[0, :] + ghost) / dr**2
        temp = temp + dt * a * lap
        # far boundaries stay ambient (Dirichlet half-space emulation)
        temp[-1, :] = ambient_temperature
        temp[:, -1] = ambient_temperature
        if step % sample_every == 0 or step == steps:
            times.append(t_now)
            depths.append(_extent(temp[:, 0], r, threshold))
            radii.append(_extent(temp[0, :], r, threshold))
    return FdSolution(times=np.array(times), depth_extent=np.array(depths),
                      radius_extent=np.array(radii), temperature=temp, dr=dr)
