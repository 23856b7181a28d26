"""Two-arm polarization interferometer with weak-value amplification.

`two_arm_field` recombines the real amplitudes of the x and y arms, with the
delay tau and the residual birefringence phase delta = phi - gamma_lcvr on y.
Projecting onto cos(beta) x + sin(beta) y (`projected_power`) moves the centroid
of two lobes at nu_plus +- nu_minus to nu_plus + A nu_minus, where

    A(beta) = cos(2 beta) / (1 + gamma * sin(2 beta) * cos(delta)),

gamma = exp(-nu_minus^2 / B^2) is the arms' spectral overlap, and |A| peaks at
(1 - g^2)^(-1/2) where sin(2 beta) = -g, g = gamma cos(delta).

Conventions: frequencies in THz, delays in ps (so 2*pi*nu*tau is already in
radians), angles in radians. B parametrizes the field envelope as
exp[-(nu - .)^2 / (2 B^2)], so the power spectrum carries exp[-(.)^2 / B^2]
and B is the 1/e half-width of the power lobe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SingularPostSelectionError, UnboundedAmplificationError
from .spectral import FrequencyGrid, records_equal

# Below this |denominator| the post-selected mean is considered extinguished.
_SINGULAR_EPS = 1e-12


@dataclass(frozen=True)
class PolarizedFieldSpectrum:
    """Complex field envelopes of the two polarization components on a grid."""

    grid: FrequencyGrid
    ex: np.ndarray = field(repr=False)
    ey: np.ndarray = field(repr=False)

    __eq__ = records_equal

    def __post_init__(self) -> None:
        ex = np.asarray(self.ex, dtype=complex)
        ey = np.asarray(self.ey, dtype=complex)
        object.__setattr__(self, "ex", ex)
        object.__setattr__(self, "ey", ey)
        n = self.grid.n_points
        if ex.shape != (n,) or ey.shape != (n,):
            raise ValueError("field component length does not match grid")
        if not (np.all(np.isfinite(ex.view(float))) and np.all(np.isfinite(ey.view(float)))):
            raise ValueError("field components must be finite")


def pulse_bandwidth(t_fwhm_ps: float) -> float:
    """Spectral half-width B (THz) of a Gaussian pulse of duration T (ps, FWHM).

    B = sqrt(ln 2) / (pi * T), the transform-limit relation for the power
    spectrum exp[-(nu - nu0)^2 / B^2]; the power FWHM is 2 B sqrt(ln 2).
    """
    if t_fwhm_ps <= 0:
        raise ValueError(f"t_fwhm_ps must be > 0, got {t_fwhm_ps}")
    return math.sqrt(math.log(2.0)) / (math.pi * t_fwhm_ps)


def two_arm_field(
    grid: FrequencyGrid, ex: np.ndarray, ey_amplitude: np.ndarray, tau_ps: float, delta_rad: float
) -> PolarizedFieldSpectrum:
    """The recombined field from the real amplitudes of the two arms.

    ex is the x arm as given; the y arm is ey_amplitude times the delay and
    birefringence phase exp[i(2 pi nu tau + delta)] at every node of the grid.
    """
    ey = ey_amplitude * np.exp(1j * (2.0 * math.pi * grid.frequencies() * tau_ps + delta_rad))
    return PolarizedFieldSpectrum(grid=grid, ex=ex, ey=ey)


def projected_power(f: PolarizedFieldSpectrum, beta_rad: float) -> np.ndarray:
    """Power samples of the field projected onto cos(beta) x + sin(beta) y."""
    return np.abs(math.cos(beta_rad) * f.ex + math.sin(beta_rad) * f.ey) ** 2


def overlap_gamma(nu_minus: float, b_width: float) -> float:
    """Spectral overlap gamma = exp(-nu_minus^2 / B^2), in (0, 1]: scenario's lobe
    overlap G at equal widths B1 = B2 = B, with nu_minus = (c1 - c2) / 2."""
    if b_width <= 0:
        raise ValueError(f"b_width must be > 0, got {b_width}")
    return math.exp(-(nu_minus**2) / b_width**2)


def amplification_factor(beta_rad: float, gamma: float, delta_rad: float) -> float:
    """A = cos(2 beta) / (1 + gamma sin(2 beta) cos(delta)).

    Raises SingularPostSelectionError when the denominator is within 1e-12 of
    zero (total extinction of the mean), so sweeps can skip the point.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    denom = 1.0 + gamma * math.sin(2.0 * beta_rad) * math.cos(delta_rad)
    if abs(denom) <= _SINGULAR_EPS:
        raise SingularPostSelectionError(
            f"post-selection at beta={beta_rad} rad extinguishes the mean"
        )
    return math.cos(2.0 * beta_rad) / denom


@dataclass(frozen=True)
class MaxAmplification:
    """Closed-form optimum of |A| over the post-selection angle.

    beta_star is the negative-quadrant angle where A = +a_max; the mirrored
    optimum A = -a_max sits at beta_mirror = -pi/2 - beta_star.
    """

    a_max: float
    beta_star: float
    beta_mirror: float


def max_amplification(gamma: float, delta_rad: float) -> MaxAmplification:
    """Maximum of Eq.-5-style amplification over beta, for g = gamma cos(delta).

    Stationarity of A(beta) gives sin(2 beta) = -g, hence
    a_max = (1 - g^2)^(-1/2) at beta_star = -arcsin(g)/2. For gamma = 1 this
    reduces to a_max = 1/|sin(delta)|, the uncompensated-phase ceiling.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    g = gamma * math.cos(delta_rad)
    if abs(g) >= 1.0:
        raise UnboundedAmplificationError(
            f"|gamma cos delta| = {abs(g)} >= 1: amplification unbounded"
        )
    a_max = 1.0 / math.sqrt(1.0 - g * g)
    beta_star = -0.5 * math.asin(g)
    return MaxAmplification(
        a_max=a_max, beta_star=beta_star, beta_mirror=-math.pi / 2 - beta_star
    )
