"""Two-pulse polarization interferometer model with weak-value amplification.

The field is a pair of Gaussian spectral envelopes on orthogonal polarizations,
offset by the two sensor-induced center shifts, with a path delay tau and a
residual birefringence phase delta = phi - gamma_lcvr between the arms.
Post-selecting onto cos(beta) x + sin(beta) y interferes the arms and
amplifies the differential shift nu_minus by the factor

    A(beta) = cos(2 beta) / (1 + gamma * sin(2 beta) * cos(delta)),

where gamma = exp(-nu_minus^2 / B^2) is the spectral overlap of the pulses.

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
from .spectral import FrequencyGrid, Spectrum

# Below this |denominator| the post-selected mean is considered extinguished.
_SINGULAR_EPS = 1e-12


@dataclass(frozen=True)
class SetupParams:
    """All interferometer symbols in one immutable record.

    nu1 and nu2 are the sensor-induced centroid offsets of the x- and
    y-polarized pulses *relative to the carrier* nu0. amplitude is the field
    scale E0 (the power spectrum scales as S0 = E0^2).
    """

    nu0: float
    b_width: float
    tau_ps: float = 0.0
    phi_rad: float = 0.0
    gamma_lcvr_rad: float = 0.0
    beta_rad: float = 0.0
    nu1: float = 0.0
    nu2: float = 0.0
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if self.nu0 <= 0:
            raise ValueError(f"nu0 must be > 0, got {self.nu0}")
        if self.b_width <= 0:
            raise ValueError(f"b_width must be > 0, got {self.b_width}")
        if not -math.pi / 2 <= self.beta_rad <= math.pi / 2:
            raise ValueError(
                f"beta_rad must lie in [-pi/2, pi/2], got {self.beta_rad}"
            )

    @property
    def delta_rad(self) -> float:
        """Residual uncompensated phase, birefringence minus retarder."""
        return self.phi_rad - self.gamma_lcvr_rad

    @property
    def nu_plus(self) -> float:
        return (self.nu1 + self.nu2) / 2

    @property
    def nu_minus(self) -> float:
        return (self.nu1 - self.nu2) / 2

    @property
    def gamma_overlap(self) -> float:
        return overlap_gamma(self.nu_minus, self.b_width)


@dataclass(frozen=True)
class PolarizedFieldSpectrum:
    """Complex field envelopes of the two polarization components on a grid."""

    grid: FrequencyGrid
    ex: np.ndarray = field(repr=False)
    ey: np.ndarray = field(repr=False)

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
    birefringence phase exp[i(2 pi nu tau + delta)].
    """
    nu = grid.frequencies()
    ey = ey_amplitude * np.exp(1j * (2.0 * math.pi * nu * tau_ps + delta_rad))
    return PolarizedFieldSpectrum(grid=grid, ex=ex, ey=ey)


def jones_field(p: SetupParams, g: FrequencyGrid) -> PolarizedFieldSpectrum:
    """Synthesize the recombined two-arm field of Gaussian envelopes on the grid.

    ex(nu) = (E0/sqrt2) exp[-(nu - nu0 - nu1)^2 / (2 B^2)]
    ey(nu) = (E0/sqrt2) exp[-(nu - nu0 - nu2)^2 / (2 B^2)] exp[i(2 pi nu tau + delta)]
    """
    nu = g.frequencies()
    scale = p.amplitude / math.sqrt(2.0)
    b2 = 2.0 * p.b_width**2
    ex = scale * np.exp(-((nu - p.nu0 - p.nu1) ** 2) / b2)
    ey = scale * np.exp(-((nu - p.nu0 - p.nu2) ** 2) / b2)
    return two_arm_field(g, ex, ey, p.tau_ps, p.delta_rad)


def projected_power(f: PolarizedFieldSpectrum, beta_rad: float) -> np.ndarray:
    """Power samples of the field projected onto cos(beta) x + sin(beta) y."""
    return np.abs(math.cos(beta_rad) * f.ex + math.sin(beta_rad) * f.ey) ** 2


def post_select(f: PolarizedFieldSpectrum, beta_rad: float) -> Spectrum:
    """Project onto cos(beta) x + sin(beta) y and return the power spectrum."""
    return Spectrum(grid=f.grid, samples=projected_power(f, beta_rad))


def output_spectrum_analytic(p: SetupParams, g: FrequencyGrid) -> Spectrum:
    """Closed-form post-selected power spectrum.

    Three-term form: the two projected Gaussian lobes plus the interference
    term, whose cross weight 2 cos(beta) sin(beta) makes this identical to
    |post_select(jones_field)|^2 at every node.
    """
    nu = g.frequencies()
    u = nu - p.nu0
    b2 = p.b_width**2
    s0 = p.amplitude**2
    cb, sb = math.cos(p.beta_rad), math.sin(p.beta_rad)
    lobe1 = np.exp(-((u - p.nu1) ** 2) / b2)
    lobe2 = np.exp(-((u - p.nu2) ** 2) / b2)
    cross = p.gamma_overlap * np.exp(-((u - p.nu_plus) ** 2) / b2) * np.cos(
        2.0 * math.pi * nu * p.tau_ps + p.delta_rad
    )
    samples = (s0 / 2.0) * (cb**2 * lobe1 + sb**2 * lobe2 + 2.0 * cb * sb * cross)
    # Interference can undershoot zero by a few ulp where the terms cancel.
    np.clip(samples, 0.0, None, out=samples)
    return Spectrum(grid=g, samples=samples)


def overlap_gamma(nu_minus: float, b_width: float) -> float:
    """Spectral overlap gamma = exp(-nu_minus^2 / B^2), in (0, 1]."""
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


@dataclass(frozen=True)
class CentroidPrediction:
    """Analytic centroid with a validity flag for the weak-coupling premise."""

    value_thz: float
    a_factor: float
    weak_regime: bool


def analytic_centroid(p: SetupParams) -> CentroidPrediction:
    """First-order centroid nu0 + nu_plus + A * nu_minus.

    weak_regime is True when |nu_minus| <= 0.1 B and |tau| <= 0.01/B; outside
    that window the value is still returned but the first-order formula is
    not expected to track the full spectrum (the delay also rotates the
    interference phase by 2 pi nu0 tau, which this expression ignores).
    """
    a = amplification_factor(p.beta_rad, p.gamma_overlap, p.delta_rad)
    weak = abs(p.nu_minus) <= 0.1 * p.b_width and abs(p.tau_ps) <= 0.01 / p.b_width
    return CentroidPrediction(
        value_thz=p.nu0 + p.nu_plus + a * p.nu_minus, a_factor=a, weak_regime=weak
    )
