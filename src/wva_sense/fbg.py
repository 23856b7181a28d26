"""FBG thermal response, reflection spectra and sensitivity calibration.

The grating is a bandpass reflector whose center frequency moves linearly
with temperature. Sensitivities are quoted in nm/degC (the reporting unit)
and converted to THz/degC at the reference wavelength; via nu = c/lambda a
positive nm/degC sensitivity means the center frequency *decreases* with
temperature.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateFitError
from .spectral import SPEED_OF_LIGHT_NM_THZ, FrequencyGrid, Spectrum, UnitContext

# 2*sqrt(ln 2): ratio between a Gaussian power FWHM and its 1/e half-width.
_FWHM_PER_B = 2.0 * math.sqrt(math.log(2.0))


def check_width(name: str, value: float) -> None:
    """ValueError unless the lobe width `value` has a finite, nonzero square:
    the Gaussian lobes divide by it."""
    if not (value > 0 and 0.0 < value * value < math.inf):
        raise ValueError(f"{name} must have a finite nonzero square, got {value!r}")


@dataclass(frozen=True)
class SideLobe:
    """Satellite reflection lobe relative to the main lobe."""

    offset_thz: float
    rel_amplitude: float
    width_thz: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.rel_amplitude < 1.0:
            raise ValueError(
                f"rel_amplitude must lie in [0, 1), got {self.rel_amplitude}"
            )
        check_width("width_thz", self.width_thz)


@dataclass(frozen=True)
class FbgParams:
    """Grating response: Bragg center at reference temperature, thermal slope,
    reflected-lobe width (power 1/e half-width, THz) and efficiency."""

    center_ref_thz: float
    kappa_nm_per_c: float
    bandwidth_b_thz: float
    reflect_efficiency: float = 1.0
    side_lobe: Optional[SideLobe] = None

    def __post_init__(self) -> None:
        if self.center_ref_thz <= 0:
            raise ValueError(f"center_ref_thz must be > 0, got {self.center_ref_thz}")
        check_width("bandwidth_b_thz", self.bandwidth_b_thz)
        if not 0.0 < self.reflect_efficiency <= 1.0:
            raise ValueError(
                f"reflect_efficiency must lie in (0, 1], got {self.reflect_efficiency}"
            )

    @property
    def fwhm_thz(self) -> float:
        """Power FWHM of the main lobe."""
        return _FWHM_PER_B * self.bandwidth_b_thz


def bandwidth_b_from_fwhm_nm(fwhm_nm: float, center_nm: float) -> float:
    """Power 1/e half-width (THz) of a lobe with the given FWHM in nm."""
    if fwhm_nm <= 0 or center_nm <= 0:
        raise ValueError("fwhm_nm and center_nm must be > 0")
    fwhm_thz = SPEED_OF_LIGHT_NM_THZ * fwhm_nm / center_nm**2
    return fwhm_thz / _FWHM_PER_B


def bragg_center(
    f: FbgParams, t_c: float, t_ref_c: float, units: UnitContext
) -> float:
    """Bragg center frequency (THz) at temperature t_c, linear in t_c."""
    return f.center_ref_thz + units.nm_shift_to_frequency(f.kappa_nm_per_c) * (t_c - t_ref_c)


def _lobe_peak(f: FbgParams, source_b_thz: float, source_nu0_thz: float, c: float) -> float:
    """Main-lobe peak at center c: the efficiency times the source power envelope at c."""
    try:
        return f.reflect_efficiency * math.exp(-((c - source_nu0_thz) ** 2) / source_b_thz**2)
    except OverflowError:  # the square overflows: the envelope's exact limit, exp(-inf)
        return 0.0


def reflect(
    f: FbgParams,
    source_b_thz: float,
    source_nu0_thz: float,
    center_thz: float,
    g: FrequencyGrid,
) -> Spectrum:
    """Reflected power spectrum on the grid: a Gaussian main lobe of power 1/e
    half-width bandwidth_b and peak _lobe_peak, plus the optional side lobe, a
    satellite Gaussian at center + offset with a peak relative to the main's."""
    if not g.lo <= center_thz <= g.hi:
        raise ValueError(
            f"Bragg center {center_thz} THz lies outside grid "
            f"[{g.lo}, {g.hi}] THz"
        )
    nu = g.frequencies()
    peak = _lobe_peak(f, source_b_thz, source_nu0_thz, center_thz)
    # At ~1e154 widths from a lobe its exponent overflows to -inf; exp gives the exact 0.
    with np.errstate(over="ignore"):
        samples = peak * np.exp(-((nu - center_thz) ** 2) / f.bandwidth_b_thz**2)
        if f.side_lobe is not None:
            lobe = f.side_lobe
            samples = samples + peak * lobe.rel_amplitude * np.exp(
                -((nu - center_thz - lobe.offset_thz) ** 2) / lobe.width_thz**2
            )
    return Spectrum(grid=g, samples=samples)


def centroid_shift_model(
    dt_c: float, kappa_nm_per_c: float, a: float, static_offset_nm: float = 0.0
) -> float:
    """Referenced centroid shift in nm: (kappa/2)(A+1) dt + (A+1) offset/2.

    static_offset_nm is the fabrication mismatch between the two Bragg
    centers at the reference temperature, expressed in nm. At A = 1 and zero
    offset the shift reduces to kappa * dt.
    """
    return 0.5 * (a + 1.0) * (kappa_nm_per_c * dt_c + static_offset_nm)


@dataclass(frozen=True)
class CalibrationResult:
    """Ordinary-least-squares line through (dt, shift) calibration points."""

    slope_nm_per_c: float
    intercept_nm: float
    residual_rms_nm: float
    n_points: int


def fit_sensitivity(points: Sequence[tuple[float, float]]) -> CalibrationResult:
    """Least-squares slope/intercept of shift (nm) versus dt (degC).

    Raises DegenerateFitError when the line cannot be fitted: fewer than two
    distinct dt values; dt values whose sum of squares, which np.polyfit
    scales by, is 0 or not finite (checked before polyfit runs, as its LAPACK
    call would print to stdout); dt values too close together for polyfit to
    resolve their spread (its RankWarning); or a fit that overflows.
    """
    if len(points) < 2:
        raise DegenerateFitError(f"need >= 2 points, got {len(points)}")
    dt = np.asarray([p[0] for p in points], dtype=float)
    shift = np.asarray([p[1] for p in points], dtype=float)
    if np.ptp(dt) == 0.0:
        raise DegenerateFitError("all dt values identical, slope unconstrained")
    with np.errstate(all="ignore"), warnings.catch_warnings():
        dt_squares = float(np.sum(dt * dt))
        if not 0.0 < dt_squares < math.inf:
            raise DegenerateFitError(f"dt values cannot be fitted: their sum of squares, "
                                     f"{dt_squares!r}, is 0 or not finite")
        warnings.simplefilter("error", np.exceptions.RankWarning)
        try:
            slope, intercept = np.polyfit(dt, shift, 1)
        except np.exceptions.RankWarning:
            raise DegenerateFitError("dt values cannot be fitted: their spread is too "
                                     "small for their size, the fit is rank deficient") from None
        rms = float(np.sqrt(np.mean((shift - (slope * dt + intercept)) ** 2)))
    if not np.all(np.isfinite([slope, intercept, rms])):
        raise DegenerateFitError("fit failed or overflowed: result not finite")
    return CalibrationResult(
        slope_nm_per_c=float(slope),
        intercept_nm=float(intercept),
        residual_rms_nm=rms,
        n_points=len(points),
    )
