"""Frequency grids, power spectra, centroids, super-Gaussian filtering and CSV I/O.

All frequencies are optical frequencies in THz, all wavelengths in nm.
Spectra are power densities in arbitrary units on a uniform grid; integrals
use the trapezoidal rule, which is exact for the symmetric test cases and
second-order accurate otherwise.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NoSignalError, SpectrumFormatError

# Exact value in nm*THz, equivalent to c = 299792458 m/s.
SPEED_OF_LIGHT_NM_THZ = 299792.458

# Ascending frequency columns may carry this much relative spacing jitter
# (from decimal round-tripping) and still count as uniform.
_UNIFORM_RTOL = 1e-6

# Most points a range may expand to; checked before anything is allocated.
MAX_RANGE_POINTS = 10**6


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform sampling axis in optical frequency.

    center and span are in THz; the grid covers [center - span/2, center + span/2]
    with n_points nodes. Every node must be strictly positive.
    """

    center: float
    span: float
    n_points: int

    def __post_init__(self) -> None:
        if self.span <= 0:
            raise ValueError(f"span must be > 0, got {self.span}")
        if self.n_points < 2:
            raise ValueError(f"n_points must be >= 2, got {self.n_points}")
        if self.center - self.span / 2 <= 0:
            raise ValueError(
                f"grid extends to non-positive frequency: lowest node "
                f"{self.center - self.span / 2} THz"
            )

    @property
    def spacing(self) -> float:
        return self.span / (self.n_points - 1)

    @property
    def lo(self) -> float:
        return self.center - self.span / 2

    @property
    def hi(self) -> float:
        return self.center + self.span / 2

    def frequencies(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n_points)


def inclusive_range(start: float, stop: float, step: float) -> list[float]:
    """start, start + step, ... up to stop (counted when within 1e-9 steps).

    ValueError unless all are finite, step > 0, stop >= start and the range
    has at most MAX_RANGE_POINTS points.
    """
    if not (math.isfinite(start) and math.isfinite(stop) and math.isfinite(step)):
        raise ValueError("range start, stop and step must be finite")
    if step <= 0 or stop < start:
        raise ValueError("range needs step > 0 and stop >= start")
    count = (stop - start) / step + 1e-9
    if not count < MAX_RANGE_POINTS:
        raise ValueError(f"range exceeds {MAX_RANGE_POINTS} points")
    return [start + k * step for k in range(int(count) + 1)]


def make_grid(center: float, span: float, n_points: int) -> FrequencyGrid:
    """Build a uniform grid covering [center - span/2, center + span/2]."""
    return FrequencyGrid(center=center, span=span, n_points=n_points)


@dataclass(frozen=True)
class Spectrum:
    """Real non-negative power samples on a frequency grid."""

    grid: FrequencyGrid
    samples: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", samples)
        if samples.shape != (self.grid.n_points,):
            raise ValueError(
                f"samples length {samples.shape} does not match grid "
                f"n_points {self.grid.n_points}"
            )
        if not np.all(np.isfinite(samples)):
            raise ValueError("spectrum samples must be finite")
        if np.any(samples < 0):
            raise ValueError("spectrum samples must be non-negative")


@dataclass(frozen=True)
class UnitContext:
    """Wavelength <-> frequency conversions around a fixed reference wavelength.

    Shift conversions use the differential of nu = c/lambda, so a positive
    wavelength shift (longer wavelength) maps to a negative frequency shift.
    """

    reference_wavelength_nm: float = 1551.0
    speed_of_light: float = SPEED_OF_LIGHT_NM_THZ

    def __post_init__(self) -> None:
        if self.reference_wavelength_nm <= 0:
            raise ValueError("reference_wavelength_nm must be > 0")

    def frequency_shift_to_nm(self, dnu_thz: float) -> float:
        """Convert a frequency shift (THz) to a wavelength shift (nm)."""
        return -dnu_thz * self.reference_wavelength_nm**2 / self.speed_of_light

    def nm_shift_to_frequency(self, dlam_nm: float) -> float:
        """Convert a wavelength shift (nm) to a frequency shift (THz)."""
        return -dlam_nm * self.speed_of_light / self.reference_wavelength_nm**2


def wavelength_to_frequency(lambda_nm: float) -> float:
    """nu = c / lambda, with c = 299792.458 nm*THz."""
    if lambda_nm <= 0:
        raise ValueError(f"wavelength must be > 0, got {lambda_nm}")
    return SPEED_OF_LIGHT_NM_THZ / lambda_nm


def frequency_to_wavelength(nu_thz: float) -> float:
    """lambda = c / nu, exact inverse of wavelength_to_frequency."""
    if nu_thz <= 0:
        raise ValueError(f"frequency must be > 0, got {nu_thz}")
    return SPEED_OF_LIGHT_NM_THZ / nu_thz


def total_power(s: Spectrum) -> float:
    """Trapezoidal integral of the samples over the grid (arbitrary units)."""
    return float(np.trapezoid(s.samples, dx=s.grid.spacing))


def centroid(s: Spectrum) -> float:
    """Power-weighted mean frequency, integral(nu S) / integral(S), in THz.

    Raises NoSignalError when the spectrum carries no power, instead of
    returning NaN.
    """
    total = total_power(s)
    if total <= 0.0:
        raise NoSignalError("spectrum has zero total power, centroid undefined")
    nu = s.grid.frequencies()
    first_moment = float(np.trapezoid(nu * s.samples, dx=s.grid.spacing))
    return first_moment / total


def super_gaussian_filter(
    s: Spectrum, center: float, half_width: float, order: int
) -> Spectrum:
    """Multiply the spectrum by exp[-((nu - center) / half_width)^order].

    order must be a positive even integer; the gain is 1 at the center and
    1/e at center +- half_width. Used to suppress reflection side lobes
    before centroid estimation.
    """
    if half_width <= 0:
        raise ValueError(f"half_width must be > 0, got {half_width}")
    if order <= 0 or order % 2 != 0:
        raise ValueError(f"order must be a positive even integer, got {order}")
    nu = s.grid.frequencies()
    gain = np.exp(-(((nu - center) / half_width) ** order))
    return Spectrum(grid=s.grid, samples=s.samples * gain)


_CSV_HEADER = ["frequency_thz", "power"]


def write_spectrum_csv(s: Spectrum, path) -> None:
    """Write `frequency_thz,power` rows at 12 significant digits."""
    nu = s.grid.frequencies()
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(_CSV_HEADER)
        for x, y in zip(nu, s.samples):
            writer.writerow([f"{x:.12g}", f"{y:.12g}"])


def read_spectrum_csv(path) -> Spectrum:
    """Read a spectrum written by write_spectrum_csv.

    Enforces the file contract: exact header, two numeric columns, strictly
    ascending and uniform frequencies, non-negative power. Violations raise
    SpectrumFormatError naming the offending line (1-based).
    """
    freqs: list[float] = []
    powers: list[float] = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise SpectrumFormatError(f"{path}: empty file") from None
        if [h.strip() for h in header] != _CSV_HEADER:
            raise SpectrumFormatError(
                f"{path}: line 1: expected header {','.join(_CSV_HEADER)!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise SpectrumFormatError(
                    f"{path}: line {lineno}: expected 2 columns, got {len(row)}"
                )
            try:
                nu = float(row[0])
                p = float(row[1])
            except ValueError:
                raise SpectrumFormatError(
                    f"{path}: line {lineno}: non-numeric value"
                ) from None
            if p < 0:
                raise SpectrumFormatError(
                    f"{path}: line {lineno}: negative power {p}"
                )
            if freqs and nu <= freqs[-1]:
                raise SpectrumFormatError(
                    f"{path}: line {lineno}: frequency column not ascending"
                )
            freqs.append(nu)
            powers.append(p)
    if len(freqs) < 2:
        raise SpectrumFormatError(f"{path}: fewer than 2 data rows")

    f_arr = np.asarray(freqs)
    spacings = np.diff(f_arr)
    mean_spacing = float(np.mean(spacings))
    worst = int(np.argmax(np.abs(spacings - mean_spacing)))
    if abs(spacings[worst] - mean_spacing) > _UNIFORM_RTOL * mean_spacing:
        raise SpectrumFormatError(
            f"{path}: line {worst + 3}: non-uniform frequency spacing "
            f"({spacings[worst]:.12g} vs mean {mean_spacing:.12g})"
        )
    grid = FrequencyGrid(
        center=float((f_arr[0] + f_arr[-1]) / 2),
        span=float(f_arr[-1] - f_arr[0]),
        n_points=len(f_arr),
    )
    return Spectrum(grid=grid, samples=np.asarray(powers))
