"""Frequency grids, power spectra, centroids, super-Gaussian filtering and CSV I/O.

All frequencies are optical frequencies in THz, all wavelengths in nm.
Spectra are power densities in arbitrary units on a uniform grid; integrals
use the trapezoidal rule, which is exact for the symmetric test cases and
second-order accurate otherwise.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields
from itertools import chain, islice
from typing import Sequence

import numpy as np

from .errors import NoSignalError, NumericalError, SpectrumFormatError

# Exact value in nm*THz, equivalent to c = 299792458 m/s.
SPEED_OF_LIGHT_NM_THZ = 299792.458

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
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"grid must be finite, got [{self.lo}, {self.hi}] THz")
        if self.lo <= 0:
            raise ValueError(
                f"grid extends to non-positive frequency: lowest node {self.lo} THz"
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


def records_equal(self, other) -> bool:
    """`__eq__` for a dataclass that holds arrays: array fields compare with
    np.array_equal, the others with ==, and the answer is one bool."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
               for a, b in ((getattr(self, f.name), getattr(other, f.name))
                            for f in fields(self)))


@dataclass(frozen=True)
class Spectrum:
    """Real non-negative power samples on a frequency grid."""

    grid: FrequencyGrid
    samples: np.ndarray = field(repr=False)

    __eq__ = records_equal

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

    def __post_init__(self) -> None:
        if self.reference_wavelength_nm <= 0:
            raise ValueError("reference_wavelength_nm must be > 0")

    def frequency_shift_to_nm(self, dnu_thz: float) -> float:
        """Convert a frequency shift (THz) to a wavelength shift (nm)."""
        return -dnu_thz * self.reference_wavelength_nm**2 / SPEED_OF_LIGHT_NM_THZ

    def nm_shift_to_frequency(self, dlam_nm: float) -> float:
        """Convert a wavelength shift (nm) to a frequency shift (THz)."""
        return -dlam_nm * SPEED_OF_LIGHT_NM_THZ / self.reference_wavelength_nm**2


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


def trapezoid_power(samples: np.ndarray, spacing: float) -> float:
    """Trapezoidal integral of samples spaced `spacing` THz apart."""
    return float(np.trapezoid(samples, dx=spacing))


def total_power(s: Spectrum) -> float:
    """Trapezoidal integral of the samples over the grid (arbitrary units)."""
    return trapezoid_power(s.samples, s.grid.spacing)


def power_centroid(nu: np.ndarray, samples: np.ndarray, spacing: float) -> float:
    """Power-weighted mean of the frequencies nu, integral(nu S) / integral(S).

    Raises NoSignalError when the samples carry no power, instead of
    returning NaN.
    """
    total = trapezoid_power(samples, spacing)
    if total <= 0.0:
        raise NoSignalError("spectrum has zero total power, centroid undefined")
    return trapezoid_power(nu * samples, spacing) / total


def centroid(s: Spectrum) -> float:
    """Power-weighted mean frequency of a spectrum, in THz (see power_centroid)."""
    return power_centroid(s.grid.frequencies(), s.samples, s.grid.spacing)


def super_gaussian_gain(
    nu: np.ndarray, center: float, half_width: float, order: int
) -> np.ndarray:
    """exp[-((nu - center) / half_width)^order] at the frequencies nu."""
    gain = nu - center
    gain /= half_width
    np.power(gain, order, out=gain)
    np.negative(gain, out=gain)
    return np.exp(gain, out=gain)


# exp(-x) is exactly 0 for x above 745.2, so the gain is exactly 0 where
# ((nu - center) / half_width)^order exceeds 760: beyond 760^(1/order)
# half-widths from the center, 5.25 at order 4.
_GAIN_ZERO_POWER = 760.0


def super_gaussian_filter(
    nu: np.ndarray, samples: np.ndarray, center: float, half_width: float, order: int
) -> np.ndarray:
    """samples * super_gaussian_gain(nu, center, half_width, order) bit for bit,
    for ascending nu, with the gain computed only where it can change a sample.

    Beyond the reach where the gain is 0, a sample becomes samples * 0.0, which
    keeps the sign of a zero. Right of the center the gain is one slice; left
    of it, where np.power's negative bases are slow, it is computed only at
    the non-zero samples.
    """
    reach = half_width * _GAIN_ZERO_POWER ** (1.0 / order)
    lo, mid, hi = np.searchsorted(nu, (center - reach, center, center + reach))
    out = samples * 0.0
    out[mid:hi] = samples[mid:hi] * super_gaussian_gain(nu[mid:hi], center, half_width, order)
    left = lo + np.flatnonzero(samples[lo:mid])
    out[left] = samples[left] * super_gaussian_gain(nu[left], center, half_width, order)
    return out


_CSV_HEADER = ["frequency_thz", "power"]

_CHUNK_ROWS = 4096  # rows a CSV writer converts and writes at a time
_VALUE_DIGITS = 12  # significant digits; read_spectrum_csv's tolerance relies on them
# The one format of every CSV value and every footer number.
VALUE_FORMAT = f"%.{_VALUE_DIGITS}g"


def last_digit(x: float) -> float:
    """One unit in the last digit VALUE_FORMAT writes of x, nonzero and
    finite; no value of smaller magnitude is written more coarsely."""
    return 10.0 ** (math.floor(math.log10(abs(x))) + 1 - _VALUE_DIGITS)


def write_rows(path, header: Sequence[str], rows, footer: Sequence[str] = (),
               newline: str = "\n") -> None:
    """Write a CSV: header, row tuples with every value as VALUE_FORMAT, footer; each
    line ends in `newline` on every platform. Rows are written _CHUNK_ROWS at a time.

    A NaN, or an infinity outside an `snr_db` column (where inf means no
    noise), raises NumericalError naming the file and column, and removes
    the partly written file.
    """
    line = ",".join([VALUE_FORMAT] * len(header)) + newline
    lines = map(line.__mod__, rows)
    try:
        with open(path, "w", newline="") as f:
            f.write(",".join(header) + newline)
            while chunk := "".join(islice(lines, _CHUNK_ROWS)):
                # Finite VALUE_FORMAT text has no "n"; "nan" and "inf" do.
                if "n" in chunk:
                    _check_finite(path, header, chunk.split(newline))
                f.write(chunk)
            f.writelines(text + newline for text in footer)
    except NumericalError:
        os.remove(path)
        raise


def _check_finite(path, header: Sequence[str], lines: Sequence[str]) -> None:
    for text in lines:
        for name, cell in zip(header, text.split(",")):
            if "n" in cell and not (name == "snr_db" and cell in ("inf", "-inf")):
                raise NumericalError(f"{path}: column {name}: value {cell} is not finite")


def write_spectrum_csv(s: Spectrum, path) -> None:
    """Write `frequency_thz,power` rows as VALUE_FORMAT, CRLF-ended; the arrays
    become Python floats _CHUNK_ROWS rows at a time."""
    nu, samples = s.grid.frequencies(), s.samples
    rows = chain.from_iterable(
        zip(nu[i:i + _CHUNK_ROWS].tolist(), samples[i:i + _CHUNK_ROWS].tolist())
        for i in range(0, nu.size, _CHUNK_ROWS))
    write_rows(path, _CSV_HEADER, rows, newline="\r\n")


def read_csv_rows(path, header: Sequence[str]) -> list[tuple[int, float, float]]:
    """(line, x, y) for each data row of a two-column CSV file.

    Blank lines and lines starting with '#' are skipped anywhere. The first
    other line must equal `header` (cells stripped); every later one holds
    exactly two finite numbers. Violations, and an unreadable file, raise
    SpectrumFormatError naming the path and the 1-based line.
    """
    try:
        with open(path) as f:
            lines = f.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise SpectrumFormatError(f"{path}: cannot read: {exc}") from None
    expected = f"expected header {','.join(header)!r}"
    rows: list[tuple[int, float, float]] = []
    has_header = False
    isfinite = math.isfinite
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line[0] == "#":
            continue
        if not has_header:
            has_header = [c.strip() for c in line.split(",")] == list(header)
            if not has_header:
                raise SpectrumFormatError(f"{path}: line {lineno}: {expected}")
            continue
        try:
            a, b = line.split(",")
            x, y = float(a), float(b)
        except ValueError:  # not two cells, or not numbers
            x = y = math.nan
        if not (isfinite(x) and isfinite(y)):
            raise SpectrumFormatError(
                f"{path}: line {lineno}: expected 2 finite numbers, got {line!r}"
            )
        rows.append((lineno, x, y))
    if not has_header:
        raise SpectrumFormatError(f"{path}: {expected}")
    return rows


def read_spectrum_csv(path) -> Spectrum:
    """Read a spectrum written by write_spectrum_csv.

    Rows come from read_csv_rows; the powers must be non-negative and the
    frequencies positive, strictly ascending and uniform. Violations raise
    SpectrumFormatError naming the offending file line (1-based).
    """
    rows = read_csv_rows(path, _CSV_HEADER)
    if len(rows) < 2:
        raise SpectrumFormatError(f"{path}: fewer than 2 data rows")
    lines, freqs, powers = (np.array(col) for col in zip(*rows))
    spacings = np.diff(freqs)
    for bad, problem in (
        (powers < 0, "negative power"),
        (np.r_[False, spacings <= 0], "frequency column not ascending"),
    ):
        if bad.any():
            raise SpectrumFormatError(f"{path}: line {lines[bad.argmax()]}: {problem}")
    mean_spacing = float(np.mean(spacings))
    worst = int(np.argmax(np.abs(spacings - mean_spacing)))
    # Uniform to two units in the last written digit of the largest frequency:
    # rounding both ends moves a spacing by at most one unit, and the mean,
    # (last - first) / (n - 1), by at most 1/(n - 1) of a unit more.
    unit = last_digit(max(abs(freqs[0]), abs(freqs[-1])))
    if abs(spacings[worst] - mean_spacing) > 2.0 * unit:
        raise SpectrumFormatError(
            f"{path}: line {lines[worst + 1]}: non-uniform frequency spacing "
            f"({spacings[worst]:.12g} vs mean {mean_spacing:.12g})"
        )
    try:
        grid = FrequencyGrid(
            center=float((freqs[0] + freqs[-1]) / 2),
            span=float(freqs[-1] - freqs[0]),
            n_points=len(freqs),
        )
    except ValueError as exc:
        raise SpectrumFormatError(f"{path}: {exc}") from None
    return Spectrum(grid=grid, samples=powers)
