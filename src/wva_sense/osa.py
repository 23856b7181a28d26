"""Optical-spectrum-analyzer measurement model and SNR-limited amplification.

The instrument response is a Gaussian convolution of the incident spectrum
(resolution bandwidth quoted in nm, converted to THz at the reference
wavelength) followed by additive noise with per-sample standard deviation
hypot(noise_floor, rel_noise * sample), which squares neither term, and clamping
at zero.

Noise is drawn from numpy's PCG64 generator so traces are reproducible from
the seed alone; the seed lives in OsaParams, never in ambient state. Sweeps
derive one sub-stream per point from (seed, point index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import ConfigError, DetectionLimitedError, SingularPostSelectionError
from .spectral import FrequencyGrid, UnitContext, inclusive_range

if TYPE_CHECKING:  # pragma: no cover
    from .scenario import Scenario

# Kernel truncation: Gaussian mass beyond 7 sigma is < 1e-11, so the
# normalized kernel conserves total power to well under 1e-9 relative.
_KERNEL_SIGMAS = 7.0


@dataclass(frozen=True)
class OsaParams:
    """Resolution bandwidth (Gaussian FWHM, nm), noise levels and RNG seed."""

    rbw_nm: float = 0.0
    noise_floor: float = 0.0
    rel_noise: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rbw_nm < 0:
            raise ValueError(f"rbw_nm must be >= 0, got {self.rbw_nm}")
        if not (self.noise_floor >= 0 and math.isfinite(self.noise_floor * self.noise_floor)):
            raise ValueError(f"noise_floor must be >= 0 with finite square, got {self.noise_floor}")
        if not 0.0 <= self.rel_noise < 1.0:
            raise ValueError(f"rel_noise must lie in [0, 1), got {self.rel_noise}")

    def noise_sigma(self, signal: float | np.ndarray) -> float | np.ndarray:
        """Noise standard deviation at `signal`, a number or an array of samples:
        hypot(noise_floor, rel_noise * signal), or the floor at rel_noise = 0."""
        if self.rel_noise == 0.0:
            return self.noise_floor
        return np.hypot(self.noise_floor, self.rel_noise * signal)


def sub_seed(seed: int, stream: int) -> int:
    """Deterministic 64-bit sub-seed for sweep point `stream`."""
    return int(np.random.SeedSequence((seed, stream)).generate_state(1, np.uint64)[0])


def rbw_kernel(p: OsaParams, units: UnitContext, grid: FrequencyGrid) -> np.ndarray:
    """Normalized Gaussian RBW kernel at the grid's spacing. At rbw_nm = 0 it is
    the one-tap identity [1.0], whose "same" convolution returns the samples
    bit for bit.

    Raises ConfigError naming osa.rbw_nm, before allocating, when the kernel
    would have more taps than the grid has points (the convolution would
    change the trace length) or would not be finite (sigma^2 underflows).
    """
    if p.rbw_nm <= 0.0:
        return np.ones(1)
    spacing = grid.spacing
    rbw_thz = abs(units.nm_shift_to_frequency(p.rbw_nm))
    sigma = rbw_thz / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    reach = _KERNEL_SIGMAS * sigma / spacing
    max_half = (grid.n_points - 1) // 2  # 2 * half + 1 taps fit the grid
    if not (max_half >= 1 and reach <= max_half):  # also catches inf and NaN
        raise ConfigError(f"osa.rbw_nm: {p.rbw_nm!r} nm needs an RBW kernel wider than "
                          f"the {grid.n_points}-point grid")
    half = max(1, int(math.ceil(reach)))
    two_var = 2.0 * sigma**2
    if not two_var > 0.0:
        raise ConfigError(f"osa.rbw_nm: {p.rbw_nm!r} nm is too narrow for a finite RBW kernel")
    offsets = np.arange(-half, half + 1) * spacing
    kernel = np.exp(-(offsets**2) / two_var)
    kernel /= kernel.sum()
    return kernel


def _draws_noise(p: OsaParams) -> bool:
    """True when measure_samples draws noise, which peak_bound must bound."""
    return p.noise_floor > 0.0 or p.rel_noise > 0.0


def stream_normals(p: OsaParams, stream: int, n: int) -> np.ndarray:
    """The n standard normals of noise sub-stream `stream` of p.seed."""
    return np.random.Generator(np.random.PCG64(sub_seed(p.seed, stream))).standard_normal(n)


def measure_samples(
    samples: np.ndarray, kernel: np.ndarray, p: OsaParams, stream: int
) -> np.ndarray:
    """Measured samples: convolution with `kernel` (from rbw_kernel), seeded
    noise on sub-stream `stream` of p.seed, clamp at zero."""
    samples = np.convolve(samples, kernel, mode="same")
    if _draws_noise(p):
        noise = stream_normals(p, stream, samples.size)
        noise *= p.noise_sigma(samples)
        noise += samples
        samples = np.clip(noise, 0.0, None, out=noise)
    return samples


def peak_bound(samples: np.ndarray, p: OsaParams, stream: int) -> float:
    """Upper bound, without the convolution, on the largest sample of
    measure_samples(samples, kernel, p, stream) for any rbw_kernel; +inf,
    drawing nothing, when noise-free. With m = max(samples), no convolved
    sample exceeds S = m * (1 + 1e-9) + min(m, n * ulp(0)): the taps, at most
    the n <= 1e6 grid points, are non-negative and sum to 1 within n * eps,
    and under 2 * m / ulp(0) of them round an underflowing product up, each
    by at most ulp(0) / 2. noise_sigma, measure_samples' rule, rises with the
    sample, so sigma(S) and the stream's own normals bound the draw; the clip
    at zero raises no value, and a final 1e-9 covers the rounding."""
    if not _draws_noise(p):
        return math.inf
    m = float(np.max(samples))
    s = m * (1.0 + 1e-9) + min(m, samples.size * math.ulp(0.0))
    z = float(np.max(stream_normals(p, stream, samples.size)))
    return (s + p.noise_sigma(s) * max(0.0, z)) * (1.0 + 1e-9)


def snr_db(peak: float, p: OsaParams) -> float:
    """Peak SNR (dB) of a trace whose largest sample is `peak`: -inf at a zero
    peak (no light) whatever the noise, else +inf, the distinguished
    noise-free value, when the OSA draws no noise. Otherwise it is the noise
    sigma rule divided by the peak: 10 log10(peak / floor) without relative
    noise (-inf where that quotient underflows to 0), else -10 log10(hypot(
    floor / peak, rel_noise)), so that a subnormal peak never meets a sigma
    of 0. Non-decreasing in the peak."""
    if peak <= 0.0:
        return -math.inf
    if not _draws_noise(p):
        return math.inf
    if p.rel_noise == 0.0:
        ratio = peak / p.noise_floor
        return 10.0 * math.log10(ratio) if ratio > 0.0 else -math.inf
    return -10.0 * math.log10(math.hypot(p.noise_floor / peak, p.rel_noise))


@dataclass(frozen=True)
class UsableAmplification:
    """Best |A| point of a beta sweep that still clears the SNR floor."""

    beta_rad: float
    a: float
    snr_db: float


def same_magnitude(a: float, b: float) -> bool:
    """True when |a| and |b| agree to 1e-9 relative: the two sweep branches
    carry equal |A| at their optima up to float jitter."""
    return abs(abs(a) - abs(b)) <= 1e-9 * max(abs(a), abs(b))


def best_usable(
    points: Iterable[tuple[float, float, float]], snr_min_db: float
) -> tuple[float, float, float]:
    """The largest-|A| (beta, a, snr_db) point with snr_db >= snr_min_db.

    Points of the same_magnitude resolve toward the larger signed A (the
    branch closer to beta = 0); the earlier point wins exact ties. Raises
    DetectionLimitedError when no point clears the floor.
    """
    best = None
    for point in points:
        _, a, snr = point
        if snr < snr_min_db:
            continue
        if best is not None:
            best_a = best[1]
            if not (a > best_a if same_magnitude(a, best_a) else abs(a) > abs(best_a)):
                continue
        best = point
    if best is None:
        raise DetectionLimitedError(f"no post-selection angle reaches {snr_min_db} dB SNR")
    return best


def max_usable_amplification(
    sc: "Scenario",
    snr_min_db: float,
    beta_min_deg: float = -89.0,
    beta_max_deg: float = 0.0,
    step_deg: float = 0.05,
) -> UsableAmplification:
    """The best_usable point of a beta sweep, measuring as few angles as it can.

    A(beta) is closed-form, so it is computed at every angle first (singular
    angles are skipped). The angles are then visited in descending |A|, and
    the peak SNR is measured only while the next angle could still win: the
    search stops at the first angle whose |A| does not have the
    same_magnitude as the smallest usable |A| found so far (it is below it,
    by the visit order). best_usable then scans the measured points in sweep
    order. The cost is one peak bound, and a measurement unless the bound
    screens the angle (below), per angle from the largest |A| down to the
    answer's tie band, plus the closed-form A at every angle.

    This equals best_usable over every angle. A skipped angle's |A| is below
    the smallest usable |A| measured and further from it than the tie
    tolerance, so also from every larger one: each usable point measured
    beats the skipped angle and the skipped angle beats none of them. In the
    full scan it can therefore be the best only before the first measured
    usable point, which replaces it; from there on the two scans make the
    same choices. One SweepKernel serves the search and angle i draws OSA
    noise stream i+1 from its sweep index, so every SNR measured is the full
    scan's value, bit for bit.

    Before an angle is measured, peak_bound gives an upper bound on its
    measured peak from the ideal samples and the angle's own noise draw,
    without the RBW convolution. When the SNR of that bound is below
    the floor by more than the float rounding of snr_db, the angle is
    screened: it is skipped as unusable, without a measurement. This changes
    nothing. snr_db is non-decreasing in the peak, with rel_noise too (floor
    / peak, and so hypot(floor / peak, rel_noise), falls as the peak rises),
    so the measured SNR is at most the bound's and the angle fails the
    floor in the full scan too, where best_usable skips it.

    When no angle clears the floor every angle is screened or measured, as
    in a full scan, and DetectionLimitedError is raised. The angles are
    inclusive_range(beta_min_deg, beta_max_deg, step_deg), whose ValueError
    passes through. Under a noise floor a trace with no light reads the
    floor's own maximum, so noise alone can meet an snr_min_db below about 8 dB.
    """
    from .scenario import SweepKernel

    if not math.isfinite(snr_min_db):
        raise ValueError("snr_min_db must be finite")
    betas = [math.radians(b) for b in inclusive_range(beta_min_deg, beta_max_deg, step_deg)]
    kernel = SweepKernel(sc)
    candidates = []
    for i, beta in enumerate(betas):
        try:
            candidates.append((i, beta, kernel.amplification(beta)))
        except SingularPostSelectionError:
            continue
    candidates.sort(key=lambda c: -abs(c[2]))
    screen_db = snr_min_db - 1e-9 * max(1.0, abs(snr_min_db))  # below snr_db's rounding
    measured, smallest = [], None  # smallest: the last usable A, the least |A| so far
    for i, beta, a in candidates:
        if smallest is not None and not same_magnitude(a, smallest):
            break  # |A| has fallen below the smallest usable |A| and the tie band
        if kernel.snr_db(kernel.peak_bound(beta, i + 1)) < screen_db:
            continue  # certified unusable without measuring it
        snr = kernel.snr_db(kernel.peak(beta, i + 1))
        measured.append((i, beta, a, snr))
        if snr < snr_min_db:
            continue
        smallest = a
    measured.sort()
    beta, a, snr = best_usable(((beta, a, snr) for _, beta, a, snr in measured), snr_min_db)
    return UsableAmplification(beta_rad=beta, a=a, snr_db=snr)
