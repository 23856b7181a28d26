"""Optical-spectrum-analyzer measurement model and SNR-limited amplification.

The instrument response is a Gaussian convolution of the incident spectrum
(resolution bandwidth quoted in nm, converted to THz at the reference
wavelength) followed by additive noise with per-sample standard deviation
sqrt(noise_floor^2 + (rel_noise * sample)^2) and clamping at zero.

Noise is drawn from numpy's PCG64 generator so traces are reproducible from
the seed alone; the seed lives in OsaParams, never in ambient state. Sweeps
derive one sub-stream per point from (seed, point index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from .errors import DetectionLimitedError, SingularPostSelectionError
from .spectral import Spectrum, UnitContext, inclusive_range

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


def sub_seed(seed: int, stream: int) -> int:
    """Deterministic 64-bit sub-seed for sweep point `stream`."""
    return int(np.random.SeedSequence((seed, stream)).generate_state(1, np.uint64)[0])


def rbw_kernel(p: OsaParams, units: UnitContext, spacing: float) -> np.ndarray | None:
    """Normalized Gaussian RBW kernel on a grid of `spacing` THz; None at rbw_nm = 0."""
    if p.rbw_nm <= 0.0:
        return None
    rbw_thz = abs(units.nm_shift_to_frequency(p.rbw_nm))
    sigma = rbw_thz / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    half = max(1, int(math.ceil(_KERNEL_SIGMAS * sigma / spacing)))
    offsets = np.arange(-half, half + 1) * spacing
    kernel = np.exp(-(offsets**2) / (2.0 * sigma**2))
    kernel /= kernel.sum()
    return kernel


def measure_samples(
    samples: np.ndarray, kernel: np.ndarray | None, p: OsaParams, stream: int | None
) -> np.ndarray:
    """Measured samples: convolution with `kernel` (from rbw_kernel), seeded
    noise on sub-stream `stream` of p.seed (None: the seed itself), clamp at zero."""
    if kernel is not None:
        samples = np.convolve(samples, kernel, mode="same")
    if p.noise_floor > 0.0 or p.rel_noise > 0.0:
        seed = p.seed if stream is None else sub_seed(p.seed, stream)
        rng = np.random.Generator(np.random.PCG64(seed))
        sigma_per_sample = np.sqrt(p.noise_floor**2 + (p.rel_noise * samples) ** 2)
        samples = samples + rng.standard_normal(samples.size) * sigma_per_sample
        samples = np.clip(samples, 0.0, None)
    return samples


def osa_trace(
    s: Spectrum,
    p: OsaParams,
    units: UnitContext | None = None,
    stream: int | None = None,
) -> Spectrum:
    """Measured trace: RBW convolution, seeded noise injection, clamp at zero.

    With rbw_nm = 0 and zero noise this is the identity. `stream` selects a
    sub-stream of the seed for sweep points; None uses the seed directly.
    """
    kernel = rbw_kernel(p, units or UnitContext(), s.grid.spacing)
    return Spectrum(grid=s.grid, samples=measure_samples(s.samples, kernel, p, stream))


@dataclass(frozen=True)
class SnrReport:
    peak_signal: float
    noise_sigma: float
    snr_db: float


def snr_report(peak: float, p: OsaParams) -> SnrReport:
    """SNR of a trace whose largest sample is `peak`, against the noise model.

    noise_sigma combines the floor with the signal-proportional term in
    quadrature at the peak. Zero noise reports snr_db = +inf as the
    distinguished noise-free value.
    """
    noise_sigma = math.sqrt(p.noise_floor**2 + (p.rel_noise * peak) ** 2)
    if noise_sigma == 0.0:
        return SnrReport(peak_signal=peak, noise_sigma=0.0, snr_db=math.inf)
    if peak <= 0.0:
        return SnrReport(peak_signal=peak, noise_sigma=noise_sigma, snr_db=-math.inf)
    return SnrReport(
        peak_signal=peak,
        noise_sigma=noise_sigma,
        snr_db=10.0 * math.log10(peak / noise_sigma),
    )


def snr_estimate(trace: Spectrum, p: OsaParams) -> SnrReport:
    """Peak-sample SNR of a trace (see snr_report)."""
    return snr_report(float(np.max(trace.samples)), p)


@dataclass(frozen=True)
class UsableAmplification:
    """Best |A| point of a beta sweep that still clears the SNR floor."""

    beta_rad: float
    a: float
    snr_db: float


def best_usable(
    points: Iterable[tuple[float, float, float]], snr_min_db: float
) -> tuple[float, float, float]:
    """The largest-|A| (beta, a, snr_db) point with snr_db >= snr_min_db.

    The two sweep branches carry equal |A| at their optima up to float
    jitter, so |A| values within 1e-9 relative tie and resolve toward the
    larger signed A (the branch closer to beta = 0); the earlier point wins
    exact ties. Raises DetectionLimitedError when no point clears the floor.
    """
    best = None
    for point in points:
        _, a, snr = point
        if snr < snr_min_db:
            continue
        if best is not None:
            best_a = best[1]
            tie = abs(abs(a) - abs(best_a)) <= 1e-9 * max(abs(a), abs(best_a))
            if not (a > best_a if tie else abs(a) > abs(best_a)):
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
    """Sweep beta, keep points with SNR >= snr_min_db, return the largest |A|.

    One SweepKernel serves the whole sweep; angle i draws OSA noise stream
    i+1, so the result is deterministic given the scenario's seed. Only
    (beta, A, snr_db) is kept per angle. Ties follow best_usable. Raises
    DetectionLimitedError when no angle clears the floor.
    """
    from .scenario import SweepKernel

    if not math.isfinite(snr_min_db):
        raise ValueError("snr_min_db must be finite")
    if beta_max_deg <= beta_min_deg:
        raise ValueError("invalid beta sweep range")
    betas = [math.radians(b) for b in inclusive_range(beta_min_deg, beta_max_deg, step_deg)]
    kernel = SweepKernel(sc)
    osa = sc.osa or OsaParams()

    def usable() -> Iterator[tuple[float, float, float]]:
        for i, beta in enumerate(betas):
            try:
                a = kernel.amplification(beta)
            except SingularPostSelectionError:
                continue
            yield beta, a, snr_report(kernel.peak(beta, i + 1), osa).snr_db

    beta, a, snr = best_usable(usable(), snr_min_db)
    return UsableAmplification(beta_rad=beta, a=a, snr_db=snr)
