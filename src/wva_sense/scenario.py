"""End-to-end interrogation pipeline: two gratings -> interferometer ->
post-selection -> measurement -> filtered centroid readout.

Shifts are reported in nm against the reference centroid measured once per
scenario at beta = -90 deg (which sees only the fixed-temperature grating).
Positive nm means longer wavelength; the frequency-domain sign flip happens
at the conversion boundary in UnitContext.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import ConfigError, NoSignalError, SingularPostSelectionError
from .fbg import FbgParams, bragg_center, check_width, reflect
from .osa import OsaParams, measure_samples, rbw_kernel, snr_report
from .spectral import (
    MAX_RANGE_POINTS,
    FrequencyGrid,
    Spectrum,
    UnitContext,
    frequency_to_wavelength,
    make_grid,
    power_centroid,
    super_gaussian_gain,
    trapezoid_power,
)
from .wva import (
    PolarizedFieldSpectrum,
    amplification_factor,
    overlap_gamma,
    projected_power,
    two_arm_field,
)

REFERENCE_BETA_RAD = -math.pi / 2


@dataclass(frozen=True)
class SourceParams:
    """Broad-band source: carrier frequency, power 1/e half-width, field scale."""

    nu0_thz: float
    b_thz: float
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if self.nu0_thz <= 0:
            raise ValueError("source nu0_thz must be > 0")
        check_width("b_thz", self.b_thz)
        # The noise variance of a measured trace scales as amplitude**4.
        squared = self.amplitude * self.amplitude
        if not math.isfinite(squared * squared):
            raise ValueError("amplitude squared overflows a float or its square does, "
                             f"got {self.amplitude!r}")


@dataclass(frozen=True)
class FilterSettings:
    """Super-Gaussian filter applied to each measured spectrum.

    The half-width is half_width_factor times the wider grating's power 1/e
    half-width unless half_width_thz is given explicitly. The filter is
    centered per measurement on the main-lobe peak: the trace argmax within
    a window around the predicted Bragg centers, refined to sub-sample
    precision by log-parabolic interpolation.
    """

    enabled: bool = True
    order: int = 4
    half_width_factor: float = 1.5
    half_width_thz: Optional[float] = None

    def __post_init__(self) -> None:
        if self.order <= 0 or self.order % 2 != 0:
            raise ValueError(f"filter order must be positive even, got {self.order}")
        if self.half_width_factor <= 0:
            raise ValueError("half_width_factor must be > 0")
        if self.half_width_thz is not None and self.half_width_thz <= 0:
            raise ValueError("half_width_thz must be > 0")


@dataclass(frozen=True)
class GridSettings:
    """Discretization: defaults center on the gratings and span 10x their FWHM."""

    n_points: int = 4001
    span_factor: float = 10.0
    center_thz: Optional[float] = None
    span_thz: Optional[float] = None

    def __post_init__(self) -> None:
        if not 2 <= self.n_points <= MAX_RANGE_POINTS:
            raise ValueError(f"n_points must lie in [2, {MAX_RANGE_POINTS}]")
        if self.span_factor <= 0:
            raise ValueError("span_factor must be > 0")
        if self.span_thz is not None and self.span_thz <= 0:
            raise ValueError("span_thz must be > 0")


@dataclass(frozen=True)
class Scenario:
    """Complete description of one interrogation experiment."""

    source: SourceParams
    fbg1: FbgParams
    fbg2: FbgParams
    t1_c: float
    t2_c: float
    tau_ps: float = 0.0
    phi_rad: float = 0.0
    gamma_lcvr_rad: float = 0.0
    beta_rad: float = 0.0
    filter: FilterSettings = field(default_factory=FilterSettings)
    grid: GridSettings = field(default_factory=GridSettings)
    osa: Optional[OsaParams] = None
    units: UnitContext = field(default_factory=UnitContext)

    def __post_init__(self) -> None:
        for name, f in (("fbg1", self.fbg1), ("fbg2", self.fbg2)):
            if f.bandwidth_b_thz >= self.source.b_thz:
                raise ConfigError(
                    f"{name} bandwidth {f.bandwidth_b_thz} THz must be smaller "
                    f"than the source bandwidth {self.source.b_thz} THz"
                )

    @property
    def delta_rad(self) -> float:
        return self.phi_rad - self.gamma_lcvr_rad


def scenario_grid(sc: Scenario) -> FrequencyGrid:
    center = sc.grid.center_thz
    if center is None:
        center = (sc.fbg1.center_ref_thz + sc.fbg2.center_ref_thz) / 2
    span = sc.grid.span_thz
    if span is None:
        span = sc.grid.span_factor * max(sc.fbg1.fwhm_thz, sc.fbg2.fwhm_thz)
    try:
        return make_grid(center, span, sc.grid.n_points)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from None


def scenario_centers(sc: Scenario) -> tuple[float, float]:
    """Bragg centers (THz) of the sensing and reference gratings.

    The reference temperature for both is t2_c, so the second grating sits at
    its reference center.
    """
    c1 = bragg_center(sc.fbg1, sc.t1_c, sc.t2_c, sc.units)
    c2 = bragg_center(sc.fbg2, sc.t2_c, sc.t2_c, sc.units)
    return c1, c2


def scenario_field(sc: Scenario) -> PolarizedFieldSpectrum:
    """Recombined field: each arm is the square root of its grating's
    reflected power spectrum (halved by the 45-degree pre-selection), with
    the delay/birefringence phase on the y arm."""
    g = scenario_grid(sc)
    c1, c2 = scenario_centers(sc)
    for name, center, t_c in (("fbg1", c1, sc.t1_c), ("fbg2", c2, sc.t2_c)):
        if not g.lo <= center <= g.hi:
            raise ConfigError(
                f"{name} Bragg center at {t_c:g} degC ({center:.9g} THz) lies outside "
                f"the grid [{g.lo:.9g}, {g.hi:.9g}] THz"
            )
    s1 = reflect(sc.fbg1, sc.source.b_thz, sc.source.nu0_thz, c1, g)
    s2 = reflect(sc.fbg2, sc.source.b_thz, sc.source.nu0_thz, c2, g)
    scale = sc.source.amplitude**2 / 2.0
    return two_arm_field(
        g, np.sqrt(scale * s1.samples), np.sqrt(scale * s2.samples), sc.tau_ps, sc.delta_rad
    )


def _refine_peak(nu: np.ndarray, y: np.ndarray, i: int, spacing: float) -> float:
    """Log-parabolic sub-sample peak position around discrete argmax i.

    Exact for sampled Gaussians; falls back to the node position when the
    neighbors are unusable (edges, zeros, non-concave log samples).
    """
    if i == 0 or i == len(y) - 1:
        return float(nu[i])
    y0, y1, y2 = y[i - 1], y[i], y[i + 1]
    if y0 <= 0.0 or y1 <= 0.0 or y2 <= 0.0:
        return float(nu[i])
    l0, l1, l2 = math.log(y0), math.log(y1), math.log(y2)
    denom = l0 - 2.0 * l1 + l2
    if denom >= 0.0:
        return float(nu[i])
    shift = 0.5 * (l0 - l2) / denom
    shift = max(-0.5, min(0.5, shift))
    return float(nu[i] + shift * spacing)


@dataclass(frozen=True)
class InterrogationResult:
    """One measurement on bare arrays on the kernel's grid.

    `trace` is the measured trace before the filter and `filtered_trace` the
    trace after it; `raw` and `filtered` are their Spectrum views, built
    when read. `raw_power` is the total power of the ideal post-selected
    spectrum, before the OSA, and `snr_db` the peak SNR of the trace (+inf
    without an OSA). The centroid shift is referenced to `reference_thz`.
    """

    grid: FrequencyGrid = field(repr=False)
    beta_rad: float
    trace: np.ndarray = field(repr=False)
    filtered_trace: np.ndarray = field(repr=False)
    raw_power: float
    snr_db: float
    centroid_thz: float
    centroid_nm_shift: float
    reference_thz: float
    a_effective: float

    @property
    def raw(self) -> Spectrum:
        return Spectrum(self.grid, self.trace)

    @property
    def filtered(self) -> Spectrum:
        return Spectrum(self.grid, self.filtered_trace)

    @property
    def reference_nm(self) -> float:
        return frequency_to_wavelength(self.reference_thz)


class SweepKernel:
    """A scenario's measurement with every beta-independent part built once.

    The two-arm field, grid frequencies, RBW kernel, overlap gamma and the
    filter's search window and half-width are computed here; each angle then
    runs on bare arrays (post-select, OSA, filter, centroid, A). Angle i of
    a sweep draws OSA noise stream i+1 and the reference draws stream 0, so
    every point equals the single-point pipeline on the same stream.

    Filter search window: the predicted Bragg centers widened by the wider
    grating's bandwidth, or the whole grid if no node falls inside.
    Half-width: half_width_thz, or half_width_factor times that bandwidth.
    """

    def __init__(self, sc: Scenario) -> None:
        self.sc = sc
        self.field = scenario_field(sc)
        self.grid = grid = self.field.grid
        self.nu = grid.frequencies()
        c1, c2 = scenario_centers(sc)
        w = max(sc.fbg1.bandwidth_b_thz, sc.fbg2.bandwidth_b_thz)
        # nu ascends, so the nodes inside the window are contiguous.
        inside = np.flatnonzero((self.nu >= min(c1, c2) - w) & (self.nu <= max(c1, c2) + w))
        self.window = (slice(int(inside[0]), int(inside[-1]) + 1) if inside.size
                       else slice(0, self.nu.size))
        half_width = sc.filter.half_width_thz
        if half_width is None:
            half_width = sc.filter.half_width_factor * w
        # The gain raises |nu - center| / half_width, at most span / half_width,
        # to the order.
        try:
            reach = (grid.span / half_width) ** sc.filter.order
        except OverflowError:
            reach = math.inf
        if not math.isfinite(reach):
            raise ConfigError(f"filter: a half-width of {half_width!r} THz overflows the "
                              f"order-{sc.filter.order} gain on a {grid.span:.9g} THz grid")
        self.half_width = half_width
        self.rbw = None if sc.osa is None else rbw_kernel(sc.osa, sc.units, grid)
        b_eff = (sc.fbg1.bandwidth_b_thz + sc.fbg2.bandwidth_b_thz) / 2
        self.gamma = overlap_gamma((c1 - c2) / 2, b_eff)

    def raw(self, beta_rad: float) -> np.ndarray:
        """Ideal post-selected power samples at beta_rad."""
        return projected_power(self.field, beta_rad)

    def measure(self, raw: np.ndarray, stream: int) -> np.ndarray:
        """`raw` through the scenario's OSA model on noise `stream`, if it has one."""
        if self.sc.osa is None:
            return raw
        return measure_samples(raw, self.rbw, self.sc.osa, stream)

    def filter_center(self, samples: np.ndarray) -> float:
        """Main-lobe peak: the argmax within the window, so a residual side
        lobe cannot capture the filter at strongly attenuating angles, refined
        by log-parabolic interpolation against grid-quantization bias."""
        i = self.window.start + int(np.argmax(samples[self.window]))
        return _refine_peak(self.nu, samples, i, self.grid.spacing)

    def filtered(self, trace: np.ndarray) -> np.ndarray:
        if not self.sc.filter.enabled:
            return trace
        center = self.filter_center(trace)
        return trace * super_gaussian_gain(self.nu, center, self.half_width, self.sc.filter.order)

    def centroid(self, samples: np.ndarray) -> float:
        return power_centroid(self.nu, samples, self.grid.spacing)

    def amplification(self, beta_rad: float) -> float:
        return amplification_factor(beta_rad, self.gamma, self.sc.delta_rad)

    def snr_db(self, peak: float) -> float:
        """Peak SNR (dB) of a measured trace whose largest sample is `peak`;
        +inf without an OSA, as with a noise-free one."""
        return math.inf if self.sc.osa is None else snr_report(peak, self.sc.osa).snr_db

    def peak(self, beta_rad: float, stream: int) -> float:
        """Largest sample of the measured trace at beta_rad."""
        return float(np.max(self.measure(self.raw(beta_rad), stream)))

    def reference(self) -> float:
        """Filtered centroid (THz) at beta = -90 deg on noise stream 0."""
        return self.centroid(self.filtered(self.measure(self.raw(REFERENCE_BETA_RAD), 0)))

    def point(self, beta_rad: float, stream: int, reference_thz: float) -> InterrogationResult:
        """The full measurement at beta_rad on noise `stream`, its shift
        referenced to `reference_thz`; raises NoSignalError or
        SingularPostSelectionError."""
        raw = self.raw(beta_rad)
        trace = self.measure(raw, stream)
        filtered = self.filtered(trace)
        centroid_thz = self.centroid(filtered)
        return InterrogationResult(
            self.grid, beta_rad, trace, filtered,
            raw_power=trapezoid_power(raw, self.grid.spacing),
            snr_db=self.snr_db(float(np.max(trace))),
            centroid_thz=centroid_thz,
            centroid_nm_shift=self.sc.units.frequency_shift_to_nm(centroid_thz - reference_thz),
            reference_thz=reference_thz,
            a_effective=self.amplification(beta_rad),
        )

    def rows(
        self, beta_rad_list: Sequence[float], reference_thz: float
    ) -> Iterator[tuple[float, Optional[InterrogationResult]]]:
        """(beta, point) per angle, one at a time, on noise stream i+1; the
        point is None where the angle has no signal or is singular."""
        for i, beta in enumerate(beta_rad_list):
            beta = float(beta)
            try:
                point = self.point(beta, i + 1, reference_thz)
            except (NoSignalError, SingularPostSelectionError):
                point = None
            yield beta, point


def simulate_interrogation(
    sc: Scenario,
    reference_thz: Optional[float] = None,
    stream: int = 1,
) -> InterrogationResult:
    """Full pipeline at the scenario's beta and t1.

    Builds both reflections, recombines and post-selects, applies the OSA
    model when configured, filters, and reports the centroid shift in nm
    against the beta = -90 deg reference centroid (computed here when not
    supplied). Propagates no-signal and singular-post-selection errors.
    """
    kernel = SweepKernel(sc)
    ref = kernel.reference() if reference_thz is None else reference_thz
    return kernel.point(sc.beta_rad, stream, ref)


def temperature_points(
    sc: Scenario, dt_list: Sequence[float]
) -> Iterator[tuple[float, InterrogationResult]]:
    """(dt, result) at t1 = t2 + dt for each dt, one at a time, sharing one
    reference; point i draws OSA noise stream i+1."""
    ref = SweepKernel(sc).reference()
    for i, dt in enumerate(dt_list):
        point = replace(sc, t1_c=sc.t2_c + dt)
        yield float(dt), simulate_interrogation(point, ref, stream=i + 1)


def sweep_temperature(
    sc: Scenario, dt_list: Sequence[float]
) -> list[tuple[float, InterrogationResult]]:
    """Interrogate at t1 = t2 + dt for each dt, sharing one reference."""
    return list(temperature_points(sc, dt_list))


def sweep_beta(
    sc: Scenario, beta_rad_list: Sequence[float]
) -> list[tuple[float, Optional[InterrogationResult]]]:
    """Interrogate at each post-selection angle, sharing one reference.

    One SweepKernel serves the sweep and angle i draws OSA noise stream i+1,
    so entry i equals simulate_interrogation(replace(sc, beta_rad=beta),
    reference, stream=i + 1). Dark-port and singular points are recorded as
    None rather than aborting the sweep.
    """
    kernel = SweepKernel(sc)
    return list(kernel.rows(beta_rad_list, kernel.reference()))
