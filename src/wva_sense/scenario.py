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
from .fbg import FbgParams, bragg_center, reflect
from .osa import OsaParams, measure_samples, osa_trace, rbw_kernel
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
    post_select,
    projected_power,
)

REFERENCE_BETA_RAD = -math.pi / 2


@dataclass(frozen=True)
class SourceParams:
    """Broad-band source: carrier frequency, power 1/e half-width, field scale."""

    nu0_thz: float
    b_thz: float
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if self.nu0_thz <= 0 or self.b_thz <= 0:
            raise ValueError("source nu0_thz and b_thz must be > 0")
        if not math.isfinite(self.amplitude * self.amplitude):
            raise ValueError(f"amplitude squared overflows a float, got {self.amplitude!r}")


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


def _overlap(sc: Scenario) -> float:
    """Spectral overlap gamma of the two gratings' lobes at the scenario's t1."""
    c1, c2 = scenario_centers(sc)
    b_eff = (sc.fbg1.bandwidth_b_thz + sc.fbg2.bandwidth_b_thz) / 2
    return overlap_gamma((c1 - c2) / 2, b_eff)


def scenario_amplification(sc: Scenario) -> float:
    """Amplification factor at the scenario's beta, overlap and residual phase."""
    return amplification_factor(sc.beta_rad, _overlap(sc), sc.delta_rad)


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
    ex = np.sqrt(scale * s1.samples)
    nu = g.frequencies()
    ey = np.sqrt(scale * s2.samples) * np.exp(
        1j * (2.0 * math.pi * nu * sc.tau_ps + sc.delta_rad)
    )
    return PolarizedFieldSpectrum(grid=g, ex=ex, ey=ey)


def scenario_raw_spectrum(sc: Scenario, beta_rad: Optional[float] = None) -> Spectrum:
    """Ideal post-selected spectrum before any instrument effects."""
    beta = sc.beta_rad if beta_rad is None else beta_rad
    return post_select(scenario_field(sc), beta)


def scenario_trace(
    sc: Scenario, beta_rad: Optional[float] = None, stream: Optional[int] = None
) -> Spectrum:
    """Measured spectrum: the raw spectrum through the OSA model, if any, on
    noise `stream`."""
    raw = scenario_raw_spectrum(sc, beta_rad)
    return raw if sc.osa is None else osa_trace(raw, sc.osa, sc.units, stream=stream)


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
class _FilterPlan:
    """The scenario filter on one grid: frequencies, the nodes searched for
    the main-lobe peak, half-width and order."""

    nu: np.ndarray
    spacing: float
    window: slice
    half_width: float
    order: int

    def center(self, samples: np.ndarray) -> float:
        """Window argmax refined by log-parabolic interpolation."""
        i = self.window.start + int(np.argmax(samples[self.window]))
        return _refine_peak(self.nu, samples, i, self.spacing)

    def apply(self, samples: np.ndarray) -> np.ndarray:
        gain = super_gaussian_gain(self.nu, self.center(samples), self.half_width, self.order)
        return samples * gain


def _filter_plan(sc: Scenario, grid: FrequencyGrid) -> _FilterPlan:
    """Search window: the predicted Bragg centers widened by the wider
    grating's bandwidth, or the whole grid if no node falls inside.
    Half-width: half_width_thz, or half_width_factor times that bandwidth."""
    nu = grid.frequencies()
    c1, c2 = scenario_centers(sc)
    w = max(sc.fbg1.bandwidth_b_thz, sc.fbg2.bandwidth_b_thz)
    # nu ascends, so the nodes inside the window are contiguous.
    inside = np.flatnonzero((nu >= min(c1, c2) - w) & (nu <= max(c1, c2) + w))
    window = slice(int(inside[0]), int(inside[-1]) + 1) if inside.size else slice(0, nu.size)
    half_width = sc.filter.half_width_thz
    if half_width is None:
        half_width = sc.filter.half_width_factor * w
    return _FilterPlan(nu, grid.spacing, window, half_width, sc.filter.order)


def filter_center(sc: Scenario, trace: Spectrum) -> float:
    """Main-lobe peak of the measured spectrum, for centering the filter.

    The argmax search is restricted to a window around the predicted Bragg
    centers so a residual side lobe cannot capture the filter at strongly
    attenuating post-selection angles; the node argmax is then refined by
    log-parabolic interpolation to avoid grid-quantization bias in the
    filtered centroid.
    """
    return _filter_plan(sc, trace.grid).center(trace.samples)


def apply_scenario_filter(sc: Scenario, trace: Spectrum) -> Spectrum:
    """Super-Gaussian filter with scenario defaults; identity when disabled."""
    if not sc.filter.enabled:
        return trace
    return Spectrum(grid=trace.grid, samples=_filter_plan(sc, trace.grid).apply(trace.samples))


@dataclass(frozen=True)
class InterrogationResult:
    """One measurement: spectra, referenced shift and effective amplification.

    `raw` is the measured trace before filtering; `raw_power` is the total
    power of the ideal post-selected spectrum, before the OSA.
    """

    raw: Spectrum
    raw_power: float
    filtered: Spectrum
    centroid_thz: float
    centroid_nm_shift: float
    reference_thz: float
    reference_nm: float
    a_effective: float


@dataclass(frozen=True)
class SweepPoint:
    """One measurement on bare arrays: the measured trace before the filter,
    the filtered samples, the trace's peak sample, the total power of the
    ideal post-selected spectrum, the filtered centroid (THz) and A."""

    beta_rad: float
    trace: np.ndarray = field(repr=False)
    filtered: np.ndarray = field(repr=False)
    peak: float
    raw_power: float
    centroid_thz: float
    a: float


class SweepKernel:
    """A scenario's measurement with every beta-independent part built once.

    The two-arm field, grid frequencies, RBW kernel, filter window and
    half-width and the overlap gamma are computed here; each angle then runs
    on bare arrays (post-select, OSA, filter, centroid, A) and builds no
    Spectrum. Angle i of a sweep draws OSA noise stream i+1 and the
    reference draws stream 0, so every point equals the single-point
    pipeline on the same stream.
    """

    def __init__(self, sc: Scenario) -> None:
        self.sc = sc
        self.field = scenario_field(sc)
        self.grid = self.field.grid
        self.filter = _filter_plan(sc, self.grid)
        self.rbw = None if sc.osa is None else rbw_kernel(sc.osa, sc.units, self.grid.spacing)
        self.gamma = _overlap(sc)

    def raw(self, beta_rad: float) -> np.ndarray:
        """Ideal post-selected power samples at beta_rad."""
        return projected_power(self.field, beta_rad)

    def measure(self, raw: np.ndarray, stream: int) -> np.ndarray:
        """`raw` through the scenario's OSA model on noise `stream`, if it has one."""
        if self.sc.osa is None:
            return raw
        return measure_samples(raw, self.rbw, self.sc.osa, stream)

    def filtered(self, trace: np.ndarray) -> np.ndarray:
        return self.filter.apply(trace) if self.sc.filter.enabled else trace

    def centroid(self, samples: np.ndarray) -> float:
        return power_centroid(self.filter.nu, samples, self.grid.spacing)

    def amplification(self, beta_rad: float) -> float:
        return amplification_factor(beta_rad, self.gamma, self.sc.delta_rad)

    def peak(self, beta_rad: float, stream: int) -> float:
        """Largest sample of the measured trace at beta_rad."""
        return float(np.max(self.measure(self.raw(beta_rad), stream)))

    def reference(self) -> float:
        """Filtered centroid (THz) at beta = -90 deg on noise stream 0."""
        return self.centroid(self.filtered(self.measure(self.raw(REFERENCE_BETA_RAD), 0)))

    def point(self, beta_rad: float, stream: int) -> SweepPoint:
        """The full measurement at beta_rad; raises NoSignalError or
        SingularPostSelectionError."""
        raw = self.raw(beta_rad)
        trace = self.measure(raw, stream)
        filtered = self.filtered(trace)
        return SweepPoint(
            beta_rad=beta_rad,
            trace=trace,
            filtered=filtered,
            peak=float(np.max(trace)),
            raw_power=trapezoid_power(raw, self.grid.spacing),
            centroid_thz=self.centroid(filtered),
            a=self.amplification(beta_rad),
        )

    def rows(
        self, beta_rad_list: Sequence[float]
    ) -> Iterator[tuple[float, Optional[SweepPoint]]]:
        """(beta, point) per angle, one at a time, on noise stream i+1; the
        point is None where the angle has no signal or is singular."""
        for i, beta in enumerate(beta_rad_list):
            beta = float(beta)
            try:
                point = self.point(beta, i + 1)
            except (NoSignalError, SingularPostSelectionError):
                point = None
            yield beta, point

    def spectrum(self, samples: np.ndarray) -> Spectrum:
        return Spectrum(grid=self.grid, samples=samples)

    def interrogation(self, point: SweepPoint, reference_thz: float) -> InterrogationResult:
        return InterrogationResult(
            raw=self.spectrum(point.trace),
            raw_power=point.raw_power,
            filtered=self.spectrum(point.filtered),
            centroid_thz=point.centroid_thz,
            centroid_nm_shift=self.sc.units.frequency_shift_to_nm(
                point.centroid_thz - reference_thz
            ),
            reference_thz=reference_thz,
            reference_nm=frequency_to_wavelength(reference_thz),
            a_effective=point.a,
        )


def reference_centroid(sc: Scenario) -> float:
    """Centroid (THz) of the beta = -90 deg measurement of this scenario.

    Sees only the fixed-temperature grating; computed once per scenario
    (noise sub-stream 0) and shared by all sweep points.
    """
    return SweepKernel(sc).reference()


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
    if reference_thz is None:
        reference_thz = kernel.reference()
    return kernel.interrogation(kernel.point(sc.beta_rad, stream), reference_thz)


def temperature_points(
    sc: Scenario, dt_list: Sequence[float]
) -> Iterator[tuple[float, InterrogationResult]]:
    """(dt, result) at t1 = t2 + dt for each dt, one at a time, sharing one
    reference; point i draws OSA noise stream i+1."""
    ref = reference_centroid(sc)
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
    ref = kernel.reference()
    return [
        (beta, None if point is None else kernel.interrogation(point, ref))
        for beta, point in kernel.rows(beta_rad_list)
    ]
