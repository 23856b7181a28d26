"""End-to-end interrogation pipeline: two gratings -> interferometer ->
post-selection -> measurement -> filtered centroid readout.

Shifts are reported in nm against the reference centroid measured once per
scenario at beta = -90 deg (which sees only the fixed-temperature grating).
Positive nm means longer wavelength; the frequency-domain sign flip happens
at the conversion boundary in UnitContext.
"""

from __future__ import annotations

import copy
import math
import os
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import ConfigError, NoSignalError, SingularPostSelectionError
from .fbg import FbgParams, _lobe_peak, bragg_center, check_width, reflect
from .osa import OsaParams, measure_samples, peak_bound, rbw_kernel, snr_db
from .spectral import (
    MAX_RANGE_POINTS,
    FrequencyGrid,
    UnitContext,
    _last_digit,
    power_centroid,
    super_gaussian_filter,
    trapezoid_power,
)
from .wva import PolarizedFieldSpectrum, amplification_factor, projected_power, two_arm_field

REFERENCE_BETA_RAD = -math.pi / 2

# Fewest grid samples (sweep points x n_points) a forked worker must measure.
# On a 2-CPU x86-64 machine (Python 3.11, numpy 2.4), a process's first
# fan-out took 18 ms to start and join two idle workers, 7 ms of it importing
# multiprocessing, and later ones 5 ms; a point cost 0.11-0.13 us per grid
# sample serially, and two workers measured an 1801-angle sweep 1.65x as fast
# as one. A CLI run pays the first start-up, which about 190000 samples per
# worker win back.
_MIN_SAMPLES_PER_WORKER = 200_000


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
        # The documented input range: amplitude**4 is finite, so the closed
        # forms' sqrt(p1 * p2) is too: each p_k of _lobes is at most amplitude**2 / 2.
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
        # super_gaussian_filter takes 1.0 / order, so the order must be a float too.
        if self.order <= 0 or self.order % 2 != 0 or self.order > sys.float_info.max:
            raise ValueError("filter order must be positive, even and at most the largest "
                             f"float, got {self.order!r:.80}")
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
    osa: OsaParams = field(default_factory=OsaParams)
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
    """The scenario's grid; ConfigError names `grid` where it is invalid, or
    its spacing is no wider than the last digit a spectrum CSV writes at its
    top node, where written nodes would not be distinct and ascending."""
    center = sc.grid.center_thz
    if center is None:
        center = (sc.fbg1.center_ref_thz + sc.fbg2.center_ref_thz) / 2
    span = sc.grid.span_thz
    if span is None:
        span = sc.grid.span_factor * max(sc.fbg1.fwhm_thz, sc.fbg2.fwhm_thz)
    try:
        g = FrequencyGrid(center, span, sc.grid.n_points)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from None
    unit = _last_digit(g.hi)
    if not g.spacing > unit:
        raise ConfigError(f"grid: a spacing of {g.spacing!r} THz is not above {unit:g} THz, "
                          f"the last digit a spectrum CSV writes at {g.hi:.9g} THz")
    return g


def scenario_centers(sc: Scenario) -> tuple[float, float]:
    """Bragg centers (THz) of the sensing and reference gratings.

    The reference temperature for both is t2_c, so the second grating sits at
    its reference center.
    """
    c1 = bragg_center(sc.fbg1, sc.t1_c, sc.t2_c, sc.units)
    c2 = bragg_center(sc.fbg2, sc.t2_c, sc.t2_c, sc.units)
    return c1, c2


def _check_phase(sc: Scenario, g: FrequencyGrid) -> None:
    """Raise ConfigError naming interferometer where the y-arm phase
    2 pi nu tau + delta overflows a float at the grid's top node."""
    if not math.isfinite(2.0 * math.pi * g.hi * abs(sc.tau_ps) + abs(sc.delta_rad)):
        raise ConfigError(f"interferometer: the y-arm phase 2 pi nu tau + delta overflows on "
                          f"the grid, tau_ps={sc.tau_ps!r}, delta_rad={sc.delta_rad!r}")


def _arm(sc: Scenario, name: str, center: float, g: FrequencyGrid) -> np.ndarray:
    """Real field amplitude of the arm of grating `name` (fbg1 at t1, fbg2 at
    t2) centered at `center`: sqrt(E0^2/2 times `reflect`'s spectrum), the /2
    for the 45-degree pre-selection, so the main-lobe peak power is _lobes' p_k.
    Raises ConfigError naming the grating where `reflect` refuses a center off the grid."""
    f, t_c = (sc.fbg1, sc.t1_c) if name == "fbg1" else (sc.fbg2, sc.t2_c)
    try:
        power = reflect(f, sc.source.b_thz, sc.source.nu0_thz, center, g)
    except ValueError:
        raise ConfigError(f"{name} Bragg center at {t_c:g} degC ({center:.9g} THz) lies "
                          f"outside the grid [{g.lo:.9g}, {g.hi:.9g}] THz") from None
    return np.sqrt(sc.source.amplitude**2 / 2.0 * power.samples)


def scenario_field(sc: Scenario) -> PolarizedFieldSpectrum:
    """Recombined field: each arm is the square root of its grating's
    reflected power spectrum (halved by the 45-degree pre-selection), with
    the delay/birefringence phase on the y arm; raises _check_phase's
    ConfigError, then _arm's for fbg1 and for fbg2."""
    g = scenario_grid(sc)
    _check_phase(sc, g)
    c1, c2 = scenario_centers(sc)
    return two_arm_field(g, _arm(sc, "fbg1", c1, g), _arm(sc, "fbg2", c2, g),
                         sc.tau_ps, sc.delta_rad)


def _lobes(sc: Scenario) -> tuple[tuple[float, float, float], tuple[float, float, float], float]:
    """((p1, c1, B1), (p2, c2, B2), G): each main lobe's power, E0^2/2 times the
    peak `reflect` gives it (fbg._lobe_peak), its Bragg center and 1/e half-width,
    and their overlap G = exp(-(c1 - c2)^2 / (2 (B1^2 + B2^2))), the kernel's gamma."""
    s = sc.source
    lobe1, lobe2 = ((s.amplitude**2 / 2.0 * _lobe_peak(f, s.b_thz, s.nu0_thz, c), c,
                     f.bandwidth_b_thz) for f, c in zip((sc.fbg1, sc.fbg2), scenario_centers(sc)))
    (_, c1, b1), (_, c2, b2) = lobe1, lobe2
    return lobe1, lobe2, math.exp(-((c1 - c2) ** 2) / (2.0 * (b1**2 + b2**2)))


def _exact_terms(sc: Scenario) -> tuple[float, ...]:
    """(p1, p2, c1, c2, B1, B2, W2, m, G) of the closed form: lobe k is
    p_k exp[-(nu - c_k)^2 / B_k^2] with _lobes' (p_k, c_k, B_k), and the cross
    lobe sqrt(lobe1 lobe2) is G exp[-(nu - m)^2 / W2]. Raises ValueError for
    a side lobe: its arm sqrt(main + side) has no Gaussian cross term."""
    for name, f in (("fbg1", sc.fbg1), ("fbg2", sc.fbg2)):
        if f.side_lobe is not None:
            raise ValueError(f"{name} has a side lobe: the exact closed form "
                             "covers Gaussian lobes only")
    (p1, c1, b1), (p2, c2, b2), g = _lobes(sc)
    s2 = b1**2 + b2**2
    # 1/W2 = 1/(2 B1^2) + 1/(2 B2^2), which is B1^2 bit for bit at equal
    # widths; m relative to c2, as the weighted mean loses ~10 bits at 200 THz.
    return p1, p2, c1, c2, b1, b2, b1**2 * (2.0 * b2**2 / s2), c2 + (c1 - c2) * b2**2 / s2, g


def exact_spectrum(sc: Scenario, beta_rad: float) -> np.ndarray:
    """Closed-form ideal post-selected power on scenario_grid(sc), clipped at 0:
    c^2 p1 L1 + s^2 p2 L2 + 2cs sqrt(p1 p2) G exp[-(nu-m)^2/W2] cos(2 pi nu tau + delta),
    with c = cos(beta), s = sin(beta) and L_k = exp[-(nu - c_k)^2 / B_k^2];
    raises scenario_field's ConfigError where the phase overflows."""
    p1, p2, c1, c2, b1, b2, w2, m, g = _exact_terms(sc)
    grid = scenario_grid(sc)
    _check_phase(sc, grid)
    nu = grid.frequencies()
    c, s = math.cos(beta_rad), math.sin(beta_rad)
    samples = (c * c * p1 * np.exp(-((nu - c1) ** 2) / b1**2)
               + s * s * p2 * np.exp(-((nu - c2) ** 2) / b2**2)
               + 2.0 * c * s * math.sqrt(p1 * p2) * g * np.exp(-((nu - m) ** 2) / w2)
               * np.cos(2.0 * math.pi * nu * sc.tau_ps + sc.delta_rad))
    return np.clip(samples, 0.0, None)


def exact_centroid(sc: Scenario, beta_rad: float) -> float:
    """Centroid (THz) of exact_spectrum over all frequencies, at any dt, beta
    and tau; nu_plus + A nu_minus exactly at tau = 0 with equal lobes.

    The lobes carry power c^2 p1 sqrt(pi) B1 and s^2 p2 sqrt(pi) B2, and the
    cross term 2cs sqrt(p1 p2) G D cos(theta), where theta = 2 pi m tau + delta
    and D = sqrt(pi W2) exp(-pi^2 tau^2 W2), 0 where pi^2 tau^2 overflows; its
    first moment has m cos(theta) - pi tau W2 sin(theta) for cos(theta).
    Where the cross term is 0, theta, which may overflow, is not evaluated.
    Moments are taken about c2. Raises NoSignalError where the power cancels
    to 1e-12 of the lobes' (the dark port).
    """
    p1, p2, c1, c2, b1, b2, w2, m, g = _exact_terms(sc)
    c, s, tau = math.cos(beta_rad), math.sin(beta_rad), sc.tau_ps
    lobe1 = c * c * p1 * math.sqrt(math.pi) * b1
    lobe2 = s * s * p2 * math.sqrt(math.pi) * b2
    cross = (2.0 * c * s * math.sqrt(p1 * p2) * g
             * math.sqrt(math.pi * w2) * math.exp(-(math.pi * tau) * (math.pi * tau) * w2))
    power, moment = lobe1 + lobe2, lobe1 * (c1 - c2)
    if cross != 0.0:
        theta = 2.0 * math.pi * m * tau + sc.delta_rad
        power += cross * math.cos(theta)
        moment += cross * ((m - c2) * math.cos(theta) - math.pi * tau * w2 * math.sin(theta))
    if abs(power) <= 1e-12 * (lobe1 + lobe2):
        raise NoSignalError(f"post-selection at beta={beta_rad} rad extinguishes the power")
    return c2 + moment / power


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
    """The numbers of one measurement at beta_rad. `raw_power` is the total
    power of the ideal post-selected spectrum, before the OSA, and `snr_db`
    the peak SNR of the measured trace (+inf with a noise-free OSA). The
    centroid is that of the filtered trace, and its shift is referenced to
    `reference_thz`. `a_effective` is the matched-lobe A at beta_rad,
    cos 2beta / (1 + gamma sin 2beta cos delta), evaluated with the kernel's
    gamma, the lobes' overlap G of the closed form at any two widths. (A+1)/2
    is the small-signal slope only for identical gratings."""

    beta_rad: float
    raw_power: float
    snr_db: float
    centroid_thz: float
    centroid_nm_shift: float
    reference_thz: float
    a_effective: float


class SweepKernel:
    """A scenario's measurement with every beta-independent part built once.

    The two-arm field, grid frequencies, RBW kernel, overlap gamma and the
    filter's search window and half-width are computed here; each angle then
    runs on bare arrays (post-select, OSA, filter, centroid, A). This is the
    package's one measurement path: `reference` measures beta = -90 deg on
    noise stream 0, `point` one angle on a given stream, and `rows` angle i
    of a sweep on stream i+1. `at_temperature` gives the kernel at another
    t1, sharing every part that does not depend on t1.

    Filter search window: _lobes' Bragg centers widened by search_width,
    the wider grating's bandwidth, or the whole grid if no node falls inside.
    Half-width: half_width_thz, or half_width_factor times that bandwidth.
    """

    def __init__(self, sc: Scenario) -> None:
        self.sc = sc
        self.field = scenario_field(sc)
        self.grid = grid = self.field.grid
        self.nu = grid.frequencies()
        self.search_width = max(sc.fbg1.bandwidth_b_thz, sc.fbg2.bandwidth_b_thz)
        half_width = sc.filter.half_width_thz
        if half_width is None:
            half_width = sc.filter.half_width_factor * self.search_width
        # The node nearest the center lies within half a spacing of it, where
        # the gain is at least exp(-1) at any order.
        if not half_width >= grid.spacing / 2:
            raise ConfigError(f"filter: a half-width of {half_width!r} THz is below half "
                              f"the {grid.spacing:.9g} THz grid spacing")
        self.half_width = half_width
        self.rbw = rbw_kernel(sc.osa, sc.units, grid)
        self._place()

    def _place(self) -> None:
        """Set gamma, the overlap G of _lobes(self.sc), and the filter search
        window, the nodes between its lobes' centers widened by search_width."""
        (_, c1, _), (_, c2, _), overlap = _lobes(self.sc)
        w = self.search_width
        # nu ascends, so the nodes inside the window are one slice.
        start = int(np.searchsorted(self.nu, min(c1, c2) - w, side="left"))
        stop = int(np.searchsorted(self.nu, max(c1, c2) + w, side="right"))
        self.window = slice(start, stop) if start < stop else slice(0, self.nu.size)
        # Floored at the smallest float, so that arms that do not overlap give
        # A its gamma -> 0 limit, cos(2 beta), bit for bit: below 2^-53 the
        # denominator 1 + gamma sin(2 beta) cos(delta) rounds to 1.
        self.gamma = max(overlap, math.ulp(0.0))

    def at_temperature(self, t1_c: float) -> SweepKernel:
        """This kernel's scenario at t1 = t1_c, as a new kernel: it shares the
        grid, RBW kernel, filter half-width and the phased y arm, and rebuilds
        the x arm, the filter window and gamma. Raises ConfigError when fbg1's
        Bragg center leaves the grid."""
        kernel = copy.copy(self)
        kernel.sc = sc = replace(self.sc, t1_c=t1_c)
        kernel.field = replace(self.field, ex=_arm(sc, "fbg1", scenario_centers(sc)[0], self.grid))
        kernel._place()
        return kernel

    def raw(self, beta_rad: float) -> np.ndarray:
        """Ideal post-selected power samples at beta_rad."""
        return projected_power(self.field, beta_rad)

    def measure(self, raw: np.ndarray, stream: int) -> np.ndarray:
        """`raw` through the scenario's OSA model on noise `stream`."""
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
        return super_gaussian_filter(self.nu, trace, self.filter_center(trace),
                                     self.half_width, self.sc.filter.order)

    def centroid(self, samples: np.ndarray) -> float:
        return power_centroid(self.nu, samples, self.grid.spacing)

    def amplification(self, beta_rad: float) -> float:
        return amplification_factor(beta_rad, self.gamma, self.sc.delta_rad)

    def snr_db(self, peak: float) -> float:
        """Peak SNR (dB) of a measured trace whose largest sample is `peak`;
        -inf at a zero peak, else +inf with a noise-free OSA."""
        return snr_db(peak, self.sc.osa)

    def peak(self, beta_rad: float, stream: int) -> float:
        """Largest sample of the measured trace at beta_rad."""
        return float(np.max(self.measure(self.raw(beta_rad), stream)))

    def peak_bound(self, beta_rad: float, stream: int) -> float:
        """osa.peak_bound of raw(beta_rad): at least peak(beta_rad, stream)."""
        return peak_bound(self.raw(beta_rad), self.sc.osa, stream)

    def reference(self) -> float:
        """Filtered centroid (THz) at beta = -90 deg on noise stream 0."""
        return self.centroid(self.filtered(self.measure(self.raw(REFERENCE_BETA_RAD), 0)))

    def point(self, beta_rad: float, stream: int, reference_thz: float) -> InterrogationResult:
        """The full measurement at beta_rad on noise `stream`, its shift
        referenced to `reference_thz`; raises NoSignalError or
        SingularPostSelectionError."""
        raw = self.raw(beta_rad)
        trace = self.measure(raw, stream)
        centroid_thz = self.centroid(self.filtered(trace))
        return InterrogationResult(
            beta_rad,
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
        """(beta, point) per angle in sweep order, angle i on noise stream i+1;
        the point is None where the angle has no signal or is singular. The
        angles are measured in forked workers where _fan_out decides so."""
        betas = [float(beta) for beta in beta_rad_list]

        def measure(i: int) -> Optional[InterrogationResult]:
            try:
                return self.point(betas[i], i + 1, reference_thz)
            except (NoSignalError, SingularPostSelectionError):
                return None

        yield from zip(betas, _fan_out(len(betas), self.grid.n_points, measure), strict=True)


def sweep_temperature(
    sc: Scenario, dt_list: Sequence[float]
) -> Iterator[tuple[float, InterrogationResult]]:
    """(dt, result) at t1 = t2 + dt for each dt in order, sharing one
    reference; point i draws OSA noise stream i+1.

    One SweepKernel serves the sweep: it is built at t2 + dt_list[0], the
    first temperature the sweep measures, and measures the reference on
    stream 0, so no temperature outside dt_list is read; each dt runs on its
    at_temperature kernel, built by the process that measures the point (see
    _fan_out) and dropped after it. Entry i equals
    SweepKernel(replace(sc, t1_c=t2 + dt)).point(sc.beta_rad, i + 1, reference).
    An empty dt_list yields nothing and builds no kernel.
    """
    if len(dt_list) == 0:
        return
    base = SweepKernel(replace(sc, t1_c=sc.t2_c + dt_list[0]))
    ref = base.reference()

    def measure(i: int) -> InterrogationResult:
        return base.at_temperature(sc.t2_c + dt_list[i]).point(sc.beta_rad, i + 1, ref)

    yield from zip(map(float, dt_list), _fan_out(len(dt_list), base.grid.n_points, measure),
                   strict=True)


def _workers(n: int, n_points: int) -> int:
    """How many forked workers measure n points on an n_points grid: one per
    CPU the process may use, each with at least _MIN_SAMPLES_PER_WORKER grid
    samples and one point; 1, measuring inline, where the platform has no
    os.sched_getaffinity or os.fork."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n,
                      n * n_points // _MIN_SAMPLES_PER_WORKER))


def _fan_out(n: int, n_points: int, measure: Callable[[int], object]) -> Iterator:
    """measure(i) for i in range(n), in order, from _workers(n, n_points)
    forked workers, each measuring one contiguous block of indices.

    A worker inherits `measure` and what it holds without pickling, and
    sends back its results, stopping at its first exception, which the
    parent raises after yielding the results before it, as the loop run
    inline would. A block whose worker cannot start, or dies without
    sending, is measured in the parent. Every worker is joined before this
    generator returns or raises, so a caller zipping it passes strict=True,
    which reads past the last result. It runs inline with one worker; in a
    daemonic process (a multiprocessing.Pool worker), which may not start
    processes; and while other Python threads run, since a fork copies
    only the calling thread and could copy a lock another one holds.
    """
    workers = _workers(n, n_points)
    if workers > 1:
        import multiprocessing
        import threading

        if multiprocessing.current_process().daemon or threading.active_count() > 1:
            workers = 1
    if workers == 1:
        yield from map(measure, range(n))
        return
    ctx = multiprocessing.get_context("fork")
    procs, pipes = [], []
    try:
        for k in range(workers):
            block = range(n * k // workers, n * (k + 1) // workers)
            recv, send = ctx.Pipe(duplex=False)
            pipes.append((recv, block))
            with send:  # the worker's end: closed here once the worker holds it
                proc = ctx.Process(target=_measure_block, args=(measure, block, send),
                                   daemon=True)
                try:
                    proc.start()
                except OSError:  # no process to spare: recv reads EOF
                    continue
                procs.append(proc)
        for recv, block in pipes:
            try:
                results, error = recv.recv()
            except EOFError:
                results, error = map(measure, block), None
            yield from results
            if error is not None:
                raise error
    finally:
        for proc in procs:
            proc.terminate()
            proc.join()
        for recv, _ in pipes:
            recv.close()


def _measure_block(measure: Callable[[int], object], block: range, send) -> None:
    """A worker's body: (results, None), or the results before the first
    exception and that exception, sent to the parent. Ctrl-C is left to the
    parent, which ends the workers."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    results: list = []
    try:
        for i in block:
            results.append(measure(i))
    except Exception as exc:
        send.send((results, exc))
    else:
        send.send((results, None))

