"""The streamed sweep kernel against kernels built per point and the pipeline formulas.

CLI sweep-beta rows must be the bytes that a kernel built for each angle
gives on the same noise streams; --dump-spectra and dump-spectrum files must
be write_spectrum_csv of the kernel's raw, measured and filtered arrays on
the documented streams; the kernel's single point must match the pipeline
formulas written out independently; and max_usable_amplification must pick
what best_usable picks over per-point snr_db values.
"""

import json
import math
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from wva_sense import cli, scenario
from wva_sense.cli import main
from wva_sense.config import load_scenario, parse_scenario
from wva_sense.errors import DetectionLimitedError, NoSignalError, SingularPostSelectionError
from wva_sense.osa import (
    OsaParams,
    UsableAmplification,
    best_usable,
    max_usable_amplification,
    same_magnitude,
    snr_db,
)
from wva_sense.scenario import (
    GridSettings,
    SweepKernel,
    _exact_terms,
    scenario_centers,
    scenario_field,
    sweep_temperature,
)
from wva_sense.fbg import fit_sensitivity, reflect
from wva_sense.spectral import (
    FrequencyGrid,
    Spectrum,
    inclusive_range,
    trapezoid_power,
    write_spectrum_csv,
)
from wva_sense.wva import amplification_factor, overlap_gamma, projected_power

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
STEP = 7.5  # 13 angles from -90 to 0, -45 among them
DUMPS = (-40.0, 0.0)


def _bench_doc(name="bench.json"):
    return json.loads((CONFIGS / name).read_text())


def _no_osa(doc):
    del doc["osa"]
    return doc


def _no_filter(doc):
    doc["filter"]["enabled"] = False
    return doc


def _dark_port(doc):
    # Matched gratings, no residual phase and dt = 0: beta = -45 deg is singular.
    doc["interferometer"]["phi_rad"] = 0.0
    return doc


def _delay(doc):
    # A delay puts the phase 2 pi nu tau across the y arm; unequal efficiencies
    # make the two arms unequal.
    doc["interferometer"]["tau_ps"] = 0.2
    doc["fbg2"]["efficiency"] = 0.3
    return doc


CASES = {
    "bench": (_bench_doc(), 11.0),
    "sidelobe": (_bench_doc("bench_sidelobe.json"), 8.0),
    "no_osa": (_no_osa(_bench_doc()), 11.0),
    "no_filter": (_no_filter(_bench_doc()), 11.0),
    "dark_port": (_dark_port(_bench_doc()), None),
    "delay": (_delay(_bench_doc()), 11.0),
}


def _fmt(x):
    return f"{x:.12g}"


def _expected_rows(sc, betas_deg):
    """sweep_beta.csv rows from a kernel built for each angle, and the
    angles they skip."""
    ref = SweepKernel(sc).reference()
    f = scenario_field(sc)
    power_0 = trapezoid_power(projected_power(f, 0.0), f.grid.spacing)
    rows, skipped = [], []
    for i, beta_deg in enumerate(betas_deg):
        point = replace(sc, beta_rad=math.radians(beta_deg))
        kernel = SweepKernel(point)
        try:
            r = kernel.point(point.beta_rad, i + 1, ref)
        except (NoSignalError, SingularPostSelectionError):
            skipped.append(beta_deg)
            continue
        snr = snr_db(float(np.max(kernel.measure(kernel.raw(point.beta_rad), i + 1))), sc.osa)
        rows.append(",".join(_fmt(v) for v in (
            beta_deg, r.centroid_nm_shift, r.a_effective, r.raw_power / power_0, snr)))
    return rows, skipped


@pytest.mark.parametrize("case", list(CASES))
def test_cli_sweep_beta_equals_per_point_functions(tmp_path, capsys, case):
    doc, dt = CASES[case]
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(doc))
    run = tmp_path / "run"
    argv = ["sweep-beta", "--config", str(cfg), "--beta-min", "-90", "--beta-max", "0",
            "--step", str(STEP), "--dump-spectra=" + ",".join(map(str, DUMPS)),
            "--out", str(run)]
    if dt is not None:
        argv += ["--dt", str(dt)]
    assert main(argv) == 0
    err = capsys.readouterr().err

    sc = load_scenario(cfg).scenario
    if dt is not None:
        sc = replace(sc, t1_c=sc.t2_c + dt)
    betas_deg = inclusive_range(-90.0, 0.0, STEP)
    rows, skipped = _expected_rows(sc, betas_deg)
    header = "beta_deg,centroid_shift_nm,a_effective,total_power_rel,snr_db"
    assert (run / "sweep_beta.csv").read_text() == "\n".join([header, *rows]) + "\n"
    assert skipped == ([-45.0] if case == "dark_port" else [])
    for beta_deg in skipped:
        assert f"skipping beta={beta_deg:.4g} deg" in err

    kernel = SweepKernel(sc)
    for j, beta_deg in enumerate(DUMPS):
        trace = kernel.measure(kernel.raw(math.radians(beta_deg)), len(betas_deg) + 1 + j)
        expected = tmp_path / f"expected_{j}.csv"
        write_spectrum_csv(Spectrum(kernel.grid, kernel.filtered(trace)), expected)
        dumped = run / f"spectrum_beta_{beta_deg:+.2f}.csv"
        assert dumped.read_bytes() == expected.read_bytes()


# The arrays dump-spectrum writes at each stage, from the kernel on stream 1.
STAGES = {
    "raw": lambda k, beta: k.raw(beta),
    "osa": lambda k, beta: k.measure(k.raw(beta), 1),
    "filtered": lambda k, beta: k.filtered(k.measure(k.raw(beta), 1)),
}


@pytest.mark.parametrize("stage", list(STAGES))
@pytest.mark.parametrize("case", ["bench", "no_osa", "no_filter"])
def test_cli_dump_spectrum_equals_kernel_arrays(tmp_path, case, stage):
    doc, dt = CASES[case]
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(doc))
    run = tmp_path / "run"
    assert main(["dump-spectrum", "--config", str(cfg), "--beta", "-40", "--dt", str(dt),
                 "--stage", stage, "--out", str(run)]) == 0

    sc = load_scenario(cfg).scenario
    sc = replace(sc, t1_c=sc.t2_c + dt, beta_rad=math.radians(-40.0))
    kernel = SweepKernel(sc)
    expected = tmp_path / "expected.csv"
    write_spectrum_csv(Spectrum(kernel.grid, STAGES[stage](kernel, sc.beta_rad)), expected)
    assert (run / "spectrum.csv").read_bytes() == expected.read_bytes()


def _full_scan(sc, lo, hi, step):
    """(beta, A, snr_db) at every non-singular angle of the sweep, each
    angle measured on its own noise stream i+1 with the per-point functions."""
    c1, c2 = scenario_centers(sc)
    gamma = overlap_gamma((c1 - c2) / 2, (sc.fbg1.bandwidth_b_thz + sc.fbg2.bandwidth_b_thz) / 2)
    kernel = SweepKernel(sc)
    points = []
    for i, beta_deg in enumerate(inclusive_range(lo, hi, step)):
        point = replace(sc, beta_rad=math.radians(beta_deg))
        try:
            a = amplification_factor(point.beta_rad, gamma, point.delta_rad)
        except SingularPostSelectionError:
            continue
        trace = kernel.measure(kernel.raw(point.beta_rad), i + 1)
        points.append((point.beta_rad, a, snr_db(float(np.max(trace)), sc.osa)))
    return points


def _assert_search_equals_full_scan(sc, points, snr_min, lo=-89.0, hi=0.0, step=1.0):
    """max_usable_amplification equals best_usable over the full scan, or
    both raise DetectionLimitedError; returns whether an angle was usable."""
    try:
        expected = UsableAmplification(*best_usable(points, snr_min))
    except DetectionLimitedError:
        with pytest.raises(DetectionLimitedError):
            max_usable_amplification(sc, snr_min, lo, hi, step)
        return False
    assert max_usable_amplification(sc, snr_min, lo, hi, step) == expected
    return True


# Noise floors 1e-7 to 1e-3, a tenth of a decade apart: every one leaves an
# angle usable at 10 dB; the largest leave none at 30 dB, or at 20 dB.
FLOORS = [10.0 ** (k / 10.0) for k in range(-70, -29)]


@pytest.mark.parametrize("osa,usable_at", [
    pytest.param(OsaParams(rbw_nm=0.01, noise_floor=1e-4, seed=1234), (10.0, 20.0), id="osa0"),
    pytest.param(OsaParams(rbw_nm=0.01, noise_floor=1e-6, rel_noise=0.001, seed=7),
                 (10.0, 20.0), id="osa1"),
    pytest.param(OsaParams(), (10.0, 20.0, 30.0), id="ideal"),
    *(pytest.param(OsaParams(rbw_nm=0.01, noise_floor=f, seed=1234), (10.0,), id=f"floor{f:.3g}")
      for f in FLOORS),
])
def test_max_usable_equals_best_usable_over_per_point_snr(osa, usable_at):
    """At the thresholds in usable_at some angle must clear the floor; at the
    others both paths may instead raise DetectionLimitedError."""
    sc = replace(load_scenario(CONFIGS / "bench.json").scenario, t1_c=31.0, osa=osa)
    points = _full_scan(sc, -89.0, 0.0, 1.0)
    for snr_min in (10.0, 20.0, 30.0):
        usable = _assert_search_equals_full_scan(sc, points, snr_min)
        assert usable or snr_min not in usable_at


def test_max_usable_unreachable_floor_raises_on_both_paths():
    sc = replace(load_scenario(CONFIGS / "bench.json").scenario, t1_c=31.0)
    assert not _assert_search_equals_full_scan(sc, _full_scan(sc, -89.0, 0.0, 1.0), 200.0)


def test_max_usable_tie_between_branches_resolves_like_full_scan():
    # gamma = 1 and cos(delta) = sin(72 deg) put A = +a_max at -36 deg and
    # A = -a_max at -54 deg; the float |A| at -54 deg is a few ulp larger,
    # so only the tie rule picks the positive branch.
    sc = load_scenario(CONFIGS / "bench.json").scenario
    sc = replace(sc, t1_c=sc.t2_c, phi_rad=math.acos(math.sin(math.radians(72.0))))
    points = _full_scan(sc, -89.0, 0.0, 1.0)
    by_deg = {round(math.degrees(beta)): (beta, a, snr) for beta, a, snr in points}
    positive, negative = by_deg[-36], by_deg[-54]
    assert same_magnitude(positive[1], negative[1])
    assert abs(negative[1]) > abs(positive[1]) > 0
    assert _assert_search_equals_full_scan(sc, points, 20.0)
    assert max_usable_amplification(sc, 20.0, -89.0, 0.0, 1.0) == UsableAmplification(*positive)


def _search_on_table(monkeypatch, a_values, snr_values, snr_min=20.0):
    """max_usable_amplification over a 1-degree sweep whose A and SNR per
    angle come from the tables (A None: singular), next to best_usable over
    every angle; the kernel's own physics is bypassed."""
    hi = -89.0 + len(a_values) - 1
    betas = [math.radians(b) for b in inclusive_range(-89.0, hi, 1.0)]
    index = {beta: i for i, beta in enumerate(betas)}

    def amplification(self, beta):
        a = a_values[index[beta]]
        if a is None:
            raise SingularPostSelectionError("table")
        return a

    monkeypatch.setattr(SweepKernel, "__init__", lambda self, sc: None)
    monkeypatch.setattr(SweepKernel, "amplification", amplification)
    monkeypatch.setattr(SweepKernel, "peak", lambda self, beta, stream: snr_values[stream - 1])
    monkeypatch.setattr(SweepKernel, "peak_bound", lambda self, beta, stream: math.inf)
    monkeypatch.setattr(SweepKernel, "snr_db", lambda self, peak: peak)
    points = [(beta, a, snr) for beta, a, snr in zip(betas, a_values, snr_values)
              if a is not None]
    _assert_search_equals_full_scan(None, points, snr_min, -89.0, hi, 1.0)


def test_max_usable_scans_measured_points_in_sweep_order(monkeypatch):
    # Ties do not chain: q ties r and beats it, p ties q and beats it, yet
    # r beats p outright. In sweep order (r, p, q) q wins; scanned in |A|
    # order (r, q, p) p would.
    r, p, q = -1.0, 1.0 - 1.5e-9, -(1.0 - 0.8e-9)
    assert same_magnitude(q, r) and same_magnitude(p, q) and not same_magnitude(r, p)
    assert best_usable([(1, r, 30.0), (3, p, 30.0), (4, q, 30.0)], 20.0)[1] == q
    assert best_usable([(1, r, 30.0), (4, q, 30.0), (3, p, 30.0)], 20.0)[1] == p
    _search_on_table(monkeypatch, [0.5, r, 0.2, p, q, 0.1], [30.0] * 6)


def test_max_usable_equals_full_scan_on_random_near_tie_tables(monkeypatch):
    """A and SNR tables built to tie often, across singular angles and SNRs
    on both sides of the floor."""
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(2, 30))
        magnitude = rng.choice([1.5, 2.0, 3.0], n) * (1.0 - 0.5e-9 * rng.integers(0, 5, n))
        a_values = [None if rng.random() < 0.1 else float(m * rng.choice([-1.0, 1.0]))
                    for m in magnitude]
        snr_values = [float(v) for v in rng.choice([10.0, 20.0, 30.0], n)]
        _search_on_table(monkeypatch, a_values, snr_values)


def test_max_usable_measures_only_angles_that_can_win(monkeypatch):
    """The c10 scenario at floor 1e-6 finds its answer among the first few
    of its 891 angles in |A| order; a full scan would measure all of them."""
    sc = replace(load_scenario(CONFIGS / "bench.json").scenario, t1_c=31.0,
                 osa=OsaParams(rbw_nm=0.01, noise_floor=1e-6, seed=1234))
    expected = UsableAmplification(*best_usable(_full_scan(sc, -89.0, 0.0, 0.1), 20.0))
    peak = SweepKernel.peak
    calls = []

    def counted(self, beta_rad, stream):
        calls.append(stream)
        return peak(self, beta_rad, stream)

    monkeypatch.setattr(SweepKernel, "peak", counted)
    assert max_usable_amplification(sc, 20.0, -89.0, 0.0, 0.1) == expected
    assert 1 <= len(calls) <= 10


@pytest.mark.parametrize("seed,floor,rel_noise", [
    (1234, 1e-4, 0.0), (7, 1e-4, 0.0), (99, 1e-4, 0.0), (1234, 3e-4, 0.0), (1234, 1e-4, 0.001),
])
def test_max_usable_screens_angles_below_the_floor(monkeypatch, seed, floor, rel_noise):
    """The c10 scenario at floor 1e-4 visits hundreds of angles in |A| order
    before the answer, nearly all far below 20 dB: the peak bound screens
    them, so at most 10 of the 891 are measured."""
    sc = replace(load_scenario(CONFIGS / "bench.json").scenario, t1_c=31.0,
                 osa=OsaParams(rbw_nm=0.01, noise_floor=floor, rel_noise=rel_noise, seed=seed))
    expected = UsableAmplification(*best_usable(_full_scan(sc, -89.0, 0.0, 0.1), 20.0))
    peak = SweepKernel.peak
    calls = []

    def counted(self, beta_rad, stream):
        calls.append(stream)
        return peak(self, beta_rad, stream)

    monkeypatch.setattr(SweepKernel, "peak", counted)
    assert max_usable_amplification(sc, 20.0, -89.0, 0.0, 0.1) == expected
    assert 1 <= len(calls) <= 10


def test_peak_bound_is_at_least_the_measured_peak(monkeypatch):
    """300 angles, noise streams and OSA settings drawn from a fixed seed:
    peak_bound is never below peak. A noise-free OSA bounds by +inf without
    drawing noise."""
    base = load_scenario(CONFIGS / "bench.json").scenario
    rng = np.random.default_rng(15)
    for _ in range(300):
        osa = OsaParams(
            rbw_nm=float(rng.choice([0.0, 0.01, 0.05])),
            noise_floor=0.0 if rng.random() < 0.2 else float(10.0 ** rng.uniform(-8.0, -2.0)),
            rel_noise=0.0 if rng.random() < 0.5 else float(rng.uniform(0.0, 0.5)),
            seed=int(rng.integers(2**32)),
        )
        n_points = int(rng.choice([401, 4001]))
        kernel = SweepKernel(replace(base, t1_c=31.0, osa=osa,
                                     grid=replace(base.grid, n_points=n_points)))
        beta, stream = math.radians(rng.uniform(-90.0, 0.0)), int(rng.integers(2**20))
        assert kernel.peak_bound(beta, stream) >= kernel.peak(beta, stream), (osa, beta, stream)

    def no_draw(p, stream, n):
        raise AssertionError("a noise-free bound drew noise")

    monkeypatch.setattr("wva_sense.osa.stream_normals", no_draw)
    for osa in (OsaParams(), OsaParams(rbw_nm=0.05, seed=3)):
        kernel = SweepKernel(replace(base, osa=osa))
        assert kernel.peak_bound(math.radians(-40.0), 1) == math.inf


def _no_light(osa: dict):
    """bench.json with source.amplitude 1e-170, whose square underflows, so no
    light reaches the OSA, read through `osa`."""
    doc = json.loads((CONFIGS / "bench.json").read_text())
    doc["source"]["amplitude"] = 1e-170
    doc["osa"] = osa
    return parse_scenario(doc).scenario


@pytest.mark.parametrize("osa", [{"rbw_nm": 0.01, "noise_floor": 0, "rel_noise": 0.01},
                                 {"rbw_nm": 0.01}], ids=["relative_noise", "noise_free"])
def test_max_usable_finds_no_usable_angle_without_light(osa):
    """No light is never a usable angle: with relative-only noise and with a
    noise-free OSA the search raises DetectionLimitedError, and no SNR on the
    way divides 0 by 0."""
    sc = _no_light(osa)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DetectionLimitedError):
            max_usable_amplification(sc, 20.0, step_deg=1.0)


def test_peak_bound_without_light_under_relative_noise_is_zero():
    """Relative-only noise on no light draws sigma 0 at every sample: the bound
    is the dark peak, 0.0, not the noise-free +inf."""
    kernel = SweepKernel(_no_light({"rbw_nm": 0.01, "noise_floor": 0, "rel_noise": 0.01}))
    assert kernel.peak_bound(math.radians(-41.0), 1) == 0.0
    assert kernel.snr_db(0.0) == -math.inf


def test_max_usable_over_one_angle_measures_that_angle():
    """beta_min_deg == beta_max_deg is a one-angle search: its result is that
    angle's A and the SNR the full scan measures there on stream 1."""
    sc = replace(load_scenario(CONFIGS / "bench.json").scenario, t1_c=31.0)
    kernel = SweepKernel(sc)
    beta = math.radians(-40.0)
    result = max_usable_amplification(sc, 10.0, beta_min_deg=-40.0, beta_max_deg=-40.0,
                                      step_deg=1.0)
    assert result == UsableAmplification(beta, kernel.amplification(beta),
                                         kernel.snr_db(kernel.peak(beta, 1)))


def test_point_matches_the_pipeline_formulas():
    """One angle recomputed step by step, independently of the package's
    array functions: post-select, RBW convolution, seeded noise, windowed
    peak, log-parabolic refinement, super-Gaussian gain, centroid."""
    sc = replace(load_scenario(CONFIGS / "bench_sidelobe.json").scenario, t1_c=28.0)
    beta, stream = math.radians(-40.0), 3
    f = scenario_field(sc)
    g = f.grid
    nu = np.linspace(g.lo, g.hi, g.n_points)
    raw = np.abs(math.cos(beta) * f.ex + math.sin(beta) * f.ey) ** 2

    p = sc.osa
    sigma = abs(sc.units.nm_shift_to_frequency(p.rbw_nm)) / (2 * math.sqrt(2 * math.log(2)))
    half = max(1, math.ceil(7.0 * sigma / g.spacing))
    kernel = np.exp(-((np.arange(-half, half + 1) * g.spacing) ** 2) / (2 * sigma**2))
    kernel /= kernel.sum()
    trace = np.convolve(raw, kernel, mode="same")
    seed = int(np.random.SeedSequence((p.seed, stream)).generate_state(1, np.uint64)[0])
    normals = np.random.Generator(np.random.PCG64(seed)).standard_normal(trace.size)
    trace = np.clip(trace + normals * np.sqrt(p.noise_floor**2 + (p.rel_noise * trace) ** 2),
                    0.0, None)

    c1 = sc.fbg1.center_ref_thz + sc.units.nm_shift_to_frequency(sc.fbg1.kappa_nm_per_c) * (
        sc.t1_c - sc.t2_c)
    c2 = sc.fbg2.center_ref_thz
    w = max(sc.fbg1.bandwidth_b_thz, sc.fbg2.bandwidth_b_thz)
    idx = np.flatnonzero((nu >= min(c1, c2) - w) & (nu <= max(c1, c2) + w))
    i = int(idx[np.argmax(trace[idx])])
    l0, l1, l2 = (math.log(v) for v in trace[i - 1:i + 2])
    shift = max(-0.5, min(0.5, 0.5 * (l0 - l2) / (l0 - 2 * l1 + l2)))
    center = float(nu[i] + shift * g.spacing)
    half_width = sc.filter.half_width_factor * w
    filtered = trace * np.exp(-(((nu - center) / half_width) ** sc.filter.order))
    centroid = float(np.trapezoid(nu * filtered, dx=g.spacing)) / float(
        np.trapezoid(filtered, dx=g.spacing))

    kernel = SweepKernel(sc)
    point = kernel.point(beta, stream, kernel.reference())
    measured = kernel.measure(kernel.raw(beta), stream)
    assert np.array_equal(measured, trace)
    assert np.array_equal(kernel.filtered(measured), filtered)
    assert point.centroid_thz == centroid
    assert point.raw_power == float(np.trapezoid(raw, dx=g.spacing))


def test_cli_sweep_beta_keeps_no_per_angle_spectra(tmp_path):
    # 361 angles of 4001 points: retaining each angle's measured and filtered
    # trace would hold about 23 MB; streamed rows need a few field-sized arrays.
    cfg = CONFIGS / "bench.json"
    argv = ["sweep-beta", "--config", str(cfg), "--dt", "11", "--beta-min", "-90",
            "--beta-max", "0", "--step", "0.25", "--out", str(tmp_path / "run")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_cli_sweep_temp_keeps_no_per_temperature_spectra(tmp_path):
    # 121 temperatures of 4001 points: a list of results would hold each
    # point's measured and filtered trace, about 8 MB.
    argv = ["sweep-temp", "--config", str(CONFIGS / "bench.json"), "--dt", "0:60:0.5",
            "--out", str(tmp_path / "run")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


@pytest.mark.parametrize("case", ["bench", "sidelobe", "no_osa", "no_filter", "delay"])
def test_sweep_temperature_equals_per_point_functions(tmp_path, case):
    """Entry i is the point of a kernel built at t1 = t2 + dt, on noise
    stream i+1, referenced to the scenario's own beta = -90 deg centroid,
    bit for bit."""
    doc, dt = CASES[case]
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(doc))
    sc = load_scenario(cfg).scenario
    ref = SweepKernel(sc).reference()
    dt_list = [0.0, dt / 2, dt]
    entries = list(sweep_temperature(sc, dt_list))
    assert [d for d, _ in entries] == dt_list
    for i, (d, got) in enumerate(entries):
        want = SweepKernel(replace(sc, t1_c=sc.t2_c + d)).point(sc.beta_rad, i + 1, ref)
        assert got == want, d


@pytest.mark.parametrize("case", ["bench", "sidelobe", "delay"])
def test_at_temperature_equals_a_fresh_kernel(case):
    """The kernel at another t1 holds what a kernel built for that t1 holds,
    bit for bit, at temperatures that move the filter window by ~180 nodes,
    and leaves the kernel it came from as it was."""
    sc = parse_scenario(CASES[case][0]).scenario
    base = SweepKernel(sc)
    ex = base.field.ex.copy()
    for dt in (-100.0, 0.0, 11.0, 100.0):
        got = base.at_temperature(sc.t2_c + dt)
        want = SweepKernel(replace(sc, t1_c=sc.t2_c + dt))
        assert got.sc == want.sc
        assert (got.window, got.gamma, got.half_width) == (want.window, want.gamma,
                                                           want.half_width)
        for a, b in ((got.nu, want.nu), (got.rbw, want.rbw), (got.field.ex, want.field.ex),
                     (got.field.ey, want.field.ey)):
            assert a.tobytes() == b.tobytes(), dt
    assert base.sc == sc and base.field.ex.tobytes() == ex.tobytes()


def test_gamma_is_the_exact_overlap_at_equal_widths():
    """At equal widths the kernel's gamma is the G of _exact_terms bit for bit,
    for its own t1 and at_temperature's. 200 bench.json scenarios: one width
    scaled by 0.6-1.4 for both gratings, efficiencies in [0.05, 1], and dt in
    [-50, 50] degC, which moves fbg1's center off fbg2's."""
    base = load_scenario(CONFIGS / "bench.json").scenario
    rng = np.random.default_rng(18)
    for _ in range(200):
        b = base.fbg1.bandwidth_b_thz * rng.uniform(0.6, 1.4)
        fbg1, fbg2 = (replace(f, bandwidth_b_thz=b, reflect_efficiency=rng.uniform(0.05, 1.0))
                      for f in (base.fbg1, base.fbg2))
        sc = replace(base, fbg1=fbg1, fbg2=fbg2, t1_c=base.t2_c + rng.uniform(-50.0, 50.0),
                     grid=GridSettings(n_points=401, span_factor=20.0))
        kernel = SweepKernel(sc)
        assert kernel.gamma == _exact_terms(sc)[-1], sc.t1_c
        t1 = sc.t2_c + rng.uniform(-50.0, 50.0)
        assert kernel.at_temperature(t1).gamma == _exact_terms(replace(sc, t1_c=t1))[-1], t1


def test_gamma_is_the_exact_overlap_at_unequal_widths():
    """At unequal widths too the kernel's gamma is the G of _exact_terms bit
    for bit, for its own t1 and at_temperature's. 200 bench.json scenarios:
    B2/B1 in [0.6, 1.4], efficiencies in [0.05, 1] and dt in [-50, 50] degC."""
    base = load_scenario(CONFIGS / "bench.json").scenario
    rng = np.random.default_rng(26)
    b1 = base.fbg1.bandwidth_b_thz
    for _ in range(200):
        fbg1 = replace(base.fbg1, reflect_efficiency=rng.uniform(0.05, 1.0))
        fbg2 = replace(base.fbg2, bandwidth_b_thz=b1 * rng.uniform(0.6, 1.4),
                       reflect_efficiency=rng.uniform(0.05, 1.0))
        sc = replace(base, fbg1=fbg1, fbg2=fbg2, t1_c=base.t2_c + rng.uniform(-50.0, 50.0),
                     grid=GridSettings(n_points=401, span_factor=20.0))
        kernel = SweepKernel(sc)
        assert kernel.gamma == _exact_terms(sc)[-1], sc.t1_c
        t1 = sc.t2_c + rng.uniform(-50.0, 50.0)
        assert kernel.at_temperature(t1).gamma == _exact_terms(replace(sc, t1_c=t1))[-1], t1


def test_closed_forms_and_kernel_read_one_overlap(monkeypatch):
    """_lobes is the one description of the lobe pair: with it patched to
    report another overlap G, the closed forms' G, the kernel's gamma and
    at_temperature's gamma are all that G."""
    lobes = scenario._lobes
    monkeypatch.setattr(scenario, "_lobes", lambda sc: (*lobes(sc)[:2], 0.25))
    sc = replace(load_scenario(CONFIGS / "bench.json").scenario, t1_c=31.0)
    assert lobes(sc)[2] != 0.25
    assert _exact_terms(sc)[-1] == 0.25
    kernel = SweepKernel(sc)
    assert kernel.gamma == 0.25
    assert kernel.at_temperature(25.0).gamma == 0.25


def test_closed_forms_and_kernel_read_one_phase(monkeypatch):
    """_phase is the one owner of the arms' relative phase: with it patched to
    return (0.2 ps, 0.5 rad), the closed forms, the kernel's field and A, and
    at_temperature's field equal, bit for bit, those of the scenario that
    configures that pair."""
    beta = math.radians(-40.0)
    sc = load_scenario(CONFIGS / "bench.json").scenario
    paired = replace(sc, tau_ps=0.2, phi_rad=0.5, gamma_lcvr_rad=0.0)

    def values(s):
        kernel = SweepKernel(s)
        return (scenario.exact_spectrum(s, beta), scenario.exact_centroid(s, beta),
                kernel.raw(beta), kernel.amplification(beta),
                kernel.at_temperature(31.0).raw(beta))

    expected, unpatched = values(paired), values(sc)
    monkeypatch.setattr(scenario, "_phase", lambda s: (0.2, 0.5))
    for got, want, before in zip(values(sc), expected, unpatched, strict=True):
        assert np.array_equal(got, want)
        assert not np.array_equal(got, before)


def _drift(k):
    """A lead-fibre thermal drift: _phase with k rad/degC of t1 - t2 added to delta."""
    phase = scenario._phase
    return lambda s: (phase(s)[0], phase(s)[1] + k * (s.t1_c - s.t2_c))


def _group_delay(tau_g):
    """Equal gratings' reflection group delay tau_g (ps) folded into _phase:
    delta - 2 pi tau_g (c2 - c1), at the Bragg centers of scenario_centers."""
    phase = scenario._phase

    def folded(s):
        c1, c2 = scenario_centers(s)
        return phase(s)[0], phase(s)[1] - 2.0 * math.pi * tau_g * (c2 - c1)

    return folded


def test_at_temperature_rephases_a_pair_that_moves_with_t1(monkeypatch):
    """With _phase moving with t1, at_temperature builds the y arm anew: its
    field equals a kernel built at that t1, bit for bit, at every angle."""
    monkeypatch.setattr(scenario, "_phase", _drift(0.01))
    sc = load_scenario(CONFIGS / "bench.json").scenario
    kernel = SweepKernel(sc)
    for t1 in (17.0, 20.0, 25.5, 31.0):
        moved = kernel.at_temperature(t1)
        built = SweepKernel(replace(sc, t1_c=t1))
        assert moved.amplification(-0.7) == built.amplification(-0.7)
        for beta_deg in (-90.0, -40.0, -20.0, 0.0):
            beta = math.radians(beta_deg)
            assert np.array_equal(moved.raw(beta), built.raw(beta)), (t1, beta_deg)


@pytest.mark.parametrize("pair,size,slope,residual_pm", [
    (_drift, 0.003, 0.029227, 6.6467),
    (_group_delay, 1.777, 0.051649, 8.9098),
    (_group_delay, -1.777, 0.017532, 14.049),
], ids=["drift_3mrad", "group_delay_plus", "group_delay_minus"])
def test_the_phase_seam_carries_the_drift_tables(monkeypatch, pair, size, slope, residual_pm):
    """A pair that moves with t1, patched into _phase alone, reaches the fitted
    noise-free sweep-temp at -40 deg on bench.json over its plan, fitted at
    0.03439 nm/degC (2.30 pm residual) with the pair fixed: a lead-fibre drift
    of 3 mrad/degC gives 0.02923 (6.65 pm), and the gratings' group delay of
    +-1.777 ps gives 0.05165 (8.91 pm) and 0.01753 (14.05 pm)."""
    loaded = load_scenario(CONFIGS / "bench.json")
    sc = replace(loaded.scenario, osa=replace(loaded.scenario.osa, noise_floor=0.0),
                 beta_rad=math.radians(-40.0))
    monkeypatch.setattr(scenario, "_phase", pair(size))
    fit = fit_sensitivity([(dt, point.centroid_nm_shift)
                           for dt, point in sweep_temperature(sc, loaded.dt_list_c)])
    assert fit.slope_nm_per_c == pytest.approx(slope, rel=1e-4)
    assert fit.residual_rms_nm * 1e3 == pytest.approx(residual_pm, rel=1e-4)


def test_empty_temperature_sweep_builds_no_kernel(monkeypatch):
    """sweep_temperature over no dt yields nothing and builds no kernel."""
    def refuse(self, sc):
        raise AssertionError("a kernel was built")

    monkeypatch.setattr(SweepKernel, "__init__", refuse)
    assert list(sweep_temperature(load_scenario(CONFIGS / "bench.json").scenario, [])) == []


def test_closed_form_lobe_power_is_the_measured_arms():
    """Each closed-form p_k is E0^2/2 times the sample `reflect` gives at a
    grid node on that grating's Bragg center, where the lobe's Gaussian factor
    is exactly 1, bit for bit. 200 bench.json scenarios: amplitude in [0.5, 2],
    efficiencies in [0.05, 1] and dt in [-50, 50] degC."""
    base = load_scenario(CONFIGS / "bench.json").scenario
    rng = np.random.default_rng(31)
    for _ in range(200):
        fbg1, fbg2 = (replace(f, reflect_efficiency=rng.uniform(0.05, 1.0))
                      for f in (base.fbg1, base.fbg2))
        src = replace(base.source, amplitude=rng.uniform(0.5, 2.0))
        sc = replace(base, source=src, fbg1=fbg1, fbg2=fbg2,
                     t1_c=base.t2_c + rng.uniform(-50.0, 50.0))
        p1, p2 = _exact_terms(sc)[:2]
        for p, f, c in zip((p1, p2), (fbg1, fbg2), scenario_centers(sc)):
            # c + 0.5 and its difference with 0.5 are exact near 193 THz, so the
            # grid's first node is c itself.
            grid = FrequencyGrid(c + 0.5, 1.0, 11)
            assert grid.frequencies()[0] == c
            peak = reflect(f, src.b_thz, src.nu0_thz, c, grid).samples[0]
            assert p == src.amplitude**2 / 2.0 * peak, (src.amplitude, f, sc.t1_c)


def test_arms_that_do_not_overlap_give_a_its_gamma_zero_limit(tmp_path):
    """With fbg2 at 1650 nm on a 30 THz grid the lobes' overlap underflows to
    0; sweep-temp and sweep-beta still exit 0 and every a_effective is
    cos(2 beta), with numpy overflow and invalid operations raised as errors."""
    doc = _bench_doc()
    doc["fbg2"]["center_nm"] = 1650.0
    doc["grid"] = {"span_thz": 30.0}
    cfg = tmp_path / "far.json"
    cfg.write_text(json.dumps(doc))
    assert _exact_terms(load_scenario(cfg).scenario)[-1] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["sweep-temp", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 0
        assert main(["sweep-beta", "--config", str(cfg), "--step", "5",
                     "--out", str(tmp_path / "b")]) == 0
    rows = [line.split(",") for line in
            (tmp_path / "b" / "sweep_beta.csv").read_text().splitlines()[1:]]
    assert [float(r[0]) for r in rows] == inclusive_range(-90.0, 0.0, 5.0)
    for beta_deg, _, a, *_ in rows:
        assert a == _fmt(math.cos(2.0 * math.radians(float(beta_deg)))), beta_deg


def test_coarse_grid_searches_the_whole_grid_for_the_filter_center(tmp_path):
    """On bench.json with 8 grid points the spacing, 0.356 THz, exceeds the
    search window around the Bragg centers, so no node lies inside it: the
    filter center is searched over the whole grid, and sweep-beta, sweep-temp
    and dump-spectrum exit 0 with numpy overflow and invalid operations
    raised as errors."""
    doc = _bench_doc()
    doc["grid"] = {"n_points": 8}
    cfg = tmp_path / "coarse.json"
    cfg.write_text(json.dumps(doc))
    sc = replace(load_scenario(cfg).scenario, t1_c=31.0)
    kernel = SweepKernel(sc)
    assert kernel.grid.spacing > 2 * kernel.search_width
    assert kernel.window == slice(0, 8)
    assert kernel.at_temperature(20.0).window == slice(0, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for argv in (["sweep-beta", "--step", "5"], ["sweep-temp"], ["dump-spectrum"]):
            assert main([argv[0], "--config", str(cfg), *argv[1:],
                         "--out", str(tmp_path / argv[0])]) == 0, argv


def test_cli_sweep_temp_equals_sweep_temperature(tmp_path):
    cfg = CONFIGS / "bench.json"
    run = tmp_path / "run"
    assert main(["sweep-temp", "--config", str(cfg), "--beta", "-40", "--out", str(run)]) == 0
    loaded = load_scenario(cfg)
    sc = replace(loaded.scenario, beta_rad=math.radians(-40.0))
    expected = [f"{_fmt(dt)},{_fmt(r.centroid_nm_shift)}"
                for dt, r in sweep_temperature(sc, loaded.dt_list_c)]
    lines = (run / "sweep_temp.csv").read_text().splitlines()
    assert lines[1:1 + len(expected)] == expected


def test_sweep_temp_builds_t1_independent_parts_once(tmp_path, monkeypatch):
    """One sweep-temp on bench.json builds the RBW kernel once and reflects fbg2
    once; fbg1 is reflected for the reference and for each temperature."""
    scenarios, reflected, rbw_builds = [], [], []
    sweep, reflect, rbw_kernel = cli.sweep_temperature, scenario.reflect, scenario.rbw_kernel

    def record_sweep(sc, dt_list):
        scenarios.append(sc)
        return sweep(sc, dt_list)

    def record_reflect(f, *args):
        reflected.append(f)
        return reflect(f, *args)

    def record_rbw_kernel(*args):
        rbw_builds.append(args)
        return rbw_kernel(*args)

    monkeypatch.setattr(cli, "sweep_temperature", record_sweep)
    monkeypatch.setattr(scenario, "reflect", record_reflect)
    monkeypatch.setattr(scenario, "rbw_kernel", record_rbw_kernel)
    cfg = CONFIGS / "bench.json"
    assert main(["sweep-temp", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    (sc,) = scenarios
    assert len(rbw_builds) == 1
    assert sum(f is sc.fbg2 for f in reflected) == 1
    assert sum(f is sc.fbg1 for f in reflected) == len(load_scenario(cfg).dt_list_c) + 1
