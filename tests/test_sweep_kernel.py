"""The streamed sweep kernel against the public per-point functions.

CLI sweep-beta rows and --dump-spectra files must be the bytes that
simulate_interrogation and scenario_trace + apply_scenario_filter give on the
same noise streams, and max_usable_amplification must pick what best_usable
picks over per-point snr_estimate values.
"""

import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from wva_sense.cli import main
from wva_sense.config import load_scenario
from wva_sense.errors import NoSignalError, SingularPostSelectionError
from wva_sense.osa import (
    OsaParams,
    UsableAmplification,
    best_usable,
    max_usable_amplification,
    snr_estimate,
)
from wva_sense.scenario import (
    SweepKernel,
    apply_scenario_filter,
    reference_centroid,
    scenario_amplification,
    scenario_field,
    scenario_raw_spectrum,
    scenario_trace,
    simulate_interrogation,
    sweep_temperature,
)
from wva_sense.spectral import inclusive_range, total_power, write_spectrum_csv

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


CASES = {
    "bench": (_bench_doc(), 11.0),
    "sidelobe": (_bench_doc("bench_sidelobe.json"), 8.0),
    "no_osa": (_no_osa(_bench_doc()), 11.0),
    "no_filter": (_no_filter(_bench_doc()), 11.0),
    "dark_port": (_dark_port(_bench_doc()), None),
}


def _fmt(x):
    return f"{x:.12g}"


def _expected_rows(sc, betas_deg):
    """sweep_beta.csv rows from the per-point public functions, and the
    angles they skip."""
    ref = reference_centroid(sc)
    power_0 = total_power(scenario_raw_spectrum(sc, beta_rad=0.0))
    rows, skipped = [], []
    for i, beta_deg in enumerate(betas_deg):
        point = replace(sc, beta_rad=math.radians(beta_deg))
        try:
            r = simulate_interrogation(point, ref, stream=i + 1)
        except (NoSignalError, SingularPostSelectionError):
            skipped.append(beta_deg)
            continue
        snr = math.inf if sc.osa is None else snr_estimate(r.raw, sc.osa).snr_db
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

    for j, beta_deg in enumerate(DUMPS):
        trace = scenario_trace(sc, beta_rad=math.radians(beta_deg),
                               stream=len(betas_deg) + 1 + j)
        expected = tmp_path / f"expected_{j}.csv"
        write_spectrum_csv(apply_scenario_filter(sc, trace), expected)
        dumped = run / f"spectrum_beta_{beta_deg:+.2f}.csv"
        assert dumped.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("osa", [
    OsaParams(rbw_nm=0.01, noise_floor=1e-4, seed=1234),
    OsaParams(rbw_nm=0.01, noise_floor=1e-6, rel_noise=0.001, seed=7),
    None,
])
def test_max_usable_equals_best_usable_over_per_point_snr(osa):
    sc = replace(load_scenario(CONFIGS / "bench.json").scenario, t1_c=31.0, osa=osa)
    points = []
    for i, beta_deg in enumerate(inclusive_range(-89.0, 0.0, 1.0)):
        point = replace(sc, beta_rad=math.radians(beta_deg))
        try:
            a = scenario_amplification(point)
        except SingularPostSelectionError:
            continue
        trace = scenario_trace(point, stream=i + 1)
        points.append((point.beta_rad, a, snr_estimate(trace, osa or OsaParams()).snr_db))
    expected = UsableAmplification(*best_usable(points, 20.0))
    assert max_usable_amplification(sc, 20.0, -89.0, 0.0, 1.0) == expected


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

    point = SweepKernel(sc).point(beta, stream)
    assert np.array_equal(point.trace, trace)
    assert np.array_equal(point.filtered, filtered)
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
