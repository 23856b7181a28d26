"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `[PASS] criterion-N` line (visible with `pytest -s`);
a failed assertion marks the criterion red. Criteria with runtime budgets
assert the elapsed time as well.
"""

import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import wva_sense as w
from wva_sense.cli import main, replay_manifest
from wva_sense.config import load_scenario
from wva_sense.errors import DetectionLimitedError
from wva_sense.scenario import (
    SweepKernel,
    exact_centroid,
    exact_spectrum,
    scenario_centers,
    sweep_temperature,
)
from wva_sense.spectral import trapezoid_power

from conftest import FBG_B, KAPPA, bench_scenario, grating_pair

UNITS = w.UnitContext(reference_wavelength_nm=1551.0)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def report(name, detail=""):
    print(f"[PASS] {name}" + (f": {detail}" if detail else ""))


def test_c01_equivalence_oracle():
    # 400 randomized two-grating scenarios: the closed-form spectrum
    # (scenario.exact_spectrum) equals the field every CLI output is computed
    # from (SweepKernel.raw) pointwise to 1e-12 of the trace peak. The first
    # 200 have equal lobes at nu0 +- nu_minus under a source centered on nu0;
    # the other 200 have unequal widths (x[0.6, 1.4]) and efficiencies, lobes
    # at nu0 + nu_plus +- nu_minus, and the source offset by +-B from nu0.
    # (At interference nulls a pointwise-relative comparison is dominated by
    # float cancellation in *any* two formulations, so the tolerance is
    # anchored to the trace peak.)
    rng = np.random.default_rng(20240817)
    t0 = time.time()
    worst = 0.0
    for i in range(400):
        b = rng.uniform(0.1, 1.0)
        nu0 = rng.uniform(150.0, 250.0)
        nu_minus = rng.uniform(0.0, 0.5) * b
        if i < 200:
            eff = rng.uniform(0.05, 1.0)
            centers, widths, effs = (nu0 + nu_minus, nu0 - nu_minus), (b, b), (eff, eff)
            source_nu0 = nu0
        else:
            nu_plus = rng.uniform(-0.2, 0.2) * b
            centers = (nu0 + nu_plus + nu_minus, nu0 + nu_plus - nu_minus)
            widths = b * rng.uniform(0.6, 1.4, 2)
            effs = rng.uniform(0.05, 1.0, 2)
            source_nu0 = nu0 + rng.choice((-1.0, 1.0)) * b
        source = w.SourceParams(nu0_thz=source_nu0, b_thz=rng.uniform(2.0, 5.0) * b,
                                amplitude=rng.uniform(0.5, 2.0))
        sc = grating_pair(
            source, centers, widths, effs,
            tau_ps=rng.uniform(0.0, 0.1) / b, phi_rad=rng.uniform(0.0, math.pi),
            grid=w.GridSettings(n_points=1501, center_thz=nu0, span_thz=10 * b),
        )
        beta = math.radians(rng.uniform(-90.0, 0.0))
        oracle = SweepKernel(sc).raw(beta)
        peak = float(np.max(oracle))
        worst = max(worst, float(np.max(np.abs(exact_spectrum(sc, beta) - oracle))) / peak)
    elapsed = time.time() - t0
    assert worst <= 1e-12, f"worst deviation {worst:.2e}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report("criterion-1 equivalence oracle",
           f"worst {worst:.2e} over 200 equal-lobe and 200 unequal-lobe scenarios "
           f"in {elapsed:.2f}s")


def test_c02_weak_regime_centroid():
    # 20x20 (beta, nu_minus) grid with |nu_minus| <= 0.05 B, delta = 0.2 and
    # tau = 0, as scenarios with equal gratings at nu0 +- nu_minus under a
    # source centered on nu0: the closed-form centroid and the kernel's
    # numeric one (4001 points over 12 B, filter off) each lie within 1% of
    # |A nu_minus| of the first-order nu_plus + A nu_minus (1e-4 B absolute
    # where A nu_minus = 0).
    t0 = time.time()
    b = 0.265
    delta = 0.2
    nu0 = 193.29
    source = w.SourceParams(nu0_thz=nu0, b_thz=4 * b)
    worst = 0.0
    for nu_minus in np.linspace(0.0, 0.05 * b, 20):
        sc = grating_pair(
            source, (nu0 + nu_minus, nu0 - nu_minus), (b, b), phi_rad=delta,
            filter=w.FilterSettings(enabled=False),
            grid=w.GridSettings(n_points=4001, center_thz=nu0, span_thz=12 * b),
        )
        kernel = SweepKernel(sc)
        c1, c2 = scenario_centers(sc)
        for beta_deg in np.linspace(-89.0, -1.0, 20):
            beta = math.radians(beta_deg)
            a = w.amplification_factor(beta, w.overlap_gamma((c1 - c2) / 2, b), delta)
            first_order = (c1 + c2) / 2 + a * (c1 - c2) / 2
            scale = abs(a * (c1 - c2) / 2)
            for centroid in (exact_centroid(sc, beta), kernel.centroid(kernel.raw(beta))):
                err = abs(centroid - first_order)
                if scale == 0.0:
                    assert err < 1e-4 * b, f"absolute error {err:.2e} at A*nu_minus=0"
                else:
                    # 1e-12*b guards the comparison against float dust at points
                    # where A*nu_minus is orders below the grid resolution.
                    assert err <= 0.01 * scale + 1e-12 * b, (
                        f"beta={beta_deg:.1f} nu_minus={nu_minus:.2e}: "
                        f"err {err:.2e} vs 1% of {scale:.2e}"
                    )
                    worst = max(worst, err / scale)
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    report("criterion-2 weak-regime centroid",
           f"worst {worst:.2e} relative on 20x20 grid in {elapsed:.1f}s")


def test_c03_amplification_curves():
    # Peak amplification and its angle for g in {0.99, 0.999, 0.9999},
    # verified against a dense brute-force angle sweep (1e6 points, fine
    # enough that grid curvature stays below the 1e-6 comparison).
    expectations = {0.99: (7.09, 0.01), 0.999: (22.37, 0.05), 0.9999: (70.7, 0.2)}
    betas = np.linspace(-math.pi / 2, 0.0, 1_000_001)
    details = []
    for g, (a_expected, a_tol) in expectations.items():
        sweep = np.cos(2 * betas) / (1.0 + g * np.sin(2 * betas))
        i = int(np.argmax(sweep))
        closed = w.max_amplification(1.0, math.acos(g))
        assert sweep[i] == pytest.approx(a_expected, abs=a_tol)
        assert closed.a_max == pytest.approx(a_expected, abs=a_tol)
        assert sweep[i] == pytest.approx(closed.a_max, rel=1e-6)
        beta_expected = -0.5 * math.degrees(math.asin(g))
        assert math.degrees(betas[i]) == pytest.approx(beta_expected, abs=0.05)
        assert math.degrees(closed.beta_star) == pytest.approx(beta_expected, abs=0.05)
        details.append(f"g={g}: {closed.a_max:.4f} @ {math.degrees(closed.beta_star):.2f} deg")
    report("criterion-3 amplification curves", "; ".join(details))


def test_c04_theory_line_slopes(tmp_path):
    # Fixed-A theory lines from the CLI carry slopes kappa, 13 kappa and
    # 25.5 kappa at machine precision.
    run = tmp_path / "run"
    assert main(["theory-lines", "--a", "1,25,50", "--dt", "0:12:1",
                 "--kappa", "0.009", "--out", str(run)]) == 0
    lines = [l for l in (run / "theory_lines.csv").read_text().splitlines()
             if l and not l.startswith("#")][1:]
    rows = [[float(v) for v in l.split(",")] for l in lines]
    for a_val, factor in ((1.0, 1.0), (25.0, 13.0), (50.0, 25.5)):
        pts = [(r[0], r[2]) for r in rows if r[1] == a_val]
        fit = w.fit_sensitivity(pts)
        assert fit.slope_nm_per_c == pytest.approx(factor * 0.009, rel=1e-12)
        assert abs(fit.intercept_nm) < 1e-15
    report("criterion-4 theory line slopes", "kappa, 13 kappa, 25.5 kappa exact")


def test_c05_temperature_sweep_slopes():
    # End-to-end pipeline over dt = 0..12 C: the unamplified slope echoes the
    # input kappa to 1e-4 nm/C, and the g=0.99 sweep at -40 deg lands within
    # 15% of the 0.035 nm/C bench-scale slope.
    t0 = time.time()
    dts = np.linspace(0.0, 12.0, 13)

    sc0 = bench_scenario(beta_deg=0.0)
    pts0 = [(dt, r.centroid_nm_shift) for dt, r in sweep_temperature(sc0, dts)]
    fit0 = w.fit_sensitivity(pts0)
    assert fit0.slope_nm_per_c == pytest.approx(KAPPA, abs=1e-4)

    sc40 = bench_scenario(beta_deg=-40.0, g_target=0.99)
    pts40 = [(dt, r.centroid_nm_shift) for dt, r in sweep_temperature(sc40, dts)]
    fit40 = w.fit_sensitivity(pts40)
    assert fit40.slope_nm_per_c == pytest.approx(0.035, rel=0.15)

    a0 = w.amplification_factor(math.radians(-40.0), 1.0, math.acos(0.99))
    enhancement = fit40.slope_nm_per_c / fit0.slope_nm_per_c
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(
        "criterion-5 temperature sweep slopes",
        f"beta=0: {fit0.slope_nm_per_c:.6f} nm/C; beta=-40: "
        f"{fit40.slope_nm_per_c:.6f} nm/C ({enhancement:.2f}x, (A+1)/2={0.5 * (a0 + 1):.2f}) "
        f"in {elapsed:.1f}s",
    )


def test_c06_dark_port():
    sc = bench_scenario()
    kernel = SweepKernel(sc)
    p_dark = trapezoid_power(kernel.raw(math.radians(-45.0)), kernel.grid.spacing)
    p_bright = trapezoid_power(kernel.raw(0.0), kernel.grid.spacing)
    ratio = p_dark / p_bright
    assert ratio <= 1e-10
    report("criterion-6 dark port", f"power ratio {ratio:.2e}")


def test_c07_pulse_bandwidth_cross_check():
    b = w.pulse_bandwidth(0.32)
    fwhm_nm = 2 * b * math.sqrt(math.log(2)) * 1549.0**2 / w.SPEED_OF_LIGHT_NM_THZ
    assert fwhm_nm == pytest.approx(11.0, abs=0.2)
    report("criterion-7 pulse bandwidth", f"320 fs -> {fwhm_nm:.3f} nm power FWHM")


def test_c08_filter_efficacy():
    # One grating carries the default satellite lobe (0.2 relative amplitude
    # at -0.37 THz). At a weak-value angle the filter must restore the fitted
    # slope to within 5% of the lobe-free value, while the unfiltered slope
    # error exceeds 5%.
    side = w.SideLobe(offset_thz=-0.37, rel_amplitude=0.2, width_thz=FBG_B)
    dts = np.linspace(0.0, 12.0, 13)

    def slope(side_lobe, filtered):
        sc = bench_scenario(
            beta_deg=-25.0, g_target=0.99, side_lobe1=side_lobe,
            filter_enabled=filtered, half_width_factor=1.0,
        )
        pts = [(dt, r.centroid_nm_shift) for dt, r in sweep_temperature(sc, dts)]
        return w.fit_sensitivity(pts).slope_nm_per_c

    clean_f = slope(None, True)
    lobe_f = slope(side, True)
    clean_u = slope(None, False)
    lobe_u = slope(side, False)
    filtered_err = abs(lobe_f - clean_f) / clean_f
    unfiltered_err = abs(lobe_u - clean_u) / clean_u
    assert filtered_err < 0.05, f"filtered slope error {filtered_err:.1%}"
    assert unfiltered_err > 0.05, f"unfiltered slope error only {unfiltered_err:.1%}"
    report("criterion-8 filter efficacy",
           f"filtered error {filtered_err:.2%}, unfiltered error {unfiltered_err:.2%}")


def test_c09_manifest_determinism(tmp_path):
    # Noisy runs replayed from their manifests reproduce byte-identical CSVs.
    doc = {
        "source": {"center_nm": 1549.0, "pulse_fwhm_ps": 0.32},
        "fbg1": {"center_nm": 1551.0, "kappa_nm_per_c": 0.009, "fwhm_nm": 2.0,
                 "efficiency": 0.14,
                 "side_lobe": {"offset_thz": -0.37, "rel_amplitude": 0.2}},
        "fbg2": {"center_nm": 1551.0, "kappa_nm_per_c": 0.009, "fwhm_nm": 2.0,
                 "efficiency": 0.14},
        "interferometer": {"tau_ps": 0.0, "phi_rad": 0.14154134504523212,
                           "lcvr_rad": 0.0},
        "postselect": {"beta_deg": -40.0},
        "temperatures": {"t2_ref_c": 20.0, "t1_list_c": [20, 23, 26, 29, 32]},
        "osa": {"rbw_nm": 0.01, "noise_floor": 1e-5, "rel_noise": 0.02, "seed": 4242},
    }
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(doc))

    checked = []
    for cmd_args, outputs in (
        (["sweep-temp", "--config", str(cfg)], ["sweep_temp.csv"]),
        (
            ["sweep-beta", "--config", str(cfg), "--beta-min", "-60",
             "--beta-max", "0", "--step", "5", "--dump-spectra=-40"],
            ["sweep_beta.csv", "spectrum_beta_-40.00.csv"],
        ),
    ):
        run = tmp_path / cmd_args[0]
        assert main(cmd_args + ["--out", str(run)]) == 0
        replay_dir = tmp_path / (cmd_args[0] + "-replay")
        replay_manifest(run / "manifest.json", replay_dir)
        for name in outputs:
            assert (run / name).read_bytes() == (replay_dir / name).read_bytes(), name
            checked.append(name)
    report("criterion-9 manifest determinism",
           f"byte-identical replays: {', '.join(checked)}")


def test_c10_snr_tradeoff():
    # |A| from the SNR-limited search is non-increasing in the noise floor
    # and in the SNR threshold over a 5x5 grid; with zero noise the search
    # reproduces the closed-form optimum within one sweep step.
    step = 0.1
    floors = [1e-7, 1e-6, 1e-5, 1e-4, 1e-3]
    thresholds = [10.0, 15.0, 20.0, 25.0, 30.0]
    table = {}
    for floor in floors:
        sc = bench_scenario(
            g_target=0.99, t1_c=31.0,
            osa=w.OsaParams(rbw_nm=0.01, noise_floor=floor, seed=7),
        )
        for snr_min in thresholds:
            try:
                table[(floor, snr_min)] = abs(
                    w.max_usable_amplification(sc, snr_min, step_deg=step).a
                )
            except DetectionLimitedError:
                table[(floor, snr_min)] = 0.0
    for i, floor in enumerate(floors):
        for j, snr_min in enumerate(thresholds):
            if i > 0:
                assert table[(floor, snr_min)] <= table[(floors[i - 1], snr_min)] + 1e-9
            if j > 0:
                assert table[(floor, snr_min)] <= table[(floor, thresholds[j - 1])] + 1e-9

    sc0 = bench_scenario(g_target=0.99, osa=w.OsaParams())
    result = w.max_usable_amplification(sc0, snr_min_db=20.0, step_deg=step)
    closed = w.max_amplification(1.0, math.acos(0.99))
    assert abs(result.a) == pytest.approx(closed.a_max, abs=0.01)
    assert math.degrees(result.beta_rad) == pytest.approx(
        math.degrees(closed.beta_star), abs=step
    )
    spread = sorted(set(table.values()))
    report("criterion-10 snr tradeoff",
           f"5x5 grid monotone, |A| from {spread[0]:.2f} to {spread[-1]:.2f}; "
           f"zero-noise optimum {result.a:.4f} at {math.degrees(result.beta_rad):.2f} deg")


def test_c11_exact_centroid():
    # 200 random scenarios on configs/bench.json: each grating's width scaled
    # by 0.6-1.4 and its efficiency in [0.05, 1], dt in [-50, 50] degC, tau in
    # [-0.5, 0.5] ps, delta in [-pi, pi] and beta in [-89, 0] deg, with no
    # filter and the ideal OSA. The kernel's numeric centroid of SweepKernel.raw
    # equals scenario.exact_centroid within 1e-9 of the wider lobe width B.
    # The grid, 8001 points over 20x the wider FWHM, reaches >16 B from its
    # center, so the truncated tails carry < 1e-100 of the power, and its
    # spacing (~0.004 B) leaves the trapezoid error far below 1e-9 B.
    base = load_scenario(CONFIGS / "bench.json").scenario
    rng = np.random.default_rng(11)
    t0 = time.time()
    worst = 0.0
    for _ in range(200):
        fbg1, fbg2 = (replace(f, bandwidth_b_thz=f.bandwidth_b_thz * rng.uniform(0.6, 1.4),
                              reflect_efficiency=rng.uniform(0.05, 1.0))
                      for f in (base.fbg1, base.fbg2))
        sc = replace(
            base, fbg1=fbg1, fbg2=fbg2, t1_c=base.t2_c + rng.uniform(-50.0, 50.0),
            tau_ps=rng.uniform(-0.5, 0.5), phi_rad=rng.uniform(-math.pi, math.pi),
            gamma_lcvr_rad=0.0, filter=w.FilterSettings(enabled=False), osa=w.OsaParams(),
            grid=w.GridSettings(n_points=8001, span_factor=20.0),
        )
        beta = math.radians(rng.uniform(-89.0, 0.0))
        kernel = SweepKernel(sc)
        err = abs(kernel.centroid(kernel.raw(beta)) - exact_centroid(sc, beta))
        worst = max(worst, err / max(fbg1.bandwidth_b_thz, fbg2.bandwidth_b_thz))
    elapsed = time.time() - t0
    assert worst <= 1e-9, f"worst deviation {worst:.2e} B"
    assert elapsed < 2.0, f"took {elapsed:.1f}s"
    report("criterion-11 exact centroid",
           f"worst {worst:.2e} B over 200 scenarios in {elapsed:.2f}s")
