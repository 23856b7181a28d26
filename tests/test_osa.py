import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import wva_sense as w
from wva_sense.errors import ConfigError, DetectionLimitedError
from wva_sense.osa import measure_samples, rbw_kernel, snr_report
from wva_sense.scenario import SweepKernel, scenario_field

from conftest import bench_scenario


def osa_trace(s, p, stream=0):
    """The measured trace of spectrum s through the OSA model p on noise stream."""
    kernel = rbw_kernel(p, w.UnitContext(), s.grid)
    return w.Spectrum(grid=s.grid, samples=measure_samples(s.samples, kernel, p, stream))


def gaussian(grid, center, b, amplitude=1.0):
    nu = grid.frequencies()
    return w.Spectrum(grid=grid, samples=amplitude * np.exp(-((nu - center) ** 2) / b**2))


class TestOsaTrace:
    def test_identity_when_off(self):
        g = w.make_grid(193.29, 2.0, 1001)
        s = gaussian(g, 193.29, 0.1)
        out = osa_trace(s, w.OsaParams())
        assert np.array_equal(out.samples, s.samples)

    def test_same_seed_bit_identical(self):
        g = w.make_grid(193.29, 2.0, 1001)
        s = gaussian(g, 193.29, 0.1)
        p = w.OsaParams(rbw_nm=0.02, noise_floor=0.01, rel_noise=0.02, seed=99)
        a = osa_trace(s, p)
        b = osa_trace(s, p)
        assert np.array_equal(a.samples, b.samples)

    def test_different_seeds_differ_almost_everywhere(self):
        # Keep the signal well above the floor so zero-clamping cannot make
        # the two traces agree in the dark tails.
        g = w.make_grid(193.29, 2.0, 1001)
        nu = g.frequencies()
        s = w.Spectrum(grid=g, samples=1.0 + np.exp(-((nu - 193.29) ** 2) / 0.1**2))
        a = osa_trace(s, w.OsaParams(noise_floor=0.01, seed=1))
        b = osa_trace(s, w.OsaParams(noise_floor=0.01, seed=2))
        frac = np.mean(a.samples != b.samples)
        assert frac >= 0.99

    def test_stream_isolation(self):
        g = w.make_grid(193.29, 2.0, 1001)
        s = gaussian(g, 193.29, 0.1)
        p = w.OsaParams(noise_floor=0.01, seed=5)
        a = osa_trace(s, p, stream=1)
        b = osa_trace(s, p, stream=2)
        again = osa_trace(s, p, stream=1)
        assert np.array_equal(a.samples, again.samples)
        assert not np.array_equal(a.samples, b.samples)

    def test_convolution_conserves_power(self):
        b = 0.05
        g = w.make_grid(193.29, 3.0, 12001)
        s = gaussian(g, 193.29, b)
        p = w.OsaParams(rbw_nm=0.1)  # ~12.5 GHz FWHM at 1551 nm
        out = osa_trace(s, p)
        assert w.total_power(out) == pytest.approx(w.total_power(s), rel=1e-9)

    def test_broad_kernel_preserves_symmetric_centroid(self):
        b = 0.01
        g = w.make_grid(193.29, 3.0, 12001)
        s = gaussian(g, 193.29, b)
        p = w.OsaParams(rbw_nm=0.8)  # kernel ~10x wider than the feature
        out = osa_trace(s, p)
        assert abs(w.centroid(out) - 193.29) < g.spacing

    @pytest.mark.parametrize("reach,fits", [(49.5, True), (50.5, False)])
    def test_kernel_no_longer_than_the_grid(self, reach, fits):
        # 7 sigma = reach grid steps gives 2 ceil(reach) + 1 taps: 101 fit
        # the 101-point grid, 103 would make the trace longer than the grid.
        g = w.make_grid(193.29, 1.0, 101)
        fwhm_thz = reach * g.spacing / 7.0 * 2.0 * math.sqrt(2.0 * math.log(2.0))
        p = w.OsaParams(rbw_nm=abs(w.UnitContext().frequency_shift_to_nm(fwhm_thz)))
        s = gaussian(g, 193.29, 0.1)
        if fits:
            assert osa_trace(s, p).samples.shape == (101,)
        else:
            with pytest.raises(ConfigError, match="osa.rbw_nm: .* wider than the 101-point grid"):
                osa_trace(s, p)

    @pytest.mark.parametrize("rbw_nm,problem", [
        (1e6, "wider than"), (1e160, "wider than"), (1e300, "wider than"),
        (1e-300, "too narrow"),
    ])
    def test_bad_kernel_rejected_before_allocating(self, rbw_nm, problem):
        g = w.make_grid(193.29, 2.5, 4001)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=f"osa.rbw_nm: .* {problem}"):
                rbw_kernel(w.OsaParams(rbw_nm=rbw_nm), w.UnitContext(), g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e5

    def test_clamped_at_zero(self):
        g = w.make_grid(193.29, 2.0, 2001)
        s = w.Spectrum(grid=g, samples=np.zeros(2001))
        out = osa_trace(s, w.OsaParams(noise_floor=0.5, seed=3))
        assert np.all(out.samples >= 0)
        assert np.any(out.samples > 0)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            w.OsaParams(rbw_nm=-0.1)
        with pytest.raises(ValueError):
            w.OsaParams(rel_noise=1.0)
        with pytest.raises(ValueError):
            w.OsaParams(noise_floor=-1.0)


class TestSnrEstimate:
    def test_20_db(self):
        g = w.make_grid(193.29, 1.0, 101)
        s = w.Spectrum(grid=g, samples=np.full(101, 100.0))
        report = snr_report(float(np.max(s.samples)), w.OsaParams(noise_floor=1.0))
        assert report.snr_db == pytest.approx(20.0, rel=1e-12)
        assert report.peak_signal == 100.0
        assert report.noise_sigma == 1.0

    def test_doubling_peak_adds_3db(self):
        p = w.OsaParams(noise_floor=1.0)
        s1 = snr_report(50.0, p)
        s2 = snr_report(100.0, p)
        assert s2.snr_db - s1.snr_db == pytest.approx(10 * math.log10(2), abs=1e-9)

    def test_zero_noise_reports_infinite(self):
        g = w.make_grid(193.29, 1.0, 101)
        s = w.Spectrum(grid=g, samples=np.full(101, 5.0))
        assert snr_report(float(np.max(s.samples)), w.OsaParams()).snr_db == math.inf

    def test_rel_noise_quadrature(self):
        g = w.make_grid(193.29, 1.0, 101)
        s = w.Spectrum(grid=g, samples=np.full(101, 100.0))
        report = snr_report(float(np.max(s.samples)), w.OsaParams(noise_floor=3.0, rel_noise=0.04))
        assert report.noise_sigma == pytest.approx(5.0, rel=1e-12)

    def test_snr_drop_equals_power_attenuation(self):
        # Matched gratings keep the output shape beta-independent, so the
        # peak ratio equals the total-power ratio exactly.
        osa = w.OsaParams(noise_floor=1e-9, seed=12)
        sc = bench_scenario(osa=osa)
        kernel = SweepKernel(sc)

        snr_0 = snr_report(
            float(np.max(kernel.measure(kernel.raw(0.0), 1))), osa
        ).snr_db
        snr_44 = snr_report(
            float(np.max(kernel.measure(kernel.raw(math.radians(-44.0)), 2))), osa
        ).snr_db
        p_0 = w.total_power(w.post_select(scenario_field(sc), 0.0))
        p_44 = w.total_power(w.post_select(scenario_field(sc), math.radians(-44.0)))
        attenuation_db = 10 * math.log10(p_44 / p_0)
        assert snr_44 - snr_0 == pytest.approx(attenuation_db, abs=0.1)


class TestMaxUsableAmplification:
    def test_zero_noise_matches_closed_form(self):
        sc = bench_scenario(g_target=0.99, osa=w.OsaParams())
        result = w.max_usable_amplification(sc, snr_min_db=20.0, step_deg=0.05)
        m = w.max_amplification(1.0, math.acos(0.99))
        assert result.a == pytest.approx(m.a_max, abs=1e-3)
        assert math.degrees(result.beta_rad) == pytest.approx(
            math.degrees(m.beta_star), abs=0.05
        )
        assert result.snr_db == math.inf

    def test_raising_floor_never_increases_a(self):
        sc = bench_scenario(
            g_target=0.99, t1_c=31.0,
            osa=w.OsaParams(rbw_nm=0.01, noise_floor=1e-4, seed=7),
        )
        values = []
        for snr_min in (10.0, 20.0, 25.0):
            try:
                values.append(abs(w.max_usable_amplification(sc, snr_min, step_deg=0.25).a))
            except DetectionLimitedError:
                values.append(0.0)
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    def test_detection_limited(self):
        sc = bench_scenario(g_target=0.99, osa=w.OsaParams(noise_floor=1.0, seed=1))
        with pytest.raises(DetectionLimitedError):
            w.max_usable_amplification(sc, snr_min_db=60.0, step_deg=1.0)

    def test_invalid_sweep_args(self):
        sc = bench_scenario(osa=w.OsaParams())
        with pytest.raises(ValueError):
            w.max_usable_amplification(sc, 10.0, step_deg=0.0)
        with pytest.raises(ValueError):
            w.max_usable_amplification(sc, math.inf)
        with pytest.raises(ValueError):
            w.max_usable_amplification(sc, 10.0, beta_min_deg=0.0, beta_max_deg=-10.0)

    def test_skips_singular_points(self):
        # delta = 0 and matched gratings put a true dark port at -45 deg;
        # the sweep must skip it rather than abort.
        sc = bench_scenario(osa=w.OsaParams())
        result = w.max_usable_amplification(
            sc, snr_min_db=0.0, beta_min_deg=-46.0, beta_max_deg=-44.0, step_deg=0.5
        )
        assert math.isfinite(result.a)
