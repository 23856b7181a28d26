import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import wva_sense as w
from wva_sense.errors import ConfigError, DetectionLimitedError
from wva_sense.osa import measure_samples, peak_bound, rbw_kernel, snr_db, sub_seed
from wva_sense.scenario import SweepKernel
from wva_sense.spectral import trapezoid_power

from conftest import bench_scenario


def measured_trace(s, p, stream=0):
    """The measured trace of spectrum s through the OSA model p on noise stream."""
    kernel = rbw_kernel(p, w.UnitContext(), s.grid)
    return w.Spectrum(grid=s.grid, samples=measure_samples(s.samples, kernel, p, stream))


def gaussian(grid, center, b, amplitude=1.0):
    nu = grid.frequencies()
    return w.Spectrum(grid=grid, samples=amplitude * np.exp(-((nu - center) ** 2) / b**2))


class TestMeasureSamples:
    def test_identity_when_off(self):
        g = w.FrequencyGrid(193.29, 2.0, 1001)
        s = gaussian(g, 193.29, 0.1)
        out = measured_trace(s, w.OsaParams())
        assert np.array_equal(out.samples, s.samples)

    @pytest.mark.parametrize("n_points", [4001, 200001])
    def test_zero_rbw_is_the_one_tap_identity(self, n_points):
        """At rbw_nm = 0 the kernel is [1.0], and a noise-free OSA returns
        the samples bit for bit through it."""
        g = w.FrequencyGrid(193.29, 2.5, n_points)
        p = w.OsaParams()
        kernel = rbw_kernel(p, w.UnitContext(), g)
        assert kernel.tolist() == [1.0]
        raw = gaussian(g, 193.29, 0.1).samples * np.random.default_rng(n_points).uniform(
            0.5, 2.0, n_points)
        assert measure_samples(raw, kernel, p, 1).tobytes() == raw.tobytes()

    def test_same_seed_bit_identical(self):
        g = w.FrequencyGrid(193.29, 2.0, 1001)
        s = gaussian(g, 193.29, 0.1)
        p = w.OsaParams(rbw_nm=0.02, noise_floor=0.01, rel_noise=0.02, seed=99)
        a = measured_trace(s, p)
        b = measured_trace(s, p)
        assert np.array_equal(a.samples, b.samples)

    def test_different_seeds_differ_almost_everywhere(self):
        # Keep the signal well above the floor so zero-clamping cannot make
        # the two traces agree in the dark tails.
        g = w.FrequencyGrid(193.29, 2.0, 1001)
        nu = g.frequencies()
        s = w.Spectrum(grid=g, samples=1.0 + np.exp(-((nu - 193.29) ** 2) / 0.1**2))
        a = measured_trace(s, w.OsaParams(noise_floor=0.01, seed=1))
        b = measured_trace(s, w.OsaParams(noise_floor=0.01, seed=2))
        frac = np.mean(a.samples != b.samples)
        assert frac >= 0.99

    def test_stream_isolation(self):
        g = w.FrequencyGrid(193.29, 2.0, 1001)
        s = gaussian(g, 193.29, 0.1)
        p = w.OsaParams(noise_floor=0.01, seed=5)
        a = measured_trace(s, p, stream=1)
        b = measured_trace(s, p, stream=2)
        again = measured_trace(s, p, stream=1)
        assert np.array_equal(a.samples, again.samples)
        assert not np.array_equal(a.samples, b.samples)

    def test_convolution_conserves_power(self):
        b = 0.05
        g = w.FrequencyGrid(193.29, 3.0, 12001)
        s = gaussian(g, 193.29, b)
        p = w.OsaParams(rbw_nm=0.1)  # ~12.5 GHz FWHM at 1551 nm
        out = measured_trace(s, p)
        assert w.total_power(out) == pytest.approx(w.total_power(s), rel=1e-9)

    def test_broad_kernel_preserves_symmetric_centroid(self):
        b = 0.01
        g = w.FrequencyGrid(193.29, 3.0, 12001)
        s = gaussian(g, 193.29, b)
        p = w.OsaParams(rbw_nm=0.8)  # kernel ~10x wider than the feature
        out = measured_trace(s, p)
        assert abs(w.centroid(out) - 193.29) < g.spacing

    @pytest.mark.parametrize("reach,fits", [(49.5, True), (50.5, False)])
    def test_kernel_no_longer_than_the_grid(self, reach, fits):
        # 7 sigma = reach grid steps gives 2 ceil(reach) + 1 taps: 101 fit
        # the 101-point grid, 103 would make the trace longer than the grid.
        g = w.FrequencyGrid(193.29, 1.0, 101)
        fwhm_thz = reach * g.spacing / 7.0 * 2.0 * math.sqrt(2.0 * math.log(2.0))
        p = w.OsaParams(rbw_nm=abs(w.UnitContext().frequency_shift_to_nm(fwhm_thz)))
        s = gaussian(g, 193.29, 0.1)
        if fits:
            assert measured_trace(s, p).samples.shape == (101,)
        else:
            with pytest.raises(ConfigError, match="osa.rbw_nm: .* wider than the 101-point grid"):
                measured_trace(s, p)

    @pytest.mark.parametrize("rbw_nm,problem", [
        (1e6, "wider than"), (1e160, "wider than"), (1e300, "wider than"),
        (1e-300, "too narrow"),
    ])
    def test_bad_kernel_rejected_before_allocating(self, rbw_nm, problem):
        g = w.FrequencyGrid(193.29, 2.5, 4001)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=f"osa.rbw_nm: .* {problem}"):
                rbw_kernel(w.OsaParams(rbw_nm=rbw_nm), w.UnitContext(), g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e5

    def test_clamped_at_zero(self):
        g = w.FrequencyGrid(193.29, 2.0, 2001)
        s = w.Spectrum(grid=g, samples=np.zeros(2001))
        out = measured_trace(s, w.OsaParams(noise_floor=0.5, seed=3))
        assert np.all(out.samples >= 0)
        assert np.any(out.samples > 0)

    def test_floor_only_noise_scale_equals_the_per_sample_formula(self):
        """At rel_noise = 0 the noise scale is one scalar; the trace is the
        per-sample formula's bit for bit, for floors from 1e-300 to 1e100."""
        rng = np.random.default_rng(11)
        g = w.FrequencyGrid(193.29, 2.0, 401)
        for case in range(300):
            floor = 0.0 if case % 25 == 0 else float(10.0 ** rng.uniform(-300.0, 100.0))
            p = w.OsaParams(rbw_nm=0.02 * (case % 2), noise_floor=floor, seed=case)
            kernel = rbw_kernel(p, w.UnitContext(), g)
            raw = gaussian(g, 193.29, 0.1, amplitude=float(rng.uniform(0.0, 2.0))).samples
            samples = np.convolve(raw, kernel, mode="same")
            expected = samples
            if floor > 0.0:
                noise = np.random.Generator(np.random.PCG64(sub_seed(case, 5))).standard_normal(
                    samples.size)
                noise *= np.sqrt(floor**2 + (0.0 * samples) ** 2)
                expected = np.clip(noise + samples, 0.0, None)
            assert measure_samples(raw, kernel, p, 5).tobytes() == expected.tobytes(), case

    def test_param_validation(self):
        with pytest.raises(ValueError):
            w.OsaParams(rbw_nm=-0.1)
        with pytest.raises(ValueError):
            w.OsaParams(rel_noise=1.0)
        with pytest.raises(ValueError):
            w.OsaParams(noise_floor=-1.0)


class TestPeakBound:
    def test_bounds_the_measured_peak_of_any_non_negative_samples(self):
        """Seeded draws of grid size, span, RBW, sample shape and scale (1e-320
        to 1e300), floor and relative noise: peak_bound is never below the
        measured peak, and numpy does not warn. Flat subnormal samples under
        a wide kernel are where underflowing products round the convolution
        above max(samples)."""
        rng = np.random.default_rng(32)
        shapes = {
            "uniform": lambda n: rng.random(n),
            "spike": lambda n: np.eye(1, n, int(rng.integers(n)))[0],
            "zeros": np.zeros,
            "flat": np.ones,
            "sparse": lambda n: np.where(rng.random(n) < 0.05, rng.random(n), 0.0),
        }
        violations, draws = [], 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for _ in range(3000):
                n = int(rng.choice([3, 5, 11, 101, 401, 4001]))
                grid = w.FrequencyGrid(193.29, float(10.0 ** rng.uniform(-3.0, 1.0)), n)
                p = w.OsaParams(
                    rbw_nm=float(rng.choice([0.0, 0.001, 0.01, 0.05, 0.3])),
                    noise_floor=(0.0 if rng.random() < 0.3
                                 else float(10.0 ** rng.uniform(-300.0, 150.0))),
                    rel_noise=0.0 if rng.random() < 0.3 else float(rng.uniform(0.0, 0.99)),
                    seed=int(rng.integers(2**32)),
                )
                try:
                    taps = rbw_kernel(p, w.UnitContext(), grid)
                except w.ConfigError:
                    continue
                scale = float(rng.choice([1e-320, 1e300, 10.0 ** rng.uniform(-320.0, 300.0)]))
                shape = str(rng.choice(list(shapes)))
                samples = shapes[shape](n) * scale
                stream = int(rng.integers(2**31))
                draws += 1
                peak = float(np.max(measure_samples(samples, taps, p, stream)))
                if not peak_bound(samples, p, stream) >= peak:
                    violations.append((shape, scale, n, taps.size, p, stream))
        assert draws >= 2000
        assert violations == []


class TestSnrEstimate:
    def test_20_db(self):
        g = w.FrequencyGrid(193.29, 1.0, 101)
        s = w.Spectrum(grid=g, samples=np.full(101, 100.0))
        p = w.OsaParams(noise_floor=1.0)
        assert snr_db(float(np.max(s.samples)), p) == pytest.approx(20.0, rel=1e-12)
        assert p.noise_sigma(100.0) == 1.0

    def test_doubling_peak_adds_3db(self):
        p = w.OsaParams(noise_floor=1.0)
        s1 = snr_db(50.0, p)
        s2 = snr_db(100.0, p)
        assert s2 - s1 == pytest.approx(10 * math.log10(2), abs=1e-9)

    def test_zero_noise_reports_infinite(self):
        g = w.FrequencyGrid(193.29, 1.0, 101)
        s = w.Spectrum(grid=g, samples=np.full(101, 5.0))
        assert snr_db(float(np.max(s.samples)), w.OsaParams()) == math.inf

    def test_zero_peak_against_noise_reports_minus_infinite(self):
        assert snr_db(0.0, w.OsaParams(noise_floor=1.0)) == -math.inf

    @pytest.mark.parametrize("osa", [w.OsaParams(), w.OsaParams(rel_noise=0.01)],
                             ids=["noise_free", "relative_only"])
    def test_zero_peak_reports_minus_infinite_whatever_the_noise(self, osa):
        """No light is never usable, also where sigma at the peak is 0."""
        assert snr_db(0.0, osa) == -math.inf

    def test_rel_noise_quadrature(self):
        g = w.FrequencyGrid(193.29, 1.0, 101)
        s = w.Spectrum(grid=g, samples=np.full(101, 100.0))
        p = w.OsaParams(noise_floor=3.0, rel_noise=0.04)
        assert p.noise_sigma(float(np.max(s.samples))) == pytest.approx(5.0, rel=1e-12)

    @pytest.mark.parametrize("peak", [1e-300, 1e-160, 1.0, 1e150])
    def test_rel_noise_snr_does_not_depend_on_the_power_unit(self, peak):
        """sigma squares neither term, so rel_noise = 0.1 reads 10 dB at any
        peak: its square would underflow below about 1e-154."""
        p = w.OsaParams(rel_noise=0.1)
        assert snr_db(peak, p) == pytest.approx(10.0, abs=1e-12)
        both = w.OsaParams(noise_floor=3.0 * peak, rel_noise=0.04)
        assert both.noise_sigma(100.0 * peak) == pytest.approx(5.0 * peak, rel=1e-15)

    @pytest.mark.parametrize("floor,rel", [(0.0, 0.01), (0.0, 0.3), (1e-300, 0.01),
                                           (1e-6, 0.05), (1e-6, 0.0)])
    def test_snr_never_falls_as_the_peak_rises(self, floor, rel):
        """max_usable_amplification's screen holds only if snr_db is
        non-decreasing in the peak. Peaks: the first 3000 subnormals, 20001
        log-spaced from 1e-323 to 1e300, and runs of 2000 consecutive floats
        from 2^-1000, 2^-20, 1 and 2^20, where rounding steps show."""
        ulps = np.arange(2000) * 2.0**-52
        peaks = np.unique(np.concatenate([
            np.arange(1, 3001) * 5e-324, np.logspace(-323, 300, 20001),
            *(2.0**k * (1.0 + ulps) for k in (-1000, -20, 0, 20))]))
        p = w.OsaParams(noise_floor=floor, rel_noise=rel)
        snr = np.array([snr_db(float(peak), p) for peak in peaks])
        falls = np.flatnonzero(snr[1:] < snr[:-1])
        assert falls.size == 0, [(peaks[i], snr[i], peaks[i + 1], snr[i + 1]) for i in falls[:3]]

    @pytest.mark.parametrize("rel", [0.01, 0.1, 0.3])
    @pytest.mark.parametrize("peak", [5e-324, 2.4e-322, 7.4e-322, 1e-310, 1e-300, 1.0, 1e300])
    def test_rel_only_snr_is_exact_at_every_positive_peak(self, peak, rel):
        """Without a floor the SNR is -10 log10(rel_noise) exactly, also where
        rel_noise * peak underflows to 0."""
        assert snr_db(peak, w.OsaParams(rel_noise=rel)) == -10.0 * math.log10(rel)

    def test_floor_only_snr_where_the_quotient_underflows_is_minus_infinite(self):
        """peak / floor underflows to 0 at the smallest subnormal over a floor of
        10, which reads -inf; elsewhere the floor-only rule is
        10 log10(peak / floor) bit for bit."""
        p = w.OsaParams(noise_floor=10.0)
        assert snr_db(5e-324, p) == -math.inf
        for peak in (1e-300, 0.5, 1e300):
            assert snr_db(peak, p) == 10.0 * math.log10(peak / 10.0)

    def test_floor_only_sigma_is_the_floor(self):
        p = w.OsaParams(noise_floor=0.25)
        assert p.noise_sigma(np.array([0.0, 1.0, 1e300])) == 0.25

    def test_snr_drop_equals_power_attenuation(self):
        # Matched gratings keep the output shape beta-independent, so the
        # peak ratio equals the total-power ratio exactly.
        osa = w.OsaParams(noise_floor=1e-9, seed=12)
        sc = bench_scenario(osa=osa)
        kernel = SweepKernel(sc)

        snr_0 = snr_db(float(np.max(kernel.measure(kernel.raw(0.0), 1))), osa)
        snr_44 = snr_db(
            float(np.max(kernel.measure(kernel.raw(math.radians(-44.0)), 2))), osa
        )
        p_0 = trapezoid_power(kernel.raw(0.0), kernel.grid.spacing)
        p_44 = trapezoid_power(kernel.raw(math.radians(-44.0)), kernel.grid.spacing)
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
