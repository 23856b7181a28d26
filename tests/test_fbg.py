import math

import numpy as np
import pytest

import wva_sense as w
from wva_sense.errors import DegenerateFitError
from wva_sense.fbg import _lobe_peak, bandwidth_b_from_fwhm_nm

UNITS = w.UnitContext(reference_wavelength_nm=1551.0)
NU_1551 = w.wavelength_to_frequency(1551.0)
B = bandwidth_b_from_fwhm_nm(2.0, 1551.0)


def fbg(**overrides):
    defaults = dict(
        center_ref_thz=NU_1551, kappa_nm_per_c=0.009,
        bandwidth_b_thz=B, reflect_efficiency=0.14,
    )
    defaults.update(overrides)
    return w.FbgParams(**defaults)


class TestBraggCenter:
    def test_reference_temperature(self):
        assert w.bragg_center(fbg(), 20.0, 20.0, UNITS) == NU_1551

    def test_11_degree_shift_in_nm(self):
        c = w.bragg_center(fbg(), 31.0, 20.0, UNITS)
        shift_nm = UNITS.frequency_shift_to_nm(c - NU_1551)
        assert shift_nm == pytest.approx(0.099, rel=1e-12)

    def test_linearity(self):
        c1 = w.bragg_center(fbg(), 25.0, 20.0, UNITS) - NU_1551
        c2 = w.bragg_center(fbg(), 30.0, 20.0, UNITS) - NU_1551
        assert c2 == pytest.approx(2 * c1, rel=1e-12)

    def test_positive_kappa_lowers_frequency(self):
        assert w.bragg_center(fbg(), 30.0, 20.0, UNITS) < NU_1551
        assert UNITS.nm_shift_to_frequency(0.009) < 0


class TestReflect:
    GRID = w.FrequencyGrid(NU_1551, 10 * 2 * math.sqrt(math.log(2)) * B, 8001)

    def test_symmetric_lobe_centroid(self):
        s = w.reflect(fbg(), 0.83, NU_1551 + 0.25, NU_1551, self.GRID)
        assert w.centroid(s) == pytest.approx(NU_1551, abs=1e-9)

    def test_efficiency_scales_peak(self):
        lossless = w.reflect(fbg(reflect_efficiency=1.0), 0.83, NU_1551, NU_1551, self.GRID)
        lossy = w.reflect(fbg(reflect_efficiency=0.14), 0.83, NU_1551, NU_1551, self.GRID)
        assert np.max(lossy.samples) == pytest.approx(0.14 * np.max(lossless.samples), rel=1e-12)

    def test_source_envelope_weighting(self):
        centered = w.reflect(fbg(), 0.83, NU_1551, NU_1551, self.GRID)
        detuned = w.reflect(fbg(), 0.83, NU_1551 + 0.83, NU_1551, self.GRID)
        assert np.max(detuned.samples) == pytest.approx(
            math.exp(-1.0) * np.max(centered.samples), rel=1e-9
        )

    def test_side_lobe_moment_oracle(self):
        # Equal-width two-Gaussian mixture: masses scale with peak amplitude,
        # so the centroid sits at offset * rel / (1 + rel) from the main lobe.
        lobe = w.SideLobe(offset_thz=-0.37, rel_amplitude=0.2, width_thz=B)
        s = w.reflect(fbg(side_lobe=lobe), 0.83, NU_1551, NU_1551, self.GRID)
        expected = NU_1551 - 0.37 * 0.2 / 1.2
        assert w.centroid(s) == pytest.approx(expected, abs=1e-6)

    def test_center_outside_grid_rejected(self):
        with pytest.raises(ValueError, match="outside grid"):
            w.reflect(fbg(), 0.83, NU_1551, NU_1551 + 100.0, self.GRID)

    def test_lobe_peak_is_zero_where_the_envelope_square_overflows(self):
        # (c - nu0) ** 2 overflows a float at c - nu0 = 1e160; exp(-inf) is exactly 0.
        assert _lobe_peak(fbg(), 0.83, NU_1551, NU_1551 + 1e160) == 0.0


class TestCentroidShiftModel:
    def test_unamplified_is_kappa_dt(self):
        assert w.centroid_shift_model(11.0, 0.009, 1.0) == pytest.approx(0.099, rel=1e-12)

    def test_static_mismatch_reproduces_019(self):
        # 0.09 nm fabrication mismatch plus 11 degC at A=1 gives the 0.19 nm
        # unamplified starting shift.
        shift = w.centroid_shift_model(11.0, 0.009, 1.0, static_offset_nm=0.09)
        assert shift == pytest.approx(0.189, rel=1e-12)

    def test_zero_dt_pure_static(self):
        assert w.centroid_shift_model(0.0, 0.009, 3.0, 0.08) == pytest.approx(
            (3.0 + 1.0) * 0.08 / 2, rel=1e-12
        )

    def test_a25_slope(self):
        s1 = w.centroid_shift_model(1.0, 0.009, 25.0)
        assert s1 == pytest.approx(13 * 0.009, rel=1e-12)


class TestFitSensitivity:
    def test_exact_line(self):
        pts = [(dt, 0.009 * dt) for dt in range(13)]
        fit = w.fit_sensitivity(pts)
        assert fit.slope_nm_per_c == pytest.approx(0.009, rel=1e-12)
        assert fit.intercept_nm == pytest.approx(0.0, abs=1e-15)
        assert fit.residual_rms_nm < 1e-15
        assert fit.n_points == 13

    def test_paper_scale_slope(self):
        pts = [(dt, 0.035 * dt - 0.01) for dt in range(13)]
        fit = w.fit_sensitivity(pts)
        assert fit.slope_nm_per_c == pytest.approx(0.035, rel=1e-12)
        assert fit.intercept_nm == pytest.approx(-0.01, rel=1e-9)

    def test_alternating_perturbation(self):
        pts = [(dt, 0.009 * dt + (0.001 if dt % 2 == 0 else -0.001)) for dt in range(12)]
        fit = w.fit_sensitivity(pts)
        assert abs(fit.slope_nm_per_c - 0.009) < 5e-4
        assert fit.residual_rms_nm == pytest.approx(0.001, rel=0.05)

    def test_normal_equation_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            dt = rng.uniform(0, 20, size=8)
            shift = rng.normal(size=8)
            fit = w.fit_sensitivity(list(zip(dt, shift)))
            n = len(dt)
            sx, sy = dt.sum(), shift.sum()
            sxx, sxy = (dt * dt).sum(), (dt * shift).sum()
            slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
            intercept = (sy - slope * sx) / n
            assert fit.slope_nm_per_c == pytest.approx(slope, rel=1e-10)
            assert fit.intercept_nm == pytest.approx(intercept, rel=1e-10)

    def test_order_invariance(self):
        rng = np.random.default_rng(23)
        pts = [(float(dt), 0.02 * dt + rng.normal(0, 0.01)) for dt in range(10)]
        shuffled = list(pts)
        rng.shuffle(shuffled)
        a, b = w.fit_sensitivity(pts), w.fit_sensitivity(shuffled)
        assert a.slope_nm_per_c == pytest.approx(b.slope_nm_per_c, rel=1e-12)
        assert a.residual_rms_nm == pytest.approx(b.residual_rms_nm, rel=1e-12)

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateFitError):
            w.fit_sensitivity([(1.0, 0.01)])
        with pytest.raises(DegenerateFitError):
            w.fit_sensitivity([(1.0, 0.01), (1.0, 0.02), (1.0, 0.03)])

    def test_overflowing_fit_rejected(self):
        with pytest.raises(DegenerateFitError, match="not finite"):
            w.fit_sensitivity([(0.0, 1e308), (1.0, -1e308)])

    def test_failed_least_squares_rejected(self):
        # Subnormal dt: the sum of squares that np.polyfit scales by underflows
        # to 0, which the fit rejects as 0 or not finite before polyfit runs.
        with pytest.raises(DegenerateFitError, match="not finite"):
            w.fit_sensitivity([(0.0, 0.0), (1e-320, 1.0)])


class TestParamValidation:
    def test_side_lobe_amplitude_range(self):
        with pytest.raises(ValueError):
            w.SideLobe(offset_thz=-0.3, rel_amplitude=1.0, width_thz=0.1)

    def test_efficiency_range(self):
        with pytest.raises(ValueError):
            fbg(reflect_efficiency=0.0)
        with pytest.raises(ValueError):
            fbg(reflect_efficiency=1.2)

    def test_bandwidth_positive(self):
        with pytest.raises(ValueError):
            fbg(bandwidth_b_thz=0.0)

    def test_center_positive(self):
        with pytest.raises(ValueError, match="center_ref_thz must be > 0"):
            fbg(center_ref_thz=0.0)

    @pytest.mark.parametrize("fwhm_nm,center_nm", [(0.0, 1551.0), (2.0, -1551.0)])
    def test_fwhm_conversion_rejects_non_positive(self, fwhm_nm, center_nm):
        with pytest.raises(ValueError, match="must be > 0"):
            bandwidth_b_from_fwhm_nm(fwhm_nm, center_nm)
