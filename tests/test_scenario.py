import math
from dataclasses import replace

import numpy as np
import pytest

import wva_sense as w
from wva_sense.errors import ConfigError, NoSignalError, SingularPostSelectionError
from wva_sense.fbg import kappa_thz_per_c
from wva_sense.scenario import (
    SweepKernel,
    scenario_centers,
    scenario_field,
    sweep_temperature,
)

from conftest import FBG_B, KAPPA, NU_1549, NU_1551, bench_scenario

UNITS = w.UnitContext(reference_wavelength_nm=1551.0)


def dt_for_nu_minus(frac_of_b):
    """Temperature difference putting nu_minus at frac_of_b * FBG bandwidth."""
    return 2 * frac_of_b * FBG_B / abs(kappa_thz_per_c(KAPPA, UNITS))


class TestSimulateInterrogation:
    def test_beta_zero_shift_is_kappa_dt(self):
        dt = dt_for_nu_minus(0.01)
        sc = bench_scenario(beta_deg=0.0, t1_c=20.0 + dt)
        result = w.simulate_interrogation(sc)
        assert result.centroid_nm_shift == pytest.approx(KAPPA * dt, rel=0.01)
        assert result.a_effective == pytest.approx(1.0, rel=1e-9)

    def test_reference_angle_shift_is_zero(self):
        sc = bench_scenario(beta_deg=-90.0, t1_c=26.0)
        result = w.simulate_interrogation(sc)
        assert abs(result.centroid_nm_shift) < 1e-9

    def test_reference_consistency(self):
        # beta=0 minus beta=-90 reproduces nu1 - nu2 in nm.
        dt = dt_for_nu_minus(0.03)
        sc = bench_scenario(beta_deg=0.0, t1_c=20.0 + dt)
        result = w.simulate_interrogation(sc)
        c1, c2 = scenario_centers(sc)
        expected_nm = UNITS.frequency_shift_to_nm(c1 - c2)
        assert result.centroid_nm_shift == pytest.approx(expected_nm, rel=0.01)

    def test_reference_nm_value(self):
        sc = bench_scenario()
        result = w.simulate_interrogation(sc)
        assert result.reference_nm == pytest.approx(1551.0, abs=0.05)

    def test_dark_port_raises(self):
        # Complete extinction: the singular-post-selection guard fires (the
        # no-signal path would fire were the mean still defined).
        sc = bench_scenario(beta_deg=-45.0)
        with pytest.raises((NoSignalError, SingularPostSelectionError)):
            w.simulate_interrogation(sc)

    def test_efficiency_scale_invariance(self):
        dt = dt_for_nu_minus(0.02)
        sc = bench_scenario(beta_deg=-30.0, g_target=0.9, t1_c=20.0 + dt)
        boosted = replace(
            sc,
            fbg1=replace(sc.fbg1, reflect_efficiency=0.7),
            fbg2=replace(sc.fbg2, reflect_efficiency=0.7),
        )
        r1 = w.simulate_interrogation(sc)
        r2 = w.simulate_interrogation(boosted)
        assert r2.centroid_thz == pytest.approx(r1.centroid_thz, abs=1e-9)
        assert r2.centroid_nm_shift == pytest.approx(r1.centroid_nm_shift, abs=1e-6)


class TestSweepBeta:
    def test_entries_equal_single_interrogations(self):
        # The sweep builds its field once; entry i must still be the single
        # point pipeline on noise stream i+1, bit for bit.
        osa = w.OsaParams(rbw_nm=0.01, noise_floor=1e-5, rel_noise=0.01, seed=5)
        sc = bench_scenario(g_target=0.99, t1_c=31.0, osa=osa)
        betas = [math.radians(b) for b in (-60.0, -40.0, -25.0, 0.0)]
        ref = SweepKernel(sc).reference()
        sweep = w.sweep_beta(sc, betas)
        assert [b for b, _ in sweep] == betas
        for i, (beta, result) in enumerate(sweep):
            single = w.simulate_interrogation(replace(sc, beta_rad=beta), ref, stream=i + 1)
            assert np.array_equal(result.filtered.samples, single.filtered.samples)
            assert result.centroid_thz == single.centroid_thz
            assert result.a_effective == single.a_effective
            assert result.raw_power == single.raw_power


class TestPipelineLinearity:
    def test_linearity_and_slope_law(self):
        # Side lobes and noise off: shift vs dt is linear to < 1e-4 nm rms and
        # the slope matches (A+1) kappa / 2 within 1% while nu_minus <= 0.05 B.
        sc = bench_scenario(beta_deg=-20.0, g_target=0.9)
        dts = np.linspace(0.0, 12.0, 13)
        pts = [(dt, r.centroid_nm_shift) for dt, r in sweep_temperature(sc, dts)]
        fit = w.fit_sensitivity(pts)
        a = w.amplification_factor(math.radians(-20.0), 1.0, math.acos(0.9))
        assert fit.residual_rms_nm < 1e-4
        assert fit.slope_nm_per_c == pytest.approx((a + 1) / 2 * KAPPA, rel=0.01)

    def test_fourfold_enhancement_near_optimum(self):
        # g = 0.99 at the optimum angle quadruples the fitted slope.
        m = w.max_amplification(1.0, math.acos(0.99))
        sc = bench_scenario(beta_deg=math.degrees(m.beta_star), g_target=0.99)
        dts = np.linspace(0.0, 12.0, 13)
        pts = [(dt, r.centroid_nm_shift) for dt, r in sweep_temperature(sc, dts)]
        fit = w.fit_sensitivity(pts)
        enhancement = fit.slope_nm_per_c / KAPPA
        assert enhancement == pytest.approx((m.a_max + 1) / 2, rel=0.15)
        assert enhancement > 3.0


class TestSideLobeHandling:
    SIDE = w.SideLobe(offset_thz=-0.37, rel_amplitude=0.2, width_thz=FBG_B)

    def _slope(self, **kwargs):
        sc = bench_scenario(**kwargs)
        dts = np.linspace(0.0, 12.0, 13)
        pts = [(dt, r.centroid_nm_shift) for dt, r in sweep_temperature(sc, dts)]
        return w.fit_sensitivity(pts).slope_nm_per_c

    def test_filter_keeps_slope_with_side_lobe(self):
        kwargs = dict(beta_deg=-25.0, g_target=0.99, half_width_factor=1.0)
        clean = self._slope(**kwargs)
        lobed = self._slope(side_lobe1=self.SIDE, **kwargs)
        assert abs(lobed - clean) / clean < 0.05

    def test_unfiltered_slope_corrupted(self):
        kwargs = dict(beta_deg=-25.0, g_target=0.99, filter_enabled=False)
        clean = self._slope(**kwargs)
        lobed = self._slope(side_lobe1=self.SIDE, **kwargs)
        assert abs(lobed - clean) / clean > 0.05

    def test_beta_zero_immune_even_unfiltered(self):
        # At beta = 0 the satellite lobe rides along with the main lobe, so
        # the slope is untouched; the filter matters only under deep
        # post-selection where the main lobe is suppressed.
        clean = self._slope(beta_deg=0.0, filter_enabled=False)
        lobed = self._slope(beta_deg=0.0, filter_enabled=False, side_lobe1=self.SIDE)
        assert abs(lobed - clean) / clean < 0.005

    def test_filter_center_ignores_side_lobe(self):
        # Under strong suppression the side lobe outshines the main lobe;
        # the windowed search must still center the filter on the main lobe.
        sc = bench_scenario(beta_deg=-40.0, g_target=0.99, side_lobe1=self.SIDE,
                            t1_c=20.0 + 8.0)
        kernel = SweepKernel(sc)
        trace = kernel.measure(kernel.raw(sc.beta_rad), 1)
        global_argmax = kernel.nu[int(np.argmax(trace))]
        center = kernel.filter_center(trace)
        assert abs(global_argmax - (NU_1551 - 0.37)) < 0.1  # side lobe wins globally
        assert abs(center - NU_1551) < 0.1  # windowed center stays on the main lobe


class TestScenarioValidation:
    def test_fbg_wider_than_source_rejected(self):
        with pytest.raises(ConfigError, match="smaller"):
            bench_scenario(fwhm_nm=25.0)

    def test_raw_spectrum_beta_zero_is_half_reflection(self):
        sc = bench_scenario()
        raw = w.post_select(scenario_field(sc), 0.0)
        s1 = w.reflect(sc.fbg1, sc.source.b_thz, sc.source.nu0_thz, NU_1551,
                       raw.grid)
        assert np.allclose(raw.samples, s1.samples / 2, rtol=1e-12, atol=1e-300)

    def test_setup_params_mapping(self):
        sc = bench_scenario(beta_deg=-30.0, t1_c=31.0)
        c1, c2 = scenario_centers(sc)
        assert sc.source.nu0_thz == NU_1549
        assert c2 - sc.source.nu0_thz == pytest.approx(NU_1551 - NU_1549, rel=1e-12)
        assert c1 - c2 == pytest.approx(
            kappa_thz_per_c(KAPPA, UNITS) * 11.0, rel=1e-12
        )
        assert sc.beta_rad == pytest.approx(math.radians(-30.0))
