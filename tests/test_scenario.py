import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import wva_sense as w
from wva_sense.config import load_scenario
from wva_sense.errors import ConfigError, NoSignalError, SingularPostSelectionError
from wva_sense.scenario import (
    SweepKernel,
    _refine_peak,
    exact_centroid,
    exact_spectrum,
    scenario_centers,
    scenario_field,
    sweep_temperature,
)
from wva_sense.spectral import frequency_to_wavelength

from conftest import FBG_B, KAPPA, NU_1549, NU_1551, bench_scenario

UNITS = w.UnitContext(reference_wavelength_nm=1551.0)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def dt_for_nu_minus(frac_of_b):
    """Temperature difference putting nu_minus at frac_of_b * FBG bandwidth."""
    return 2 * frac_of_b * FBG_B / abs(UNITS.nm_shift_to_frequency(KAPPA))


def measure(sc):
    """The measurement at the scenario's beta on noise stream 1, referenced to
    its own beta = -90 deg centroid."""
    kernel = SweepKernel(sc)
    return kernel.point(sc.beta_rad, 1, kernel.reference())


class TestKernelPoint:
    """One measurement, SweepKernel.point at the scenario's beta."""

    def test_beta_zero_shift_is_kappa_dt(self):
        dt = dt_for_nu_minus(0.01)
        sc = bench_scenario(beta_deg=0.0, t1_c=20.0 + dt)
        result = measure(sc)
        assert result.centroid_nm_shift == pytest.approx(KAPPA * dt, rel=0.01)
        assert result.a_effective == pytest.approx(1.0, rel=1e-9)

    def test_reference_angle_shift_is_zero(self):
        sc = bench_scenario(beta_deg=-90.0, t1_c=26.0)
        result = measure(sc)
        assert abs(result.centroid_nm_shift) < 1e-9

    def test_reference_consistency(self):
        # beta=0 minus beta=-90 reproduces nu1 - nu2 in nm.
        dt = dt_for_nu_minus(0.03)
        sc = bench_scenario(beta_deg=0.0, t1_c=20.0 + dt)
        result = measure(sc)
        c1, c2 = scenario_centers(sc)
        expected_nm = UNITS.frequency_shift_to_nm(c1 - c2)
        assert result.centroid_nm_shift == pytest.approx(expected_nm, rel=0.01)

    def test_reference_nm_value(self):
        sc = bench_scenario()
        result = measure(sc)
        assert frequency_to_wavelength(result.reference_thz) == pytest.approx(1551.0, abs=0.05)

    def test_dark_port_raises(self):
        # Complete extinction: the singular-post-selection guard fires (the
        # no-signal path would fire were the mean still defined).
        sc = bench_scenario(beta_deg=-45.0)
        with pytest.raises((NoSignalError, SingularPostSelectionError)):
            measure(sc)

    def test_efficiency_scale_invariance(self):
        dt = dt_for_nu_minus(0.02)
        sc = bench_scenario(beta_deg=-30.0, g_target=0.9, t1_c=20.0 + dt)
        boosted = replace(
            sc,
            fbg1=replace(sc.fbg1, reflect_efficiency=0.7),
            fbg2=replace(sc.fbg2, reflect_efficiency=0.7),
        )
        r1 = measure(sc)
        r2 = measure(boosted)
        assert r2.centroid_thz == pytest.approx(r1.centroid_thz, abs=1e-9)
        assert r2.centroid_nm_shift == pytest.approx(r1.centroid_nm_shift, abs=1e-6)


# Records that hold arrays, built twice from the same scenario, and the
# array field each one compares sample by sample.
def measured_spectrum(sc):
    kernel = SweepKernel(sc)
    return w.Spectrum(kernel.grid, kernel.measure(kernel.raw(sc.beta_rad), 1))


RECORDS = {
    "spectrum": (measured_spectrum, "samples"),
    "field": (scenario_field, "ey"),
}


@pytest.mark.parametrize("kind", list(RECORDS))
def test_array_records_compare_to_one_bool(kind):
    build, name = RECORDS[kind]
    sc = load_scenario(CONFIGS / "bench.json").scenario
    a, b = build(sc), build(sc)
    assert a is not b
    assert (a == b) is True and (a != b) is False

    changed = getattr(a, name).copy()
    changed[changed.size // 2] *= 2
    assert (a == replace(a, **{name: changed})) is False
    assert (a != replace(a, **{name: changed})) is True

    other_kind = RECORDS["field" if kind != "field" else "spectrum"][0](sc)
    assert (a == other_kind) is False
    assert (a == None) is False  # noqa: E711
    assert (a != "record") is True


class TestKernelRows:
    """An angle sweep, SweepKernel.rows."""

    def test_entries_equal_single_interrogations(self):
        # The sweep builds its field once; entry i must still be the single
        # point pipeline on noise stream i+1, bit for bit.
        osa = w.OsaParams(rbw_nm=0.01, noise_floor=1e-5, rel_noise=0.01, seed=5)
        sc = bench_scenario(g_target=0.99, t1_c=31.0, osa=osa)
        betas = [math.radians(b) for b in (-60.0, -40.0, -25.0, 0.0)]
        kernel = SweepKernel(sc)
        ref = kernel.reference()
        sweep = list(kernel.rows(betas, ref))
        assert [b for b, _ in sweep] == betas
        for i, (beta, result) in enumerate(sweep):
            single = SweepKernel(replace(sc, beta_rad=beta))
            assert np.array_equal(kernel.filtered(kernel.measure(kernel.raw(beta), i + 1)),
                                  single.filtered(single.measure(single.raw(beta), i + 1)))
            want = single.point(beta, i + 1, ref)
            assert result.centroid_thz == want.centroid_thz
            assert result.a_effective == want.a_effective
            assert result.raw_power == want.raw_power


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


class TestExactGuards:
    def test_dark_port_has_no_centroid(self):
        # Equal gratings at beta = -45 deg with g = 1: the power cancels to
        # float dust, and a moment over it would read as a finite centroid.
        with pytest.raises(NoSignalError):
            exact_centroid(bench_scenario(g_target=1.0), math.radians(-45.0))

    @pytest.mark.parametrize("exact", [exact_spectrum, exact_centroid])
    def test_side_lobe_is_refused_by_name(self, exact):
        sc = load_scenario(CONFIGS / "bench_sidelobe.json").scenario
        with pytest.raises(ValueError, match="fbg1 has a side lobe"):
            exact(sc, sc.beta_rad)


@pytest.mark.parametrize("samples,i", [
    ([3.0, 2.0, 1.0], 0),  # an edge node has one neighbor
    ([1.0, 2.0, 3.0], 2),
    ([4.0, 1.0, 4.0], 1),  # convex log samples have no peak to refine
], ids=["first", "last", "non_concave"])
def test_refine_peak_falls_back_to_the_node(samples, i):
    nu = np.array([193.0, 193.1, 193.2])
    assert _refine_peak(nu, np.array(samples), i, 0.1) == nu[i]


class TestScenarioValidation:
    def test_fbg_wider_than_source_rejected(self):
        with pytest.raises(ConfigError, match="smaller"):
            bench_scenario(fwhm_nm=25.0)

    def test_source_center_positive(self):
        with pytest.raises(ValueError, match="nu0_thz must be > 0"):
            w.SourceParams(nu0_thz=0.0, b_thz=1.0)

    def test_raw_spectrum_beta_zero_is_half_reflection(self):
        sc = bench_scenario()
        kernel = SweepKernel(sc)
        raw = kernel.raw(0.0)
        s1 = w.reflect(sc.fbg1, sc.source.b_thz, sc.source.nu0_thz, NU_1551,
                       kernel.grid)
        assert np.allclose(raw, s1.samples / 2, rtol=1e-12, atol=1e-300)

    def test_scenario_centers_and_angle(self):
        sc = bench_scenario(beta_deg=-30.0, t1_c=31.0)
        c1, c2 = scenario_centers(sc)
        assert sc.source.nu0_thz == NU_1549
        assert c2 - sc.source.nu0_thz == pytest.approx(NU_1551 - NU_1549, rel=1e-12)
        assert c1 - c2 == pytest.approx(
            UNITS.nm_shift_to_frequency(KAPPA) * 11.0, rel=1e-12
        )
        assert sc.beta_rad == pytest.approx(math.radians(-30.0))


def test_exact_centroid_damping_underflows_at_huge_tau():
    """The cross term's damping exp(-pi^2 tau^2 W2) is already 0 at tau = 1e3
    ps; at 1e200, where (pi tau)^2 overflows a float, it is 0 too, not an
    OverflowError."""
    sc = load_scenario(CONFIGS / "bench.json").scenario
    beta = math.radians(-40.0)
    assert (exact_centroid(replace(sc, tau_ps=1e200), beta)
            == exact_centroid(replace(sc, tau_ps=1e3), beta))


@pytest.mark.parametrize("tau", [1e306, 1e308, -1e306, -1e308])
def test_closed_forms_at_an_overflowing_delay(tau):
    """Where 2 pi m tau overflows a float, exact_centroid returns its
    tau = 1e305 value, the lobes-only centroid, and exact_spectrum raises the
    ConfigError naming interferometer that scenario_field raises."""
    sc = load_scenario(CONFIGS / "bench.json").scenario
    beta = math.radians(-40.0)
    big = replace(sc, tau_ps=tau)
    assert exact_centroid(big, beta) == exact_centroid(replace(sc, tau_ps=1e305), beta)
    with pytest.raises(ConfigError, match="interferometer") as from_field:
        scenario_field(big)
    with pytest.raises(ConfigError, match="interferometer") as from_exact:
        exact_spectrum(big, beta)
    assert str(from_exact.value) == str(from_field.value)
