import math

import numpy as np
import pytest

import wva_sense as w
from wva_sense.errors import (
    NoSignalError,
    SingularPostSelectionError,
    UnboundedAmplificationError,
)
from wva_sense.scenario import (
    SweepKernel,
    exact_centroid,
    exact_spectrum,
    scenario_centers,
    scenario_field,
    scenario_grid,
)
from wva_sense.spectral import trapezoid_power
from wva_sense.wva import projected_power

from conftest import grating_pair

LN2 = math.log(2.0)
NU0 = 193.29


def two_gratings(nu1=0.0, nu2=0.0, b=0.265, amplitude=1.0, span=3.0, n_points=801, **kw):
    """Gratings of width b at NU0 + nu1 and NU0 + nu2, lit by a source of width
    4b centered on NU0, on a grid centered on NU0."""
    return grating_pair(
        w.SourceParams(nu0_thz=NU0, b_thz=4 * b, amplitude=amplitude),
        (NU0 + nu1, NU0 + nu2), (b, b),
        grid=w.GridSettings(n_points=n_points, center_thz=NU0, span_thz=span), **kw,
    )


class TestPulseBandwidth:
    def test_320_fs_source(self):
        b = w.pulse_bandwidth(0.32)
        assert b == pytest.approx(math.sqrt(LN2) / (math.pi * 0.32), rel=1e-12)
        # power FWHM at 1549 nm lands on the quoted 11 nm source bandwidth
        fwhm_nm = 2 * b * math.sqrt(LN2) * 1549.0**2 / w.SPEED_OF_LIGHT_NM_THZ
        assert fwhm_nm == pytest.approx(11.0, abs=0.2)

    def test_one_ps(self):
        assert w.pulse_bandwidth(1.0) == pytest.approx(0.2650104, abs=1e-6)

    def test_inverse_scaling(self):
        assert w.pulse_bandwidth(2.0) == pytest.approx(w.pulse_bandwidth(1.0) / 2, rel=1e-12)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            w.pulse_bandwidth(0.0)


class TestJonesField:
    """The two-arm field of a scenario, through scenario_field."""

    def test_matched_arms_identical(self):
        f = scenario_field(two_gratings(nu1=0.02, nu2=0.02, tau_ps=0.0))
        assert np.allclose(f.ex, f.ey, rtol=0, atol=1e-15)

    def test_envelope_peaks(self):
        # spacing 1e-3 hits the peaks exactly
        sc = two_gratings(nu1=0.05, nu2=-0.03, span=2.0, n_points=2001)
        f = scenario_field(sc)
        g = scenario_grid(sc)
        nu = g.frequencies()
        assert nu[np.argmax(np.abs(f.ex))] == pytest.approx(193.34, abs=g.spacing / 2)
        assert nu[np.argmax(np.abs(f.ey))] == pytest.approx(193.26, abs=g.spacing / 2)

    def test_power_at_carrier(self):
        b = 0.265
        sc = two_gratings(b=b, nu1=b / 10, nu2=-b / 10, amplitude=1.5, span=2.0, n_points=2001)
        f = scenario_field(sc)
        i0 = int(np.argmin(np.abs(scenario_grid(sc).frequencies() - NU0)))
        total = abs(f.ex[i0]) ** 2 + abs(f.ey[i0]) ** 2
        weight = math.exp(-((b / 10) ** 2) / sc.source.b_thz**2)  # the source at each lobe
        assert total == pytest.approx(1.5**2 * weight * math.exp(-0.01), rel=1e-9)

    @pytest.mark.parametrize("ey,problem", [
        (np.ones(4), "length does not match grid"),
        (np.r_[1.0, np.nan, 1.0, 1.0, 1.0], "must be finite"),
    ], ids=["short", "nan"])
    def test_rejects_bad_arm(self, ey, problem):
        with pytest.raises(ValueError, match=problem):
            w.PolarizedFieldSpectrum(w.FrequencyGrid(NU0, 1.0, 5), np.ones(5), ey)


class TestPostSelect:
    def test_beta_zero_keeps_x(self):
        f = scenario_field(two_gratings(nu1=0.05, nu2=-0.05, tau_ps=0.03, phi_rad=0.4))
        s = projected_power(f, 0.0)
        assert np.allclose(s, np.abs(f.ex) ** 2, rtol=1e-12, atol=1e-300)

    def test_beta_minus_90_keeps_y(self):
        f = scenario_field(two_gratings(nu1=0.05, nu2=-0.05, tau_ps=0.03, phi_rad=0.4))
        s = projected_power(f, -math.pi / 2)
        assert np.allclose(s, np.abs(f.ey) ** 2, rtol=1e-12, atol=1e-300)

    def test_dark_port(self):
        f = scenario_field(two_gratings(nu1=0.02, nu2=0.02))
        s = projected_power(f, -math.pi / 4)
        assert np.max(s) < 1e-30


class TestOutputSpectrumAnalytic:
    """The closed-form post-selected spectrum, scenario.exact_spectrum."""

    def test_beta_zero_single_lobe(self):
        b = 0.265
        sc = two_gratings(b=b, nu1=0.05, nu2=-0.02, span=4.0, n_points=8001)
        samples = exact_spectrum(sc, 0.0)
        g = scenario_grid(sc)
        nu = g.frequencies()
        peak = np.max(samples)
        assert nu[np.argmax(samples)] == pytest.approx(193.34, abs=g.spacing)
        above = nu[samples >= peak / 2]
        assert above[-1] - above[0] == pytest.approx(2 * b * math.sqrt(LN2), abs=2 * g.spacing)

    def test_complete_destructive_interference(self):
        # The projected field cancels to below 1e-30; the closed form's three
        # terms cancel to float dust of the lobe peak, which c01's 1e-12 bounds.
        sc = two_gratings(nu1=0.02, nu2=0.02)
        assert np.max(SweepKernel(sc).raw(-math.pi / 4)) < 1e-30
        bright = np.max(exact_spectrum(sc, 0.0))
        assert np.max(exact_spectrum(sc, -math.pi / 4)) <= 1e-12 * bright

    def test_matches_projection_oracle_generic(self):
        b = 0.265
        sc = two_gratings(b=b, tau_ps=0.05, phi_rad=0.2, nu1=0.05 * b, nu2=-0.05 * b,
                          span=10 * b, n_points=4001)
        oracle = SweepKernel(sc).raw(-0.6)
        peak = np.max(oracle)
        assert np.max(np.abs(exact_spectrum(sc, -0.6) - oracle)) <= 1e-12 * peak


class TestOverlapGamma:
    def test_values(self):
        assert w.overlap_gamma(0.0, 0.3) == 1.0
        assert w.overlap_gamma(0.3, 0.3) == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert w.overlap_gamma(0.03, 0.3) == pytest.approx(0.99004983, abs=1e-8)

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            w.overlap_gamma(0.1, 0.0)


class TestAmplificationFactor:
    def test_identity_points(self):
        for gamma, delta in ((1.0, 0.0), (0.7, 0.3), (0.2, 2.0)):
            assert w.amplification_factor(0.0, gamma, delta) == pytest.approx(1.0)
            assert w.amplification_factor(-math.pi / 2, gamma, delta) == pytest.approx(-1.0)
            assert w.amplification_factor(math.pi / 2, gamma, delta) == pytest.approx(-1.0)

    def test_minus_40_deg(self):
        a = w.amplification_factor(math.radians(-40.0), 1.0, math.acos(0.99))
        assert a == pytest.approx(6.93474, abs=1e-4)

    def test_period_pi(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            beta = rng.uniform(-math.pi / 2, math.pi / 2)
            gamma = rng.uniform(0.1, 1.0)
            delta = rng.uniform(0, math.pi)
            assert w.amplification_factor(beta + math.pi, gamma, delta) == pytest.approx(
                w.amplification_factor(beta, gamma, delta), rel=1e-9
            )

    def test_singular_guard(self):
        with pytest.raises(SingularPostSelectionError):
            w.amplification_factor(-math.pi / 4, 1.0, 0.0)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            w.amplification_factor(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            w.amplification_factor(0.0, 1.5, 0.0)

    def test_fig1b_caption_angles(self):
        # beta = -42.8 deg and -44.02 deg with g = 0.9999 map near A = 25 and 50.
        a25 = w.amplification_factor(math.radians(-42.8), 0.9999, 0.0)
        a50 = w.amplification_factor(math.radians(-44.02), 0.9999, 0.0)
        assert a25 == pytest.approx(25.0, rel=0.15)
        assert a50 == pytest.approx(50.0, rel=0.15)


class TestMaxAmplification:
    def test_g_zero(self):
        m = w.max_amplification(1.0, math.pi / 2)
        assert m.a_max == pytest.approx(1.0)
        assert m.beta_star == pytest.approx(0.0)

    def test_g_099(self):
        m = w.max_amplification(1.0, math.acos(0.99))
        assert m.a_max == pytest.approx(7.088812, abs=1e-5)
        assert math.degrees(m.beta_star) == pytest.approx(-40.9452, abs=1e-3)
        a = w.amplification_factor(m.beta_star, 1.0, math.acos(0.99))
        assert abs(a - m.a_max) < 1e-9

    def test_gamma_one_small_delta(self):
        m = w.max_amplification(1.0, 0.2)
        assert m.a_max == pytest.approx(1.0 / math.sin(0.2), rel=1e-12)

    def test_mirror_branch(self):
        gamma, delta = 0.9999, 0.02
        m = w.max_amplification(gamma, delta)
        a_mirror = w.amplification_factor(m.beta_mirror, gamma, delta)
        assert a_mirror == pytest.approx(-m.a_max, rel=1e-9)

    @pytest.mark.parametrize("g", [0.0, 0.5, 0.9, 0.99, 0.999, 0.9999])
    def test_brute_force_sweep_oracle(self, g):
        gamma, delta = (1.0, math.acos(g)) if g > 0 else (1.0, math.pi / 2)
        m = w.max_amplification(gamma, delta)
        betas = np.linspace(-math.pi / 2, 0.0, 1_000_001)
        denom = 1.0 + g * np.sin(2 * betas)
        a = np.cos(2 * betas) / denom
        assert np.max(a) == pytest.approx(m.a_max, rel=1e-6)
        assert betas[np.argmax(a)] == pytest.approx(m.beta_star, abs=2e-6)

    def test_unbounded_guard(self):
        with pytest.raises(UnboundedAmplificationError):
            w.max_amplification(1.0, 0.0)

    @pytest.mark.parametrize("gamma", [0.0, 1.5])
    def test_rejects_gamma_outside_unit_interval(self, gamma):
        with pytest.raises(ValueError, match=r"gamma must lie in \(0, 1\]"):
            w.max_amplification(gamma, 0.5)


class TestAnalyticCentroid:
    """The closed-form centroid, scenario.exact_centroid."""

    def test_beta_zero(self):
        sc = two_gratings(nu1=0.01, nu2=-0.02)
        assert exact_centroid(sc, 0.0) == pytest.approx(193.29 + 0.01, rel=1e-12)

    def test_beta_minus_90(self):
        sc = two_gratings(nu1=0.01, nu2=-0.02)
        assert exact_centroid(sc, -math.pi / 2) == pytest.approx(193.29 - 0.02, rel=1e-12)

    def test_amplified_offset_matches_numeric(self):
        # gamma*cos(delta) = 0.99 at beta = -40 deg amplifies nu_minus ~6.93x;
        # the full-spectrum centroid must agree within 1%.
        b = 0.265
        nm = 0.01 * b
        gamma = w.overlap_gamma(nm, b)
        delta = math.acos(0.99 / gamma)
        beta = math.radians(-40.0)
        sc = two_gratings(b=b, phi_rad=delta, nu1=nm, nu2=-nm, span=12 * b, n_points=8001)
        a = w.amplification_factor(beta, gamma, delta)
        assert a == pytest.approx(6.93474, abs=1e-4)
        # Exact at tau = 0 with equal lobes, about the scenario's own centers.
        c1, c2 = scenario_centers(sc)
        nu_plus, nu_minus = (c1 + c2) / 2, (c1 - c2) / 2
        offset = exact_centroid(sc, beta) - nu_plus
        assert offset == pytest.approx(a * nu_minus, rel=1e-12)
        kernel = SweepKernel(sc)
        numeric = kernel.centroid(kernel.raw(beta))
        assert numeric - nu_plus == pytest.approx(offset, rel=0.01)

    def test_singular_propagates(self):
        with pytest.raises(NoSignalError):
            exact_centroid(two_gratings(), -math.pi / 4)


class TestEnergyBudget:
    def test_dark_port_power(self):
        sc = two_gratings(nu1=0.02, nu2=0.02, n_points=2001)
        spacing = scenario_grid(sc).spacing
        p_dark = trapezoid_power(exact_spectrum(sc, -math.pi / 4), spacing)
        p_bright = trapezoid_power(exact_spectrum(sc, 0.0), spacing)
        assert p_dark <= 1e-10 * p_bright

    def test_attenuation_grows_with_g(self):
        # Transmitted power at the optimum angle, relative to beta=0, falls
        # monotonically as g -> 1: near-orthogonal post-selection pays in signal.
        b = 0.265
        ratios = []
        for gval in (0.5, 0.9, 0.99, 0.999):
            delta = math.acos(gval)
            beta_star = w.max_amplification(1.0, delta).beta_star
            sc = two_gratings(b=b, phi_rad=delta, span=10 * b, n_points=2001)
            spacing = scenario_grid(sc).spacing
            ratios.append(trapezoid_power(exact_spectrum(sc, beta_star), spacing)
                          / trapezoid_power(exact_spectrum(sc, 0.0), spacing))
        assert all(r1 > r2 for r1, r2 in zip(ratios, ratios[1:]))
        assert ratios[0] == pytest.approx(1 - 0.5**2, rel=1e-6)


@pytest.mark.parametrize("n_points,n_random", [(4001, 1000), (200001, 20)])
def test_zero_delay_phase_equals_array_formula_bit_for_bit(n_points, n_random):
    """At tau = 0 two_arm_field's y arm is ey_amplitude * exp[i(2 pi nu tau +
    delta)] over the grid, byte for byte, for signed zeros, +-pi and random
    delta, with exact zeros in the amplitude. All 1000 random delta run on a
    4001-point grid and 20 on a 200001-point one, where each array exp costs
    about 5 ms."""
    g = w.FrequencyGrid(193.29, 2.5, n_points)
    nu = g.frequencies()
    rng = np.random.default_rng(n_points)
    ex = rng.uniform(0.0, 1.0, n_points)
    amplitude = np.exp(-(((nu - 193.3) / 0.2) ** 2))  # exact zeros far from the lobe
    deltas = [0.0, -0.0, math.pi, -math.pi, *rng.uniform(-2 * math.pi, 2 * math.pi, n_random)]
    for delta in deltas:
        got = w.two_arm_field(g, ex, amplitude, 0.0, delta).ey
        want = amplitude * np.exp(1j * (2.0 * math.pi * nu * 0.0 + delta))
        assert got.tobytes() == want.tobytes(), delta
