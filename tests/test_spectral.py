import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import wva_sense as w
from wva_sense.config import load_scenario
from wva_sense.errors import NoSignalError, SpectrumFormatError
from wva_sense.spectral import super_gaussian_filter, super_gaussian_gain

BENCH_JSON = Path(__file__).resolve().parent.parent / "configs" / "bench.json"


def bench_span_spectrum(n_points):
    """A random spectrum on configs/bench.json's grid span at n_points."""
    sc = load_scenario(BENCH_JSON).scenario
    grid = w.scenario_grid(replace(sc, grid=w.GridSettings(n_points=n_points)))
    return w.Spectrum(grid=grid, samples=np.random.default_rng(9).random(n_points))


def gaussian_spectrum(grid, center, b, amplitude=1.0):
    nu = grid.frequencies()
    return w.Spectrum(grid=grid, samples=amplitude * np.exp(-((nu - center) ** 2) / b**2))


class TestFrequencyGrid:
    def test_three_point_nodes(self):
        g = w.FrequencyGrid(193.29, 2.0, 3)
        assert np.allclose(g.frequencies(), [192.29, 193.29, 194.29])

    def test_spacing(self):
        g = w.FrequencyGrid(193.29, 2.0, 2001)
        assert g.spacing == pytest.approx(0.001, rel=1e-12)

    def test_rejects_non_positive_frequencies(self):
        with pytest.raises(ValueError, match="non-positive frequency"):
            w.FrequencyGrid(1.0, 4.0, 5)

    @pytest.mark.parametrize("center,span,n", [
        (193.0, 0.0, 11), (193.0, -1.0, 11), (193.0, math.inf, 11),
        (math.nan, 1.0, 11), (1.7e308, 1e308, 11),
    ])
    def test_rejects_bad_span(self, center, span, n):
        with pytest.raises(ValueError):
            w.FrequencyGrid(center, span, n)

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError):
            w.FrequencyGrid(193.0, 1.0, 1)


class TestInclusiveRange:
    def test_includes_stop_within_tolerance(self):
        values = w.spectral.inclusive_range(-1.0, 1.0, 0.1)
        assert len(values) == 21
        assert values[0] == -1.0
        assert values[-1] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("step", [1e-12, 5e-324])
    def test_rejects_oversized_range_before_building(self, step):
        with pytest.raises(ValueError, match="exceeds"):
            w.spectral.inclusive_range(-90.0, 0.0, step)

    @pytest.mark.parametrize(
        "start,stop,step",
        [(0.0, 1.0, 0.0), (0.0, 1.0, -1.0), (1.0, 0.0, 0.1), (math.nan, 1.0, 0.1),
         (0.0, math.inf, 0.1), (0.0, 1.0, math.nan)],
    )
    def test_rejects_invalid(self, start, stop, step):
        with pytest.raises(ValueError):
            w.spectral.inclusive_range(start, stop, step)


def test_check_sweep_counts_the_points_of_inclusive_range():
    """config.sweep returns the number of points inclusive_range builds,
    including ranges whose stop lies within the 1e-9-step tolerance."""
    rng = np.random.default_rng(23)
    cases = [(-90.0, 0.0, 0.01), (-1.0, 1.0, 0.1), (0.0, 0.199, 0.001), (-90.0, 0.0, 7.0)]
    cases += [(lo, lo + float(rng.uniform(1e-3, 90.0)), float(rng.choice([0.5, 0.05, 0.3])))
              for lo in rng.uniform(-90.0, 0.0, 200).tolist()]
    for lo, hi, step in cases:
        assert w.config.sweep(lo, hi, step, w.config.SWEEP_KEYS) == len(
            w.spectral.inclusive_range(lo, hi, step)), (lo, hi, step)


class TestSpectrumInvariants:
    def test_length_mismatch(self):
        g = w.FrequencyGrid(193.0, 1.0, 11)
        with pytest.raises(ValueError):
            w.Spectrum(grid=g, samples=np.zeros(10))

    def test_negative_samples_rejected(self):
        g = w.FrequencyGrid(193.0, 1.0, 11)
        samples = np.zeros(11)
        samples[3] = -1e-9
        with pytest.raises(ValueError):
            w.Spectrum(grid=g, samples=samples)

    def test_non_finite_rejected(self):
        g = w.FrequencyGrid(193.0, 1.0, 11)
        samples = np.zeros(11)
        samples[3] = np.nan
        with pytest.raises(ValueError):
            w.Spectrum(grid=g, samples=samples)


class TestCentroid:
    def test_symmetric_gaussian(self):
        g = w.FrequencyGrid(193.29, 4.0, 4001)
        s = gaussian_spectrum(g, 193.29, 0.1)
        assert w.centroid(s) == pytest.approx(193.29, abs=1e-9)

    def test_two_identical_lobes(self):
        g = w.FrequencyGrid(193.29, 4.0, 4001)
        nu = g.frequencies()
        samples = np.exp(-((nu - 193.19) ** 2) / 0.05**2) + np.exp(
            -((nu - 193.39) ** 2) / 0.05**2
        )
        assert w.centroid(w.Spectrum(grid=g, samples=samples)) == pytest.approx(
            193.29, abs=1e-9
        )

    def test_three_to_one_pair(self):
        # Closed-form first moment of an equal-width Gaussian mixture:
        # amplitudes 3:1 at center -+ d put the centroid at center - d/2.
        center, d = 193.29, 0.1
        g = w.FrequencyGrid(center, 4.0, 8001)
        nu = g.frequencies()
        samples = 3.0 * np.exp(-((nu - (center - d)) ** 2) / 0.05**2) + np.exp(
            -((nu - (center + d)) ** 2) / 0.05**2
        )
        assert w.centroid(w.Spectrum(grid=g, samples=samples)) == pytest.approx(
            center - d / 2, abs=1e-9
        )

    def test_zero_power_raises(self):
        g = w.FrequencyGrid(193.0, 1.0, 101)
        with pytest.raises(NoSignalError):
            w.centroid(w.Spectrum(grid=g, samples=np.zeros(101)))

    def test_scale_invariance_and_bounds(self):
        rng = np.random.default_rng(7)
        g = w.FrequencyGrid(193.0, 2.0, 501)
        for _ in range(20):
            samples = rng.random(501)
            s = w.Spectrum(grid=g, samples=samples)
            c = w.centroid(s)
            assert g.lo <= c <= g.hi
            scaled = w.Spectrum(grid=g, samples=samples * rng.uniform(1e-6, 1e6))
            assert w.centroid(scaled) == pytest.approx(c, rel=1e-12)

    def test_mirror_symmetric_spectrum(self):
        rng = np.random.default_rng(11)
        g = w.FrequencyGrid(193.0, 2.0, 501)
        half = rng.random(250)
        samples = np.concatenate([half, [rng.random()], half[::-1]])
        c = w.centroid(w.Spectrum(grid=g, samples=samples))
        assert abs(c - 193.0) < g.spacing

    def test_discretization_convergence(self):
        # Doubling n_points moves a smooth mixture centroid by < 1e-6 of the span.
        def c_at(n):
            g = w.FrequencyGrid(193.29, 4.0, n)
            nu = g.frequencies()
            samples = np.exp(-((nu - 193.2) ** 2) / 0.07**2) + 0.4 * np.exp(
                -((nu - 193.45) ** 2) / 0.11**2
            )
            return w.centroid(w.Spectrum(grid=g, samples=samples))

        assert abs(c_at(2001) - c_at(4001)) < 1e-6 * 4.0


class TestTotalPower:
    def test_zero(self):
        g = w.FrequencyGrid(193.0, 1.0, 101)
        assert w.total_power(w.Spectrum(grid=g, samples=np.zeros(101))) == 0.0

    def test_gaussian_integral(self):
        b = 0.1
        g = w.FrequencyGrid(193.0, 12 * b, 4001)
        s = gaussian_spectrum(g, 193.0, b)
        assert w.total_power(s) == pytest.approx(b * math.sqrt(math.pi), rel=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        g = w.FrequencyGrid(193.0, 1.0, 301)
        a = rng.random(301)
        b = rng.random(301)
        pa = w.total_power(w.Spectrum(grid=g, samples=a))
        pb = w.total_power(w.Spectrum(grid=g, samples=b))
        pab = w.total_power(w.Spectrum(grid=g, samples=a + b))
        assert pab == pytest.approx(pa + pb, rel=1e-12)
        assert w.total_power(w.Spectrum(grid=g, samples=2 * a)) == pytest.approx(
            2 * pa, rel=1e-12
        )


class TestSuperGaussianFilter:
    def test_gain_at_center_and_half_width(self):
        g = w.FrequencyGrid(193.0, 2.0, 2001)
        s = w.Spectrum(grid=g, samples=np.ones(2001))
        nu = g.frequencies()
        out = s.samples * super_gaussian_gain(nu, 193.0, 0.5, 4)
        i_center = int(np.argmin(np.abs(nu - 193.0)))
        i_hw = int(np.argmin(np.abs(nu - 193.5)))
        assert out[i_center] == pytest.approx(1.0, rel=1e-12)
        assert out[i_hw] == pytest.approx(math.exp(-1.0), rel=1e-9)

    # The pipeline's filter takes its order and half-width from FilterSettings.
    @pytest.mark.parametrize("order", [1, 3, 0, -2])
    def test_rejects_bad_order(self, order):
        with pytest.raises(ValueError):
            w.FilterSettings(order=order, half_width_thz=0.1)

    def test_rejects_bad_half_width(self):
        with pytest.raises(ValueError):
            w.FilterSettings(order=4, half_width_thz=0.0)

    def test_never_increases_samples(self):
        rng = np.random.default_rng(5)
        g = w.FrequencyGrid(193.0, 2.0, 401)
        s = w.Spectrum(grid=g, samples=rng.random(401))
        out = s.samples * super_gaussian_gain(g.frequencies(), 192.7, 0.3, 6)
        assert np.all(out <= s.samples + 1e-15)

    def test_wide_filter_is_identity(self):
        rng = np.random.default_rng(6)
        g = w.FrequencyGrid(193.0, 2.0, 401)
        s = w.Spectrum(grid=g, samples=rng.random(401))
        out = s.samples * super_gaussian_gain(g.frequencies(), 193.0, 1e9, 4)
        assert np.allclose(out, s.samples, rtol=0, atol=1e-12)

    def test_side_lobe_suppression(self):
        # Main lobe at the filter center plus a 0.2-amplitude satellite at
        # 3x the filter half-width: after order-4 filtering the centroid
        # sits within 0.01 half-widths of the main lobe center.
        center, hw = 193.29, 0.2
        g = w.FrequencyGrid(center, 4.0, 16001)
        nu = g.frequencies()
        main = np.exp(-((nu - center) ** 2) / 0.08**2)
        side = 0.2 * np.exp(-((nu - center - 3 * hw) ** 2) / 0.08**2)
        s = w.Spectrum(grid=g, samples=main + side)
        unfiltered_shift = abs(w.centroid(s) - center)
        filtered = w.Spectrum(grid=g, samples=s.samples * super_gaussian_gain(nu, center, hw, 4))
        filtered_shift = abs(w.centroid(filtered) - center)
        assert unfiltered_shift > 0.05 * hw  # lobe visibly biases the raw centroid
        assert filtered_shift < 0.01 * hw

    def test_filter_equals_samples_times_gain_bit_for_bit(self):
        """super_gaussian_filter(nu, samples, ...) is samples times the whole
        grid's gain in every bit, the sign of each zero included, over 240
        random traces: runs of zeros, -0.0 and negative samples, orders 2, 4
        and 6, half-widths from a node spacing to wider than the grid, and
        centers at both grid edges, on a node and between nodes."""
        rng = np.random.default_rng(22)
        for k in range(240):
            n = int(rng.integers(2, 5000))
            g = w.FrequencyGrid(193.0, float(rng.uniform(0.5, 5.0)), n)
            nu = g.frequencies()
            samples = rng.random(n) * 10.0 ** rng.uniform(-300.0, 3.0)
            samples[rng.random(n) < rng.uniform(0.0, 0.6)] = 0.0
            samples[rng.random(n) < 0.1] = -0.0
            samples[rng.random(n) < 0.02] *= -1.0
            center = (g.lo, g.hi, float(nu[rng.integers(n)]), rng.uniform(g.lo, g.hi))[k % 4]
            half_width = g.spacing * 10.0 ** rng.uniform(0.0, math.log10(2.0 * n))
            order = (2, 4, 6)[k % 3]
            got = super_gaussian_filter(nu, samples, center, half_width, order)
            want = samples * super_gaussian_gain(nu, center, half_width, order)
            assert np.array_equal(np.signbit(got), np.signbit(want)), k
            assert got.tobytes() == want.tobytes(), k


class TestUnitConversions:
    def test_1551_nm(self):
        assert w.wavelength_to_frequency(1551.0) == pytest.approx(193.290, abs=5e-4)

    def test_round_trip(self):
        for lam in (1200.0, 1549.0, 1551.0, 1650.0):
            back = w.frequency_to_wavelength(w.wavelength_to_frequency(lam))
            assert back == pytest.approx(lam, rel=1e-12)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            w.wavelength_to_frequency(0.0)
        with pytest.raises(ValueError):
            w.frequency_to_wavelength(-1.0)

    def test_shift_conversion(self):
        units = w.UnitContext(reference_wavelength_nm=1551.0)
        dnu = units.nm_shift_to_frequency(-2.0)
        assert dnu == pytest.approx(0.249246, abs=1e-6)
        # longer wavelength <-> lower frequency
        assert units.nm_shift_to_frequency(+2.0) < 0
        assert units.frequency_shift_to_nm(dnu) == pytest.approx(-2.0, rel=1e-12)

    def test_reference_wavelength_validated(self):
        with pytest.raises(ValueError):
            w.UnitContext(reference_wavelength_nm=0.0)


class TestSpectrumCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        g = w.FrequencyGrid(193.29, 2.0, 257)
        s = w.Spectrum(grid=g, samples=rng.random(257))
        path = tmp_path / "s.csv"
        w.write_spectrum_csv(s, path)
        back = w.read_spectrum_csv(path)
        assert back.grid.n_points == 257
        assert np.allclose(back.grid.frequencies(), g.frequencies(), rtol=1e-9)
        assert np.allclose(back.samples, s.samples, rtol=1e-9)

    @pytest.mark.parametrize("n_points", [4001, 4501, 10001, 200001])
    def test_round_trip_on_the_bench_span(self, tmp_path, n_points):
        # Written frequencies carry VALUE_FORMAT's 12 digits, so spacings on
        # this ~2.5 THz span jitter by up to ~1e-9 THz whatever the size.
        s = bench_span_spectrum(n_points)
        path = tmp_path / "s.csv"
        w.write_spectrum_csv(s, path)
        back = w.read_spectrum_csv(path)
        assert back.grid.n_points == n_points
        assert np.allclose(back.grid.frequencies(), s.grid.frequencies(), rtol=1e-11, atol=0)
        assert np.allclose(back.samples, s.samples, rtol=1e-11, atol=0)

    def test_writer_converts_a_fine_spectrum_in_chunks(self, tmp_path):
        # Two whole-array tolist() lists of 200001 floats would take about
        # 13 MB; converted 4096 rows at a time, the frequencies array (1.6 MB)
        # is the largest thing the writer holds.
        s = bench_span_spectrum(200001)
        tracemalloc.start()
        try:
            w.write_spectrum_csv(s, tmp_path / "s.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_three_units_in_the_last_digit_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        w.write_spectrum_csv(bench_span_spectrum(4001), path)
        lines = path.read_text().splitlines()
        k = 2000  # file line k + 1
        nu, power = lines[k].split(",")
        moved = float(nu) + 3 * 10.0 ** (math.floor(math.log10(float(nu))) - 11)
        lines[k] = f"{moved:.12g},{power}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SpectrumFormatError, match=f"line {k + 1}: non-uniform"):
            w.read_spectrum_csv(path)

    def test_negative_power_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("frequency_thz,power\n193.0,1.0\n193.1,-0.5\n193.2,1.0\n")
        with pytest.raises(SpectrumFormatError, match="line 3"):
            w.read_spectrum_csv(path)

    def test_non_uniform_spacing_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("frequency_thz,power\n193.0,1\n193.1,1\n193.25,1\n193.35,1\n")
        with pytest.raises(SpectrumFormatError, match="non-uniform"):
            w.read_spectrum_csv(path)

    def test_non_monotone_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("frequency_thz,power\n193.0,1\n192.9,1\n")
        with pytest.raises(SpectrumFormatError, match="ascending"):
            w.read_spectrum_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nu,p\n193.0,1\n193.1,1\n")
        with pytest.raises(SpectrumFormatError, match="header"):
            w.read_spectrum_csv(path)

    def test_non_numeric_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("frequency_thz,power\n193.0,1\n193.1,abc\n")
        with pytest.raises(SpectrumFormatError, match="line 3"):
            w.read_spectrum_csv(path)

    @pytest.mark.parametrize("row", ["193.1,nan", "193.1,inf", "nan,1", "inf,1"])
    def test_non_finite_names_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"frequency_thz,power\n193.0,1\n{row}\n193.2,1\n")
        with pytest.raises(SpectrumFormatError, match="line 3"):
            w.read_spectrum_csv(path)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        g = w.FrequencyGrid(193.29, 2.0, 5)
        s = w.Spectrum(grid=g, samples=np.arange(5.0))
        path = tmp_path / "s.csv"
        w.write_spectrum_csv(s, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(["# source: bench", "", lines[0], *lines[1:3], "",
                                    *lines[3:], "# end"]) + "\n")
        back = w.read_spectrum_csv(path)
        assert np.allclose(back.grid.frequencies(), g.frequencies(), rtol=1e-9)
        assert np.array_equal(back.samples, s.samples)

    def test_errors_name_the_file_line_past_skipped_lines(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# note\nfrequency_thz,power\n\n193.0,1\n193.1,1\n\n"
                        "193.2,1\n193.3,1\n193.5,1\n")
        with pytest.raises(SpectrumFormatError, match="line 9: non-uniform"):
            w.read_spectrum_csv(path)

    @pytest.mark.parametrize("text,named", [
        ("", "expected header"),
        ("# a comment\n\n193.0,1\n", "line 3: expected header"),
    ])
    def test_missing_header_rejected(self, tmp_path, text, named):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(SpectrumFormatError, match=named):
            w.read_spectrum_csv(path)

    @pytest.mark.parametrize("rows,named", [
        ("193.0,1\n", "fewer than 2 data rows"),
        ("-1,1\n0,1\n1,1\n", "grid extends to non-positive frequency"),
    ], ids=["one_row", "non_positive"])
    def test_rows_that_make_no_grid_rejected(self, tmp_path, rows, named):
        path = tmp_path / "bad.csv"
        path.write_text(f"frequency_thz,power\n{rows}")
        with pytest.raises(SpectrumFormatError, match=f"bad.csv: {named}"):
            w.read_spectrum_csv(path)

    def test_missing_file_is_format_error(self, tmp_path):
        with pytest.raises(SpectrumFormatError, match="none.csv"):
            w.read_spectrum_csv(tmp_path / "none.csv")
