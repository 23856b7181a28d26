import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from wva_sense.cli import main, parse_calibration_csv, replay_manifest
from wva_sense.config import load_scenario
from wva_sense.errors import ConfigError
from wva_sense.fbg import fit_sensitivity
from wva_sense.osa import max_usable_amplification

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def base_doc(beta_deg=-40.0, osa=None, phi_rad=0.0, t1_list=None):
    doc = {
        "source": {"center_nm": 1549.0, "pulse_fwhm_ps": 0.32},
        "fbg1": {"center_nm": 1551.0, "kappa_nm_per_c": 0.009, "fwhm_nm": 2.0,
                 "efficiency": 0.14},
        "fbg2": {"center_nm": 1551.0, "kappa_nm_per_c": 0.009, "fwhm_nm": 2.0,
                 "efficiency": 0.14},
        "interferometer": {"tau_ps": 0.0, "phi_rad": phi_rad, "lcvr_rad": 0.0},
        "postselect": {"beta_deg": beta_deg},
        "temperatures": {"t2_ref_c": 20.0,
                         "t1_list_c": t1_list or [20 + k for k in range(13)]},
    }
    if osa is not None:
        doc["osa"] = osa
    return doc


def write_config(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def read_rows(path):
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    rows = [[float(v) for v in l.split(",")] for l in lines[1:]]
    return header, rows


def footer_value(path, key):
    for line in path.read_text().splitlines():
        if line.startswith(f"# {key}="):
            return float(line.split("=", 1)[1])
    raise AssertionError(f"footer key {key} not found in {path}")


class TestSweepTemp:
    def test_unamplified_slope(self, tmp_path):
        cfg = write_config(tmp_path, base_doc(beta_deg=0.0))
        assert main(["sweep-temp", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        out = tmp_path / "run" / "sweep_temp.csv"
        slope = footer_value(out, "fit_slope_nm_per_c")
        assert slope == pytest.approx(0.009, abs=1e-4)
        header, rows = read_rows(out)
        assert header == ["dt_c", "centroid_shift_nm"]
        assert len(rows) == 13

    def test_beta_and_dt_overrides(self, tmp_path):
        cfg = write_config(tmp_path, base_doc(beta_deg=0.0))
        assert main(["sweep-temp", "--config", cfg, "--dt", "0:6:2",
                     "--beta", "-90", "--out", str(tmp_path / "run")]) == 0
        _, rows = read_rows(tmp_path / "run" / "sweep_temp.csv")
        assert [r[0] for r in rows] == [0.0, 2.0, 4.0, 6.0]
        assert all(abs(r[1]) < 1e-9 for r in rows)  # self-referenced angle

    def test_single_temperature_rejected(self, tmp_path):
        cfg = write_config(tmp_path, base_doc(t1_list=[25.0]))
        assert main(["sweep-temp", "--config", cfg,
                     "--out", str(tmp_path / "run")]) == 3


class TestCalibrate:
    def test_matches_sweep_footer_exactly(self, tmp_path):
        cfg = write_config(tmp_path, base_doc(
            beta_deg=-40.0, phi_rad=math.acos(0.99),
            osa={"rbw_nm": 0.01, "noise_floor": 1e-5, "rel_noise": 0.0, "seed": 21},
        ))
        run = tmp_path / "run"
        assert main(["sweep-temp", "--config", cfg, "--out", str(run)]) == 0
        sweep_csv = run / "sweep_temp.csv"
        cal = tmp_path / "cal"
        assert main(["calibrate", "--input", str(sweep_csv), "--out", str(cal)]) == 0
        result = json.loads((cal / "calibration.json").read_text())
        assert result["slope_nm_per_c"] == pytest.approx(
            footer_value(sweep_csv, "fit_slope_nm_per_c"), abs=1e-9
        )
        assert result["residual_rms_nm"] == pytest.approx(
            footer_value(sweep_csv, "fit_residual_rms_nm"), abs=1e-9
        )

    def test_shuffled_rows_same_fit(self, tmp_path):
        rng = np.random.default_rng(4)
        pts = [(float(dt), 0.0351 * dt + rng.normal(0, 1e-3)) for dt in range(12)]
        a = tmp_path / "a.csv"
        a.write_text("dt_c,centroid_shift_nm\n" +
                     "\n".join(f"{d},{s}" for d, s in pts) + "\n")
        shuffled = list(pts)
        rng.shuffle(shuffled)
        b = tmp_path / "b.csv"
        b.write_text("dt_c,centroid_shift_nm\n" +
                     "\n".join(f"{d},{s}" for d, s in shuffled) + "\n")
        assert main(["calibrate", "--input", str(a), "--out", str(tmp_path / "ca")]) == 0
        assert main(["calibrate", "--input", str(b), "--out", str(tmp_path / "cb")]) == 0
        ra = json.loads((tmp_path / "ca" / "calibration.json").read_text())
        rb = json.loads((tmp_path / "cb" / "calibration.json").read_text())
        assert ra["slope_nm_per_c"] == pytest.approx(rb["slope_nm_per_c"], rel=1e-12)

    def test_synthetic_exact_line(self, tmp_path):
        path = tmp_path / "line.csv"
        path.write_text("dt_c,centroid_shift_nm\n" +
                        "\n".join(f"{d},{0.009 * d}" for d in range(10)) + "\n")
        cal = tmp_path / "cal"
        assert main(["calibrate", "--input", str(path), "--out", str(cal)]) == 0
        result = json.loads((cal / "calibration.json").read_text())
        assert result["slope_nm_per_c"] == pytest.approx(0.009, rel=1e-12)
        assert result["residual_rms_nm"] < 1e-15

    def test_malformed_row_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("dt_c,centroid_shift_nm\n1,0.01\n2,oops\n")
        assert main(["calibrate", "--input", str(path), "--out", str(tmp_path)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_degenerate_exit_code(self, tmp_path):
        path = tmp_path / "deg.csv"
        path.write_text("dt_c,centroid_shift_nm\n5,0.01\n5,0.02\n")
        assert main(["calibrate", "--input", str(path), "--out", str(tmp_path)]) == 3

    def test_parser_accepts_comment_footer(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("dt_c,centroid_shift_nm\n1,0.01\n2,0.02\n# fit_slope=x\n")
        assert parse_calibration_csv(path) == [(1.0, 0.01), (2.0, 0.02)]

    @pytest.mark.parametrize("text,named", [
        ("dt_c,centroid_shift_nm\n1,0.01\n2,nan\n3,0.03\n", "line 3"),
        ("dt_c,centroid_shift_nm\n1,0.01\n2,0.02\n3,-inf\n", "line 4"),
        ("# measured\n1,0.01\n2,0.02\n", "line 2: expected header"),
    ])
    def test_bad_rows_exit_2_without_output(self, tmp_path, capsys, text, named):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        out = tmp_path / "cal"
        assert main(["calibrate", "--input", str(path), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not (out / "calibration.json").exists()

    def test_missing_input_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "none.csv"
        assert main(["calibrate", "--input", str(missing), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert str(missing) in err
        assert "Traceback" not in err


class TestSweepBeta:
    def test_schema_and_endpoint(self, tmp_path):
        cfg = write_config(tmp_path, base_doc(t1_list=[31.0]))
        run = tmp_path / "run"
        assert main(["sweep-beta", "--config", cfg, "--beta-min", "-90",
                     "--beta-max", "0", "--step", "5", "--out", str(run)]) == 0
        header, rows = read_rows(run / "sweep_beta.csv")
        assert header == ["beta_deg", "centroid_shift_nm", "a_effective",
                          "total_power_rel", "snr_db"]
        at_zero = rows[-1]
        assert at_zero[0] == 0.0
        assert at_zero[1] == pytest.approx(0.009 * 11, rel=0.01)
        assert at_zero[2] == pytest.approx(1.0, abs=1e-6)
        assert at_zero[3] == pytest.approx(1.0, rel=1e-12)
        assert math.isinf(at_zero[4])  # no OSA section: noise-free

    def test_dark_port_point_skipped(self, tmp_path, capsys):
        # Matched gratings, delta = 0, dt = 0: -45 deg is a true dark port.
        cfg = write_config(tmp_path, base_doc(t1_list=[20.0]))
        run = tmp_path / "run"
        assert main(["sweep-beta", "--config", cfg, "--beta-min", "-50",
                     "--beta-max", "-40", "--step", "5", "--out", str(run)]) == 0
        _, rows = read_rows(run / "sweep_beta.csv")
        assert [r[0] for r in rows] == [-50.0, -40.0]
        assert "skipping" in capsys.readouterr().err

    def test_paper_scale_shift_extremes(self, tmp_path):
        cfg = write_config(tmp_path, base_doc(phi_rad=math.acos(0.9966),
                                              t1_list=[31.0]))
        run = tmp_path / "run"
        assert main(["sweep-beta", "--config", cfg, "--beta-min", "-90",
                     "--beta-max", "0", "--step", "0.5", "--out", str(run)]) == 0
        _, rows = read_rows(run / "sweep_beta.csv")
        arr = np.array(rows)
        imax, imin = np.argmax(arr[:, 1]), np.argmin(arr[:, 1])
        assert 0.45 <= arr[imax, 1] <= 0.75  # rises toward ~ +0.6 nm
        assert -0.65 <= arr[imin, 1] <= -0.35
        assert -50.0 <= arr[imax, 0] <= -40.0  # near -45 deg
        assert -50.0 <= arr[imin, 0] <= -40.0

    def test_dump_spectra(self, tmp_path):
        cfg = write_config(tmp_path, base_doc(t1_list=[31.0]))
        run = tmp_path / "run"
        assert main(["sweep-beta", "--config", cfg, "--beta-min", "-60",
                     "--beta-max", "0", "--step", "20",
                     "--dump-spectra=-40,0", "--out", str(run)]) == 0
        import wva_sense as w
        s = w.read_spectrum_csv(run / "spectrum_beta_-40.00.csv")
        assert s.grid.n_points == 4001
        assert (run / "spectrum_beta_+0.00.csv").exists()

    def test_snr_min_footer_and_detection_limit(self, tmp_path):
        osa = {"rbw_nm": 0.01, "noise_floor": 1e-4, "rel_noise": 0.0, "seed": 5}
        cfg = write_config(tmp_path, base_doc(phi_rad=math.acos(0.99),
                                              t1_list=[31.0], osa=osa))
        run = tmp_path / "run"
        assert main(["sweep-beta", "--config", cfg, "--beta-min", "-89",
                     "--beta-max", "0", "--step", "1", "--snr-min", "10",
                     "--out", str(run)]) == 0
        text = (run / "sweep_beta.csv").read_text()
        assert "# max_usable:" in text
        assert main(["sweep-beta", "--config", cfg, "--beta-min", "-89",
                     "--beta-max", "0", "--step", "1", "--snr-min", "90",
                     "--out", str(tmp_path / "run2")]) == 4

    def test_dt_override(self, tmp_path):
        cfg = write_config(tmp_path, base_doc(t1_list=[20.0]))
        run = tmp_path / "run"
        assert main(["sweep-beta", "--config", cfg, "--beta-min", "-1",
                     "--beta-max", "0", "--step", "1", "--dt", "11",
                     "--out", str(run)]) == 0
        _, rows = read_rows(run / "sweep_beta.csv")
        assert rows[-1][1] == pytest.approx(0.009 * 11, rel=0.01)

    def test_bad_step_usage_error(self, tmp_path):
        cfg = write_config(tmp_path, base_doc())
        assert main(["sweep-beta", "--config", cfg, "--beta-min", "-90",
                     "--beta-max", "0", "--step", "0",
                     "--out", str(tmp_path / "x")]) == 2


    def test_snr_footer_matches_max_usable_amplification(self, tmp_path):
        # One best-usable rule: the CLI footer and the library search pick the
        # same angle, A and SNR on the same grid and seed.
        osa = {"rbw_nm": 0.01, "noise_floor": 1e-4, "rel_noise": 0.0, "seed": 1234}
        cfg = write_config(tmp_path, base_doc(phi_rad=math.acos(0.99), osa=osa))
        run = tmp_path / "run"
        assert main(["sweep-beta", "--config", cfg, "--dt", "11", "--beta-min", "-90",
                     "--beta-max", "0", "--step", "1", "--snr-min", "20",
                     "--out", str(run)]) == 0
        footer = (run / "sweep_beta.csv").read_text().splitlines()[-1]
        assert footer.startswith("# max_usable: ")
        fields = dict(kv.split("=") for kv in footer.split()[2:])
        sc = replace(load_scenario(cfg).scenario, t1_c=31.0)
        best = max_usable_amplification(sc, 20.0, beta_min_deg=-90, beta_max_deg=0,
                                        step_deg=1)
        assert float(fields["beta_deg"]) == pytest.approx(math.degrees(best.beta_rad),
                                                          abs=1e-9)
        assert fields["a"] == f"{best.a:.12g}"
        assert fields["snr_db"] == f"{best.snr_db:.12g}"


class TestAmaxCurve:
    def test_peaks(self, tmp_path):
        run = tmp_path / "run"
        assert main(["amax-curve", "--g", "0.99,0.999,0.9999",
                     "--step", "0.01", "--out", str(run)]) == 0
        text = (run / "amax_curve.csv").read_text()
        peaks = {}
        for line in text.splitlines():
            if line.startswith("# peak"):
                g = float(line.split("g=")[1].split(":")[0])
                a = float(line.split("a=")[1].split()[0])
                beta = float(line.split("beta_deg=")[1])
                peaks[g] = (a, beta)
        assert peaks[0.99][0] == pytest.approx(7.09, abs=0.01)
        assert peaks[0.999][0] == pytest.approx(22.37, abs=0.05)
        assert peaks[0.9999][0] == pytest.approx(70.7, abs=0.2)
        for g, (a, beta) in peaks.items():
            assert beta == pytest.approx(-math.degrees(math.asin(g)) / 2, abs=0.05)

    def test_rejects_g_out_of_range(self, tmp_path):
        assert main(["amax-curve", "--g", "1.0", "--out", str(tmp_path)]) == 2


class TestTheoryLines:
    def test_exact_slopes(self, tmp_path):
        run = tmp_path / "run"
        assert main(["theory-lines", "--a", "1,25,50", "--dt", "0:12:1",
                     "--kappa", "0.009", "--out", str(run)]) == 0
        _, rows = read_rows(run / "theory_lines.csv")
        for a_val, factor in ((1.0, 1.0), (25.0, 13.0), (50.0, 25.5)):
            pts = [(r[0], r[2]) for r in rows if r[1] == a_val]
            fit = fit_sensitivity(pts)
            assert fit.slope_nm_per_c == pytest.approx(factor * 0.009, rel=1e-12)
            assert fit.residual_rms_nm < 1e-12


class TestDumpSpectrum:
    def test_stages(self, tmp_path):
        import wva_sense as w

        osa = {"rbw_nm": 0.05, "noise_floor": 1e-6, "rel_noise": 0.0, "seed": 9}
        cfg = write_config(tmp_path, base_doc(beta_deg=0.0, osa=osa))
        raw_dir, osa_dir = tmp_path / "raw", tmp_path / "osa"
        assert main(["dump-spectrum", "--config", cfg, "--stage", "raw",
                     "--dt", "11", "--out", str(raw_dir)]) == 0
        assert main(["dump-spectrum", "--config", cfg, "--stage", "osa",
                     "--dt", "11", "--out", str(osa_dir)]) == 0
        raw = w.read_spectrum_csv(raw_dir / "spectrum.csv")
        measured = w.read_spectrum_csv(osa_dir / "spectrum.csv")
        assert raw.grid.n_points == measured.grid.n_points
        assert not np.allclose(raw.samples, measured.samples)  # noise + RBW applied


class TestManifestReplay:
    def test_noisy_sweep_temp_replays_byte_identical(self, tmp_path):
        osa = {"rbw_nm": 0.01, "noise_floor": 1e-5, "rel_noise": 0.01, "seed": 77}
        cfg = write_config(tmp_path, base_doc(beta_deg=-40.0,
                                              phi_rad=math.acos(0.99), osa=osa))
        run = tmp_path / "run"
        assert main(["sweep-temp", "--config", cfg, "--out", str(run)]) == 0
        replay = tmp_path / "replay"
        replay_manifest(run / "manifest.json", replay)
        assert (run / "sweep_temp.csv").read_bytes() == (
            replay / "sweep_temp.csv"
        ).read_bytes()

    def test_seed_override_recorded_and_replayed(self, tmp_path):
        osa = {"rbw_nm": 0.0, "noise_floor": 1e-4, "rel_noise": 0.0, "seed": 1}
        cfg = write_config(tmp_path, base_doc(beta_deg=-30.0, t1_list=[25.0], osa=osa))
        run_a = tmp_path / "a"
        run_b = tmp_path / "b"
        assert main(["sweep-temp", "--config", cfg, "--dt", "0,5",
                     "--seed", "42", "--out", str(run_a)]) == 0
        assert main(["sweep-temp", "--config", cfg, "--dt", "0,5",
                     "--seed", "43", "--out", str(run_b)]) == 0
        assert (run_a / "sweep_temp.csv").read_text() != (
            run_b / "sweep_temp.csv"
        ).read_text()
        manifest = json.loads((run_a / "manifest.json").read_text())
        assert manifest["resolved"]["config"]["osa"]["seed"] == 42
        replay = tmp_path / "replay"
        replay_manifest(run_a / "manifest.json", replay)
        assert (run_a / "sweep_temp.csv").read_bytes() == (
            replay / "sweep_temp.csv"
        ).read_bytes()


class TestReplayManifestErrors:
    @pytest.mark.parametrize("content", [
        None,  # no file
        "{not json",
        "[1, 2]",
        json.dumps({"resolved": {}}),
        json.dumps({"command": "amax-curve"}),
        json.dumps({"command": ["amax-curve"], "resolved": {}}),
    ])
    def test_bad_manifest_names_path(self, tmp_path, content):
        path = tmp_path / "manifest.json"
        if content is not None:
            path.write_text(content)
        with pytest.raises(ConfigError, match=re.escape(str(path))):
            replay_manifest(path, tmp_path / "replay")
        assert not (tmp_path / "replay").exists()


class TestConfigErrors:
    def test_unknown_key_exit_2(self, tmp_path, capsys):
        doc = base_doc()
        doc["fbg1"]["kappa_typo"] = 1.0
        cfg = write_config(tmp_path, doc)
        assert main(["sweep-temp", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "kappa_typo" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert main(["sweep-temp", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path)]) == 2


def exit_code(argv):
    """main's return value, or the code argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


SWEEP = ["--beta-min", "-90", "--beta-max", "0", "--step", "5"]


class TestBadInputsExit2:
    @pytest.mark.parametrize("argv,named", [
        (["dump-spectrum", "--beta", "nan"], "--beta"),
        (["dump-spectrum", "--beta", "95"], "--beta"),
        (["dump-spectrum", "--dt", "inf"], "--dt"),
        (["sweep-temp", "--beta", "-inf"], "--beta"),
        (["sweep-temp", "--dt", "0:nan:1"], "--dt"),
        (["sweep-temp", "--dt", "0,nan"], "--dt"),
        (["sweep-beta", "--beta-min", "-91", "--beta-max", "0", "--step", "5"], "--beta-min"),
        (["sweep-beta", "--beta-min", "-90", "--beta-max", "nan", "--step", "5"], "--beta-max"),
        (["sweep-beta", "--beta-min", "-90", "--beta-max", "0", "--step", "inf"], "--step"),
        (["sweep-beta", "--beta-min", "-90", "--beta-max", "0", "--step", "1e-12"], "--step"),
        (["sweep-beta", *SWEEP, "--dt", "nan"], "--dt"),
        (["sweep-beta", *SWEEP, "--snr-min", "nan"], "--snr-min"),
        (["sweep-beta", *SWEEP, "--dump-spectra=-95"], "--dump-spectra"),
        (["sweep-beta", *SWEEP, "--dump-spectra=-40,nan"], "--dump-spectra"),
        (["amax-curve", "--g", "nan"], "--g"),
        (["amax-curve", "--g", "0.9", "--beta-max", "91"], "--beta-max"),
        (["amax-curve", "--g", "0.9", "--step", "1e-12"], "--step"),
        (["theory-lines", "--a", "1", "--kappa", "nan"], "--kappa"),
        (["theory-lines", "--a", "1,inf", "--kappa", "0.009"], "--a"),
        (["theory-lines", "--a", "1", "--dt", "0:1:1e-12", "--kappa", "0.009"], "--dt"),
        # t2_ref_c = 20, so dt = 3000 puts the sensing grating's Bragg center off the grid.
        (["sweep-temp", "--dt", "0,3000"], "3020 degC"),
        (["dump-spectrum", "--dt", "3000"], "3020 degC"),
        (["sweep-beta", *SWEEP, "--dt", "3000"], "3020 degC"),
        # Both angles round to spectrum_beta_-40.00.csv.
        (["sweep-beta", *SWEEP, "--dump-spectra=-40,-40.001"],
         "--dump-spectra: angles -40 and -40.001 both write spectrum_beta_-40.00.csv"),
        # A list flag needs at least one value.
        (["amax-curve", "--g", ","], "--g: expected at least one value"),
        (["theory-lines", "--a", " ", "--kappa", "0.009"], "--a: expected at least one value"),
        (["theory-lines", "--a", "1", "--dt", ",", "--kappa", "0.009"],
         "--dt: expected at least one value"),
        (["sweep-temp", "--dt", ","], "--dt: expected at least one value"),
        (["sweep-beta", *SWEEP, "--dump-spectra=,"], "--dump-spectra: expected at least one"),
        (["dump-spectrum", "--seed", "-1"], "argument --seed: expected a non-negative integer"),
    ])
    def test_flag_named(self, tmp_path, capsys, argv, named):
        if argv[0] in ("dump-spectrum", "sweep-temp", "sweep-beta"):
            argv = [*argv, "--config", write_config(tmp_path, base_doc())]
        assert exit_code([*argv, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("section,key,value,named", [
        ("grid", "span_thz", 1000.0, "grid: grid extends to non-positive frequency"),
        ("grid", "n_points", 10**13, "grid: n_points"),
        ("interferometer", "tau_ps", 10**400, "interferometer.tau_ps"),
        ("postselect", "beta_deg", 95.0, "postselect.beta_deg"),
        # Finite, but the power and noise models square them.
        ("source", "amplitude", 1e160, "source: amplitude squared overflows"),
        ("osa", "noise_floor", 1e200, "osa: noise_floor must be >= 0 with finite square"),
        # An RBW kernel wider than the 4001-point grid, or one that underflows.
        ("osa", "rbw_nm", 10.0, "osa.rbw_nm"),
        ("osa", "rbw_nm", 1e6, "osa.rbw_nm"),
        ("osa", "rbw_nm", 1e160, "osa.rbw_nm"),
        ("osa", "rbw_nm", 1e300, "osa.rbw_nm"),
        ("osa", "rbw_nm", 1e-300, "osa.rbw_nm"),
        # Wavelengths the model squares and inverts.
        ("source", "center_nm", 1549e160, "source.center_nm: wavelength must lie in"),
        ("source", "center_nm", 1549e300, "source.center_nm: wavelength must lie in"),
        ("source", "center_nm", 1549e-300, "source.center_nm: wavelength must lie in"),
        ("fbg1", "center_nm", 1551e160, "fbg1.center_nm: wavelength must lie in"),
        ("fbg1", "center_nm", 1551e300, "fbg1.center_nm: wavelength must lie in"),
        ("fbg1", "center_nm", 1551e-300, "fbg1.center_nm: wavelength must lie in"),
        ("fbg2", "center_nm", 1551e160, "fbg2.center_nm: wavelength must lie in"),
        ("fbg2", "center_nm", 1551e300, "fbg2.center_nm: wavelength must lie in"),
        ("fbg2", "center_nm", 1551e-300, "fbg2.center_nm: wavelength must lie in"),
        # The noise variance scales as amplitude**4.
        ("source", "amplitude", 1e80, "source: amplitude squared overflows a float or its square"),
        ("source", "amplitude", 1e154, "source: amplitude squared overflows a float or its square"),
        # Widths the model squares: B^2 underflows, or overflows for a short pulse.
        ("fbg1", "fwhm_nm", 2e-300, "fbg1: bandwidth_b_thz must have a finite nonzero square"),
        ("fbg2", "fwhm_nm", 2e-300, "fbg2: bandwidth_b_thz must have a finite nonzero square"),
        ("source", "pulse_fwhm_ps", 3.2e-301, "source: b_thz must have a finite nonzero square"),
        # (span / half-width)^order overflows in the super-Gaussian gain.
        ("filter", "half_width_factor", 1.5e-300, "filter: "),
    ])
    def test_config_value_named(self, tmp_path, capsys, section, key, value, named):
        doc = base_doc()
        doc.setdefault(section, {})[key] = value
        cfg = write_config(tmp_path, doc)
        assert exit_code(["dump-spectrum", "--config", cfg,
                          "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", [1551e160, 1551e300, 1551e-300])
    def test_reference_wavelength_named(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, {**base_doc(), "reference_wavelength_nm": value})
        assert exit_code(["dump-spectrum", "--config", cfg,
                          "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "reference_wavelength_nm: wavelength must lie in" in err
        assert "Traceback" not in err

    def test_raw_stage_validates_the_osa_section(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_doc(osa={"rbw_nm": 10.0}))
        assert exit_code(["dump-spectrum", "--config", cfg, "--stage", "raw",
                          "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "osa.rbw_nm" in err
        assert "Traceback" not in err

    def test_non_finite_temperature_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_doc(t1_list=[20.0, math.nan, 22.0]))
        assert exit_code(["sweep-temp", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "temperatures.t1_list_c[1]" in capsys.readouterr().err

    def test_seed_without_osa_section(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_doc())
        out = tmp_path / "out"
        assert exit_code(["sweep-temp", "--config", cfg, "--seed", "7",
                          "--out", str(out)]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()


class TestNumericalExit3:
    def test_non_finite_row_not_written(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert exit_code(["theory-lines", "--a", "1e308", "--dt", "0:2:1", "--kappa", "10",
                          "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "theory_lines.csv" in err and "shift_nm" in err
        assert "Traceback" not in err
        assert not (out / "manifest.json").exists()

    def test_failed_write_leaves_no_file(self, tmp_path):
        out = tmp_path / "out"
        assert exit_code(["theory-lines", "--a", "1e308", "--dt", "0:2:1", "--kappa", "10",
                          "--out", str(out)]) == 3
        assert not (out / "theory_lines.csv").exists()
        assert not (out / "manifest.json").exists()

    def test_no_power_at_beta_0(self, tmp_path, capsys):
        # A source at 1300 nm gives the 1551 nm gratings a zero source weight;
        # only the OSA noise floor reaches the detector.
        doc = json.loads((CONFIGS / "bench.json").read_text())
        doc["source"]["center_nm"] = 1300.0
        cfg = write_config(tmp_path, doc)
        assert exit_code(["sweep-beta", "--config", cfg, *SWEEP,
                          "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "beta = 0 reference power" in err
        assert "Traceback" not in err


def _numeric_leaves(node, path=()):
    """(path, value) for every number in a JSON document, booleans aside."""
    if isinstance(node, (dict, list)):
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _numeric_leaves(value, (*path, key))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path, node


def test_every_numeric_config_leaf_scaled(tmp_path, capsys):
    # Each number in configs/bench.json, alone, times 1e160, 1e300 and 1e-300
    # (the grid left at its defaults): the run exits 0 with a finite
    # spectrum, or 2 or 3 with a message, never with a traceback.
    bench = json.loads((CONFIGS / "bench.json").read_text())
    out = tmp_path / "out"
    failures = []
    for path, value in _numeric_leaves(bench):
        for factor in (1e160, 1e300, 1e-300):
            doc = json.loads(json.dumps(bench))
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value * factor
            cfg = write_config(tmp_path, doc)
            (out / "spectrum.csv").unlink(missing_ok=True)
            try:
                code = exit_code(["dump-spectrum", "--config", cfg, "--stage", "filtered",
                                  "--out", str(out)])
            except Exception as exc:  # reported below with the leaf that raised it
                code = f"{type(exc).__name__}: {exc}"
            err = capsys.readouterr().err
            where = ".".join(map(str, path)) + f" x{factor:g}"
            if code not in (0, 2, 3) or "Traceback" in err:
                failures.append(f"{where}: {code} {err.strip()}")
            elif code == 0:
                samples = np.loadtxt(out / "spectrum.csv", delimiter=",", skiprows=1)
                if not np.all(np.isfinite(samples)):
                    failures.append(f"{where}: non-finite spectrum")
    assert failures == []
