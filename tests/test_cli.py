import errno
import hashlib
import json
import math
import os
import re
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from wva_sense import cli
from wva_sense.cli import main, parse_calibration_csv, replay_manifest, run_theory_lines
from wva_sense.config import load_scenario, parse_scenario
from wva_sense.errors import ConfigError, WvaSenseError
from wva_sense.fbg import fit_sensitivity
from wva_sense.osa import max_usable_amplification
from wva_sense.scenario import scenario_grid

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

    @pytest.mark.parametrize("rows", [
        ("0,0", "1e200,1"),  # the sum of squares overflows; polyfit gave slope 0
        ("1e10,0", "10000000000.00001,1"),  # rank deficient; polyfit gave 2.5e-11
        ("0,0", "1e-300,1"),  # the sum of squares underflows; LAPACK printed to stdout
        ("0,0", "1e-320,1"),
    ], ids=["overflow", "rank", "underflow", "subnormal"])
    def test_unfittable_dt_exit_3_silently(self, tmp_path, capfd, rows):
        """dt values that np.polyfit cannot fit exit 3 with one error line, and
        nothing from polyfit or LAPACK on stdout or stderr, and no output."""
        path = tmp_path / "cal.csv"
        path.write_text("dt_c,centroid_shift_nm\n" + "\n".join(rows) + "\n")
        out = tmp_path / "cal"
        assert main(["calibrate", "--input", str(path), "--out", str(out)]) == 3
        captured = capfd.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: dt values cannot be fitted: [^\n]*\n", captured.err)
        assert not out.exists()

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

    def test_header_only_exit_2_without_directory(self, tmp_path, capsys):
        path = tmp_path / "header.csv"
        path.write_text("dt_c,centroid_shift_nm\n")
        out = tmp_path / "cal"
        assert main(["calibrate", "--input", str(path), "--out", str(out)]) == 2
        assert f"{path}: no data rows" in capsys.readouterr().err
        assert not out.exists()

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


@pytest.mark.parametrize("argv,named", [
    (["amax-curve", "--g", "1.0"], "argument --g: expected |g| < 1, got 1.0"),
    # Both angles round to spectrum_beta_-40.00.csv.
    (["sweep-beta", "--config", str(CONFIGS / "bench.json"), "--dump-spectra=-40,-40.001"],
     "argument --dump-spectra: angles -40 and -40.001 both write spectrum_beta_-40.00.csv"),
    # The config's postselect gives beta_deg alone, no sweep spec.
    (["sweep-beta", "--config", str(CONFIGS / "bench_sidelobe.json")],
     "sweep-beta needs --beta-min/--beta-max/--step or a config sweep spec"),
    # The sweep rule needs max > min: one angle is no sweep.
    (["sweep-beta", "--config", str(CONFIGS / "bench.json"), "--beta-min", "-40",
      "--beta-max", "-40", "--step", "1"], "--beta-max must exceed --beta-min"),
], ids=["g", "dump_spectra", "no_sweep", "one_angle"])
def test_input_rule_fails_before_the_run(tmp_path, capsys, argv, named):
    """|g| < 1 and distinct dump file names are input rules: main returns 2
    naming the flag, and no output directory is made."""
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


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

    def test_side_lobe_sweep_temp_replays_byte_identical(self, tmp_path):
        # The side lobe is the one part of the reflection the closed forms
        # cannot check.
        run, replay = tmp_path / "run", tmp_path / "replay"
        assert main(["sweep-temp", "--config", str(CONFIGS / "bench_sidelobe.json"),
                     "--out", str(run)]) == 0
        replay_manifest(run / "manifest.json", replay)
        assert (run / "sweep_temp.csv").read_bytes() == (replay / "sweep_temp.csv").read_bytes()

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

    def test_seed_other_than_config_seed_rejected(self, tmp_path):
        """Replay draws noise with resolved.config's osa.seed, so a manifest
        whose seed names another one is refused before anything is written."""
        osa = {"rbw_nm": 0.0, "noise_floor": 1e-4, "rel_noise": 0.0, "seed": 1}
        cfg = write_config(tmp_path, base_doc(beta_deg=-30.0, t1_list=[25.0], osa=osa))
        run = tmp_path / "run"
        assert main(["sweep-temp", "--config", cfg, "--dt", "0,5",
                     "--seed", "42", "--out", str(run)]) == 0
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({**json.loads((run / "manifest.json").read_text()),
                                    "seed": 7}))
        with pytest.raises(ConfigError, match=re.escape(f"{path}: seed: 7 differs from "
                                                        "resolved.config.osa.seed, 42")):
            replay_manifest(path, tmp_path / "replay")
        assert not (tmp_path / "replay").exists()


# One small run of every command, for manifests that replay_manifest accepts.
COMMAND_ARGS = {
    "sweep-beta": ["--beta-min", "-10", "--beta-max", "0", "--step", "5", "--dt", "1",
                   "--dump-spectra=-5", "--snr-min", "10"],
    "sweep-temp": ["--dt", "0,5"],
    "amax-curve": ["--g", "0.9", "--step", "10"],
    "theory-lines": ["--a", "1,2", "--dt", "0:2:1", "--kappa", "0.01"],
    "calibrate": [],
    "dump-spectrum": ["--stage", "raw"],
}


@pytest.fixture(scope="module")
def manifests(tmp_path_factory):
    root = tmp_path_factory.mktemp("manifests")
    cfg = write_config(root, base_doc(osa={"rbw_nm": 0.01, "noise_floor": 1e-6, "seed": 3}))
    data = root / "cal.csv"
    data.write_text("dt_c,centroid_shift_nm\n0,0\n1,0.01\n2,0.02\n")
    docs = {}
    for command, args in COMMAND_ARGS.items():
        if command == "calibrate":
            args = ["--input", str(data)]
        elif command not in ("amax-curve", "theory-lines"):
            args = ["--config", cfg, *args]
        assert main([command, *args, "--out", str(root / command)]) == 0
        docs[command] = json.loads((root / command / "manifest.json").read_text())
    return docs


class TestReplayResolvedValidation:
    def _replay(self, tmp_path, manifest):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        return path, lambda: replay_manifest(path, tmp_path / "replay")

    def test_empty_resolved_names_missing_key(self, tmp_path):
        path, replay = self._replay(tmp_path, {"command": "amax-curve", "resolved": {}})
        with pytest.raises(ConfigError, match=re.escape(f"{path}: resolved.g_list: missing")):
            replay()

    def test_string_g_list_names_key(self, tmp_path, manifests):
        manifest = manifests["amax-curve"]
        manifest = {**manifest, "resolved": {**manifest["resolved"], "g_list": "0.9"}}
        path, replay = self._replay(tmp_path, manifest)
        with pytest.raises(ConfigError, match=re.escape(f"{path}: resolved.g_list: expected")):
            replay()

    @pytest.mark.parametrize("command,key,value", [
        ("amax-curve", "beta_min_deg", -1000.0),
        ("sweep-beta", "beta_max_deg", 91),
        ("sweep-beta", "dump_spectra_deg", [-40.0, -95.0]),
        ("sweep-temp", "dt_list_c", [0.0, 10 ** 400]),
        ("theory-lines", "kappa_nm_per_c", 10 ** 400),
    ])
    def test_value_the_cli_rejects_names_key(self, tmp_path, manifests, command, key, value):
        """Replay applies the CLI's own angle and finite-number rules."""
        manifest = manifests[command]
        manifest = {**manifest, "resolved": {**manifest["resolved"], key: value}}
        path, replay = self._replay(tmp_path, manifest)
        with pytest.raises(ConfigError, match=re.escape(f"{path}: resolved.{key}: expected")):
            replay()

    @pytest.mark.parametrize("command,key,value,expected", [
        ("amax-curve", "g_list", [1.0], "expected |g| < 1, got 1.0"),
        ("sweep-beta", "dump_spectra_deg", [-40.0, -40.001],
         "angles -40 and -40.001 both write spectrum_beta_-40.00.csv"),
    ], ids=["g_list", "dump_spectra_deg"])
    def test_g_and_dump_rules_name_key(self, tmp_path, manifests, command, key, value,
                                       expected):
        manifest = manifests[command]
        manifest = {**manifest, "resolved": {**manifest["resolved"], key: value}}
        path, replay = self._replay(tmp_path, manifest)
        with pytest.raises(ConfigError, match=re.escape(f"{path}: resolved.{key}: {expected}")):
            replay()
        assert not (tmp_path / "replay").exists()

    @pytest.mark.parametrize("command", list(COMMAND_ARGS))
    def test_recorded_manifest_replays(self, tmp_path, manifests, command):
        _, replay = self._replay(tmp_path, manifests[command])
        replay()
        replayed = json.loads((tmp_path / "replay" / "manifest.json").read_text())
        assert replayed["outputs"] == manifests[command]["outputs"]

    @pytest.mark.parametrize("command", list(COMMAND_ARGS))
    def test_each_missing_or_mistyped_key_names_it(self, tmp_path, manifests, command):
        manifest = manifests[command]
        for key in manifest["resolved"]:
            missing = {k: v for k, v in manifest["resolved"].items() if k != key}
            for resolved in (missing, {**missing, key: True}):
                path, replay = self._replay(tmp_path, {**manifest, "resolved": resolved})
                with pytest.raises(ConfigError, match=re.escape(f"{path}: resolved.{key}: ")):
                    replay()
        assert not (tmp_path / "replay").exists()


    @pytest.mark.parametrize("command", list(COMMAND_ARGS))
    def test_unknown_key_rejected(self, tmp_path, manifests, command):
        """A key the command does not read, such as a misspelt one, is not
        carried into the new manifest."""
        manifest = manifests[command]
        resolved = {**manifest["resolved"], "kapa_nm_per_c": 0.01}
        path, replay = self._replay(tmp_path, {**manifest, "resolved": resolved})
        expected = f"{path}: resolved.kapa_nm_per_c: unknown key, {command} does not read it"
        with pytest.raises(ConfigError, match=re.escape(expected)):
            replay()
        assert not (tmp_path / "replay").exists()

    @pytest.mark.parametrize("seed", ["x", -1, 1.5, True, [3]])
    def test_bad_seed_rejected(self, tmp_path, manifests, seed):
        path, replay = self._replay(tmp_path, {**manifests["amax-curve"], "seed": seed})
        with pytest.raises(ConfigError,
                           match=re.escape(f"{path}: seed: expected a non-negative integer")):
            replay()
        assert not (tmp_path / "replay").exists()

    @pytest.mark.parametrize("command", ["amax-curve", "theory-lines", "calibrate"])
    def test_seed_rejected_where_no_noise_is_drawn(self, tmp_path, manifests, command):
        """A command that reads no config draws no noise, so its manifest's
        seed must be null."""
        path, replay = self._replay(tmp_path, {**manifests[command], "seed": 5})
        expected = f"{path}: seed: expected null, {command} draws no noise, got 5"
        with pytest.raises(ConfigError, match=re.escape(expected)):
            replay()
        assert not (tmp_path / "replay").exists()


@pytest.mark.parametrize("command", list(COMMAND_ARGS))
def test_manifest_outputs_are_the_files_written(tmp_path, command):
    """The manifest of a run, and of its replay, lists exactly the other
    files in its output directory, each with its SHA-256."""
    args = COMMAND_ARGS[command]
    if command == "calibrate":
        data = tmp_path / "cal.csv"
        data.write_text("dt_c,centroid_shift_nm\n0,0\n1,0.01\n2,0.02\n")
        args = ["--input", str(data)]
    elif command not in ("amax-curve", "theory-lines"):
        doc = base_doc(osa={"rbw_nm": 0.01, "noise_floor": 1e-6, "seed": 3})
        args = ["--config", write_config(tmp_path, doc), *args]
    assert main([command, *args, "--out", str(tmp_path / "run")]) == 0
    replay_manifest(tmp_path / "run" / "manifest.json", tmp_path / "replay")
    for out in (tmp_path / "run", tmp_path / "replay"):
        files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in out.iterdir() if p.name != "manifest.json"}
        assert json.loads((out / "manifest.json").read_text())["outputs"] == files


class TestSweepRangeSource:
    """A sweep that breaks the sweep rule names the flag, config key or
    manifest key it came from, and no output directory is made."""

    def test_config_step_names_config_key(self, tmp_path, capsys):
        doc = base_doc()
        doc["postselect"] = {"beta_min_deg": -90.0, "beta_max_deg": 0.0, "step_deg": 1e-6}
        out = tmp_path / "out"
        assert exit_code(["sweep-beta", "--config", write_config(tmp_path, doc),
                          "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "postselect.step_deg: range exceeds 1000000 points" in err
        assert "--step" not in err
        assert not out.exists()

    def test_flag_and_config_bounds_named_by_source(self, tmp_path, capsys):
        doc = base_doc()
        doc["postselect"] = {"beta_min_deg": -90.0, "beta_max_deg": 0.0, "step_deg": 1.0}
        out = tmp_path / "out"
        assert exit_code(["sweep-beta", "--config", write_config(tmp_path, doc),
                          "--beta-min", "10", "--out", str(out)]) == 2
        assert "postselect.beta_max_deg must exceed --beta-min" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key,value,named", [
        ("step_deg", 0, "resolved.step_deg: must be > 0"),
        ("step_deg", 1e-9, "resolved.step_deg: range exceeds 1000000 points"),
        ("beta_max_deg", -90, "resolved.beta_max_deg must exceed resolved.beta_min_deg"),
    ], ids=["step_0", "step_1e-9", "max_at_min"])
    def test_replayed_sweep_names_manifest_key(self, tmp_path, manifests, key, value, named):
        manifest = manifests["amax-curve"]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({**manifest, "resolved": {**manifest["resolved"], key: value}}))
        with pytest.raises(ConfigError, match=re.escape(f"{path}: {named}")):
            replay_manifest(path, tmp_path / "replay")
        assert not (tmp_path / "replay").exists()


@pytest.mark.parametrize("value,expected", [
    (91, "an angle in [-90, 90] deg"),
    (10**400, "a finite number"),
    (True, "a finite number"),
    (math.nan, "a finite number"),
], ids=["91", "10**400", "true", "nan"])
@pytest.mark.parametrize("entry", ["flag", "config", "manifest"])
def test_entry_points_share_one_rule(tmp_path, capsys, manifests, entry, value, expected):
    """--beta, postselect.beta_deg and a replayed resolved.beta_deg reject a
    value with the same rule, naming the field, before any output exists."""
    out = tmp_path / "out"
    if entry == "manifest":
        manifest = manifests["dump-spectrum"]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({**manifest,
                                    "resolved": {**manifest["resolved"], "beta_deg": value}}))
        with pytest.raises(ConfigError) as excinfo:
            replay_manifest(path, out)
        err, named = str(excinfo.value), f"{path}: resolved.beta_deg: "
    else:
        doc, argv = base_doc(), ["dump-spectrum", "--out", str(out)]
        if entry == "config":
            doc["postselect"]["beta_deg"] = value
            named = "postselect.beta_deg: "
        else:
            argv += ["--beta", json.dumps(value).lower()]  # 91, 1000...0, true, nan
            named = "argument --beta: "
        assert exit_code([*argv, "--config", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
    assert f"{named}expected {expected}, got " in err
    assert "Traceback" not in err
    assert not out.exists()


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


@pytest.mark.parametrize("command", ["amax-curve", "theory-lines", "calibrate"])
def test_seed_only_where_there_is_noise(tmp_path, capsys, command):
    """Commands that draw no OSA noise take no --seed."""
    csv = tmp_path / "cal.csv"
    csv.write_text("dt_c,centroid_shift_nm\n0,0\n1,0.01\n")
    argv = {"amax-curve": ["--g", "0.9", "--step", "10"],
            "theory-lines": ["--a", "1", "--kappa", "0.009"],
            "calibrate": ["--input", str(csv)]}[command]
    out = tmp_path / "out"
    assert exit_code([command, *argv, "--seed", "5", "--out", str(out)]) == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sweep-beta", "--dt", "11", "--dump-spectra=-40"],
    ["sweep-temp", "--beta", "-40"],
    ["dump-spectrum", "--stage", "osa"],
], ids=["sweep_beta", "sweep_temp", "dump_spectrum"])
def test_no_osa_section_is_the_default_osa(tmp_path, argv):
    """A config without an osa section and one with an empty osa object
    write the same CSV bytes."""
    doc = json.loads((CONFIGS / "bench.json").read_text())
    written = []
    for name in ("absent", "empty"):
        doc.pop("osa", None)
        if name == "empty":
            doc["osa"] = {}
        cfg = write_config(tmp_path, doc, f"{name}.json")
        assert main([*argv, "--config", cfg, "--out", str(tmp_path / name)]) == 0
        written.append({p.name: p.read_bytes() for p in (tmp_path / name).glob("*.csv")})
    assert written[0] == written[1]
    assert len(written[0]) == (2 if argv[0] == "sweep-beta" else 1)


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
        (["theory-lines", "--a", "1", "--dt", "0:1", "--kappa", "0.009"],
         "argument --dt: range spec needs start:stop:step"),
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
        # A half-width below half the grid spacing: no node is sure to pass the filter.
        ("filter", "half_width_factor", 1.5e-300, "filter: "),
        ("source", "pulse_fwhm_ps", -1, "source.pulse_fwhm_ps: must be > 0"),
        ("source", "pulse_fwhm_ps", 0, "source.pulse_fwhm_ps: must be > 0"),
        ("fbg1", "fwhm_nm", 0, "fbg1.fwhm_nm: must be > 0"),
        ("fbg1", "side_lobe", [1], "fbg1.side_lobe: expected an object"),
        ("filter", "enabled", 1, "filter.enabled: expected true/false"),
        ("postselect", "beta_min_deg", -90.0,
         "postselect: sweep spec needs beta_min_deg, beta_max_deg and step_deg"),
        ("filter", "half_width_factor", 0, "filter: half_width_factor must be > 0"),
        ("grid", "span_factor", 0, "grid: span_factor must be > 0"),
        ("grid", "span_thz", 0, "grid: span_thz must be > 0"),
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

    @pytest.mark.parametrize("section,value,named", [
        ("source", [], "source: expected an object"),
        ("postselect", {}, "postselect: give beta_deg or a sweep spec"),
        ("fbg1", {"center_nm": 1551.0, "fwhm_nm": 2.0, "efficiency": 0.14},
         "fbg1.kappa_nm_per_c: required numeric field missing"),
    ], ids=["source_list", "postselect_empty", "fbg1_no_kappa"])
    def test_config_section_named(self, tmp_path, capsys, section, value, named):
        cfg = write_config(tmp_path, {**base_doc(), section: value})
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
    # Each number in configs/bench.json and configs/bench_sidelobe.json,
    # alone, times 1e160, 1e300 and 1e-300 (the grid left at its defaults):
    # the run exits 0 with a finite spectrum, or 2 or 3 with a message, never
    # with a traceback or a numpy warning.
    out = tmp_path / "out"
    failures = []
    for name in ("bench.json", "bench_sidelobe.json"):
        bench = json.loads((CONFIGS / name).read_text())
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
                where = f"{name}: " + ".".join(map(str, path)) + f" x{factor:g}"
                if code not in (0, 2, 3) or "Traceback" in err:
                    failures.append(f"{where}: {code} {err.strip()}")
                elif code == 0:
                    samples = np.loadtxt(out / "spectrum.csv", delimiter=",", skiprows=1)
                    if not np.all(np.isfinite(samples)):
                        failures.append(f"{where}: non-finite spectrum")
    assert failures == []


def test_every_numeric_config_leaf_scaled_through_the_sweeps_and_the_search(tmp_path, capsys):
    # The leaves of test_every_numeric_config_leaf_scaled, scaled the same way,
    # through sweep-beta with an SNR floor, sweep-temp and, where the document
    # parses, max_usable_amplification: each run exits 0, 2, 3 or 4, or the
    # search raises a WvaSenseError, never with a traceback or a numpy warning.
    out = tmp_path / "out"
    sweep_beta = ["sweep-beta", "--step", "45", "--snr-min", "5"]
    sweep_temp = ["sweep-temp", "--dt", "0,1"]
    runs = {
        "bench.json": [sweep_beta, sweep_temp],
        "bench_sidelobe.json": [[*sweep_beta, "--beta-min", "-90", "--beta-max", "0"], sweep_temp],
    }
    failures = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for name, argvs in runs.items():
            bench = json.loads((CONFIGS / name).read_text())
            for path, value in _numeric_leaves(bench):
                for factor in (1e160, 1e300, 1e-300):
                    doc = json.loads(json.dumps(bench))
                    node = doc
                    for key in path[:-1]:
                        node = node[key]
                    node[path[-1]] = value * factor
                    cfg = write_config(tmp_path, doc)
                    where = f"{name}: " + ".".join(map(str, path)) + f" x{factor:g}"
                    for argv in argvs:
                        try:
                            code = exit_code([*argv, "--config", cfg, "--out", str(out)])
                        except Exception as exc:  # reported below with the leaf that raised it
                            code = f"{type(exc).__name__}: {exc}"
                        err = capsys.readouterr().err
                        if code not in (0, 2, 3, 4) or "Traceback" in err:
                            failures.append(f"{where}: {argv[0]}: {code} {err.strip()}")
                    try:
                        max_usable_amplification(parse_scenario(doc).scenario, 5.0, step_deg=1.0)
                    except WvaSenseError:
                        pass
                    except Exception as exc:  # reported below with the leaf that raised it
                        failures.append(f"{where}: max_usable: {type(exc).__name__}: {exc}")
    assert failures == []


@pytest.mark.parametrize("edit", [
    {"side_lobe": {"offset_thz": -0.37e160, "rel_amplitude": 0.2}},
    {"side_lobe": {"offset_thz": -0.37, "rel_amplitude": 0.2, "width_thz": 1e-154}},
], ids=["offset_x1e160", "width_1e-154"])
def test_side_lobe_beyond_float_range_is_exactly_zero(tmp_path, edit):
    # Every node is about 1e154 lobe widths or more from the side lobe, so its
    # Gaussian exponent overflows to -inf and exp gives exactly 0: the spectrum
    # is the one without a side lobe, byte for byte, and numpy does not warn.
    doc = json.loads((CONFIGS / "bench_sidelobe.json").read_text())
    spectra = []
    for fbg1 in ({**doc["fbg1"], **edit}, {k: v for k, v in doc["fbg1"].items()
                                           if k != "side_lobe"}):
        out = tmp_path / str(len(spectra))
        cfg = write_config(tmp_path, {**doc, "fbg1": fbg1})
        assert main(["dump-spectrum", "--config", cfg, "--out", str(out)]) == 0
        spectra.append((out / "spectrum.csv").read_bytes())
    assert spectra[0] == spectra[1]


def test_grating_narrower_than_float_range_runs(tmp_path):
    # fwhm_nm 1e-152 on a 100 THz grid: the main-lobe exponent overflows at
    # nodes far from the Bragg center and exp gives 0 there, without a warning.
    doc = json.loads((CONFIGS / "bench_sidelobe.json").read_text())
    doc["fbg1"]["fwhm_nm"] = 1e-152
    doc["grid"] = {"span_thz": 100.0}
    out = tmp_path / "out"
    assert main(["dump-spectrum", "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == 0
    samples = np.loadtxt(out / "spectrum.csv", delimiter=",", skiprows=1)
    assert np.all(np.isfinite(samples))


def _bench_with(section, key, value):
    doc = json.loads((CONFIGS / "bench.json").read_text())
    doc.setdefault(section, {})[key] = value
    return doc


_OFF_GRID = (r"error: fbg1 Bragg center at {} degC \([0-9.]+ THz\) lies outside the grid "
             r"\[[0-9.]+, [0-9.]+\] THz\n")


@pytest.mark.parametrize("argv,doc,t_c", [
    # t2_ref_c = 20: of dt = 0, 1 and 5000 only the last is off the grid.
    (["sweep-temp", "--dt", "0,1,5000"], None, "5020"),
    (["dump-spectrum", "--dt", "5000"], None, "5020"),
    # A grid centered 3 THz below the gratings holds neither: fbg1 is named.
    (["sweep-temp"], _bench_with("grid", "center_thz", 190.0), "20"),
], ids=["sweep_temp", "dump_spectrum", "both_off_grid"])
def test_bragg_center_off_grid_message(tmp_path, capsys, argv, doc, t_c):
    """A Bragg center off the grid exits 2 naming the grating, its temperature,
    its center and the grid, and makes no output directory."""
    cfg = CONFIGS / "bench.json" if doc is None else write_config(tmp_path, doc)
    out = tmp_path / "run"
    assert main([argv[0], "--config", str(cfg), *argv[1:], "--out", str(out)]) == 2
    assert re.fullmatch(_OFF_GRID.format(t_c), capsys.readouterr().err)
    assert not out.exists()


def _fbg2_off_grid():
    # fbg2 at 1560 nm, 2 THz of grid centered on fbg1's 1551 nm at t2 = 20 degC.
    doc = _bench_with("fbg2", "center_nm", 1560.0)
    doc["grid"] = {"center_thz": 299792.458 / 1551, "span_thz": 2.0}
    return doc


@pytest.mark.parametrize("command", ["sweep-temp", "sweep-beta", "dump-spectrum"])
def test_reference_grating_off_grid_message(tmp_path, capsys, command):
    """With only the reference grating off the grid, each config command exits
    2 naming fbg2 at t2, its center and the grid, and makes no output
    directory."""
    out = tmp_path / "run"
    assert main([command, "--config", write_config(tmp_path, _fbg2_off_grid()),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: fbg2 Bragg center at 20 degC (192.174653 THz) lies outside the grid "
        "[192.289786, 194.289786] THz\n")
    assert not out.exists()


def _huge_grid():
    # fbg1 at t1 = -9e162 degC lies near 1e160 THz, on a grid around it; its
    # source weight's (c - nu0) ** 2 overflows, and fbg2 at t2 is off the grid.
    doc = _bench_with("grid", "center_thz", 1e160)
    doc["grid"]["span_thz"] = 1e159
    doc["temperatures"] = {"t2_ref_c": 20.0, "t1_list_c": [-9e162, -8.9e162]}
    return doc


@pytest.mark.parametrize("argv", [["sweep-temp"], ["sweep-beta", "--step", "45"],
                                  ["dump-spectrum"]], ids=["sweep_temp", "sweep_beta", "dump"])
def test_bragg_center_on_a_huge_grid_exits_2(tmp_path, capsys, argv):
    """A Bragg center near 1e160 THz on a grid around it exits 2 naming the
    grating off the grid, not 1 with a traceback, and makes no output
    directory."""
    out = tmp_path / "run"
    assert main([argv[0], "--config", write_config(tmp_path, _huge_grid()), *argv[1:],
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: fbg2 Bragg center at 20 degC (193.289786 THz) lies outside the grid "
        "[9.5e+159, 1.05e+160] THz\n")
    assert not out.exists()


@pytest.mark.parametrize("argv,doc,code", [
    # t2_ref_c = 20, so dt = 3000 puts the sensing grating's Bragg center off the grid.
    (["sweep-temp", "--dt", "0,3000"], None, 2),
    (["dump-spectrum", "--dt", "3000"], None, 2),
    # Config values the kernel rejects when the run builds it.
    (["dump-spectrum"], _bench_with("osa", "rbw_nm", 1e4), 2),
    (["dump-spectrum"], _bench_with("filter", "half_width_factor", 1e-80), 2),
    (["dump-spectrum"], _bench_with("grid", "span_thz", 1000.0), 2),
    (["sweep-temp", "--dt", "5"], None, 3),
    (["theory-lines", "--a", "1e308", "--kappa", "1e308", "--dt", "0,10"], None, 3),
    (["sweep-beta", "--snr-min", "500"], None, 4),
], ids=["sweep_temp_off_grid", "dump_off_grid", "rbw", "half_width", "span", "one_dt",
        "inf_shift", "snr_min"])
def test_failed_run_leaves_no_directory_it_made(tmp_path, argv, doc, code):
    """A run that fails after its inputs passed removes the output directory
    it made, and leaves one that already existed; no `.wva-sense-*` stage
    survives either run."""
    if argv[0] != "theory-lines":
        cfg = write_config(tmp_path, doc) if doc else str(CONFIGS / "bench.json")
        argv = [*argv, "--config", cfg]
    out = tmp_path / "out"
    assert exit_code([*argv, "--out", str(out)]) == code
    assert not out.exists()
    assert not list(tmp_path.rglob(".wva-sense-*"))
    out.mkdir()
    assert exit_code([*argv, "--out", str(out)]) == code
    assert out.is_dir() and not any(out.iterdir())
    assert not list(tmp_path.rglob(".wva-sense-*"))


def test_sweep_temp_unfittable_dt_exit_3_silently(tmp_path, capfd):
    """sweep-temp fits its rows with calibrate's rule: dt values whose sum of
    squares underflows exit 3 before LAPACK prints to stdout, with no output."""
    out = tmp_path / "out"
    argv = ["sweep-temp", "--config", str(CONFIGS / "bench.json"), "--dt", "0,1e-300"]
    assert main([*argv, "--out", str(out)]) == 3
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: dt values cannot be fitted: their sum of squares, "
                            "0.0, is 0 or not finite\n")
    assert not out.exists()


def test_failed_run_removes_the_parents_it_made(tmp_path, monkeypatch):
    """A failed run into a nested --out removes each directory it made for it,
    and keeps a parent that existed before the run."""
    monkeypatch.chdir(tmp_path)
    argv = ["theory-lines", "--a", "1e308", "--kappa", "1e308", "--dt", "0,10",
            "--out", "n1/n2/n3"]
    assert exit_code(argv) == 3
    assert not any(tmp_path.iterdir())
    (tmp_path / "n1").mkdir()
    assert exit_code(argv) == 3
    assert [p.name for p in tmp_path.iterdir()] == ["n1"]
    assert not any((tmp_path / "n1").iterdir())


@pytest.mark.parametrize("named", [True, False], ids=["file", "no_file"])
def test_write_error_after_the_stage_exits_2(tmp_path, capsys, monkeypatch, named):
    """An OSError while a runner writes into its stage exits 2 naming the file
    where it would sit in --out (or --out itself when the error names no
    file), and removes the stage and the --out directory the run made."""
    def no_space(path, *args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), *([str(path)] if named else []))

    monkeypatch.setattr(cli, "write_rows", no_space)
    out = tmp_path / "out"
    assert main(["theory-lines", "--a", "1", "--kappa", "1", "--out", str(out)]) == 2
    where = out / "theory_lines.csv" if named else out
    assert capsys.readouterr().err == f"error: {where}: cannot write: No space left on device\n"
    assert not out.exists()
    assert not list(tmp_path.rglob(".wva-sense-*"))


@pytest.mark.parametrize("entry", ["main", "replay"])
@pytest.mark.parametrize("under,reason", [(False, "File exists"), (True, "Not a directory")],
                         ids=["file", "under_file"])
def test_out_at_a_file_exits_2(tmp_path, capsys, manifests, entry, under, reason):
    """An output directory that names a file, or a path under one, is a usage
    error naming the directory; the file is left as it was."""
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = afile / "sub" if under else afile
    expected = f"{out}: cannot make the output directory: {reason}"
    if entry == "main":
        assert exit_code(["amax-curve", "--g", "0.9", "--step", "10", "--out", str(out)]) == 2
        assert f"error: {expected}" in capsys.readouterr().err
    else:
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifests["amax-curve"]))
        with pytest.raises(ConfigError, match=re.escape(expected)):
            replay_manifest(path, out)
    assert afile.read_text() == "kept\n"


@pytest.mark.parametrize("entry", ["main", "replay"])
@pytest.mark.parametrize("argv,blocked", [
    (["sweep-temp", "--config", str(CONFIGS / "bench.json")], "sweep_temp.csv"),
    (["amax-curve", "--g", "0.9", "--step", "10"], "manifest.json"),
    # sweep_beta.csv is written before the dump that fails.
    (["sweep-beta", "--config", str(CONFIGS / "bench.json"), "--dump-spectra=-40"],
     "spectrum_beta_-40.00.csv"),
], ids=["sweep_temp_csv", "amax_manifest", "sweep_beta_dump"])
def test_unwritable_output_file_exits_2(tmp_path, capsys, entry, argv, blocked):
    """An output file that cannot be written, here because a directory has its
    name, is a usage error naming the file: the run removes the files it
    wrote, writes no manifest and leaves the directory that was there."""
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    expected = f"{out / blocked}: cannot write: Is a directory"
    if entry == "main":
        assert exit_code([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.endswith(f"error: {expected}\n")
    else:
        assert main([*argv, "--out", str(tmp_path / "orig")]) == 0
        with pytest.raises(ConfigError, match=re.escape(expected)):
            replay_manifest(tmp_path / "orig" / "manifest.json", out)
    assert [p.name for p in out.iterdir()] == [blocked]
    assert not any((out / blocked).iterdir())


@pytest.mark.parametrize("order", [300, 1000])
def test_steep_filter_orders_run(tmp_path, order):
    """The gain is computed only where it is not 0, so no order overflows:
    orders 300 and 1000 on bench.json fit a finite slope within 1% of order
    200's."""
    slopes = {}
    for o in (200, order):
        cfg = write_config(tmp_path, _bench_with("filter", "order", o), f"order{o}.json")
        out = tmp_path / f"order{o}"
        assert main(["sweep-temp", "--config", cfg, "--beta", "-40", "--out", str(out)]) == 0
        slopes[o] = footer_value(out / "sweep_temp.csv", "fit_slope_nm_per_c")
    assert math.isfinite(slopes[order])
    assert slopes[order] == pytest.approx(slopes[200], rel=0.01)


def test_order_two_to_the_64_runs(tmp_path):
    """An order numpy takes as a float runs too (a RuntimeWarning fails the
    test)."""
    cfg = write_config(tmp_path, _bench_with("filter", "order", 2**64))
    out = tmp_path / "out"
    assert main(["sweep-temp", "--config", cfg, "--beta", "-40", "--out", str(out)]) == 0
    assert math.isfinite(footer_value(out / "sweep_temp.csv", "fit_slope_nm_per_c"))


@pytest.mark.parametrize("enabled", [True, False])
def test_half_width_below_half_the_spacing_exits_2(tmp_path, capsys, enabled):
    """A half-width of half the grid spacing runs; one an ulp narrower exits 2
    naming filter, also with the filter disabled, and makes no directory."""
    spacing = scenario_grid(load_scenario(CONFIGS / "bench.json").scenario).spacing
    for half_width, code in ((spacing / 2, 0), (math.nextafter(spacing / 2, 0.0), 2)):
        doc = _bench_with("filter", "half_width_thz", half_width)
        doc["filter"]["enabled"] = enabled
        out = tmp_path / f"out{code}"
        assert main(["dump-spectrum", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == code
        assert out.exists() == (code == 0)
    assert capsys.readouterr().err == (f"error: filter: a half-width of {half_width!r} THz is "
                                       f"below half the {spacing:.9g} THz grid spacing\n")


# Noise with the signal term alone, the floor alone and both.
_NOISE = {"rel": (0.0, 0.1), "floor": (1e-6, 0.0), "both": (1e-6, 0.005)}


@pytest.mark.parametrize("floor,rel_noise", _NOISE.values(), ids=list(_NOISE))
def test_sweep_beta_does_not_depend_on_the_power_unit(tmp_path, floor, rel_noise):
    """Powers scale as amplitude^2, and the noise sigma with them: amplitude
    times 2^-266 and the floor times 2^-532 leave every column within 1e-9
    relative (snr_db within 1e-9 dB), and --snr-min 20 exits with the same
    code and footer. The traces scale exactly; the filter center's
    log-parabolic refinement takes logs that move by 532 ln 2 and round
    there, so a centroid shift, a difference of two centroids, keeps 1e-9 of
    the column's largest shift."""
    tables, snr_min = [], []
    for scale in (1.0, 2.0**-266):
        doc = _bench_with("source", "amplitude", scale)
        doc["osa"].update(noise_floor=floor * scale**2, rel_noise=rel_noise)
        cfg = write_config(tmp_path, doc, f"{scale}.json")
        argv = ["sweep-beta", "--config", cfg, "--step", "2"]
        out = tmp_path / f"{scale}"
        assert main([*argv, "--out", str(out)]) == 0
        tables.append(read_rows(out / "sweep_beta.csv"))
        out = tmp_path / f"{scale}_snr_min"
        code = main([*argv, "--snr-min", "20", "--out", str(out)])
        footer = [line for line in (out / "sweep_beta.csv").read_text().splitlines()
                  if line.startswith("#")] if code == 0 else []
        snr_min.append((code, footer))
    (header, rows), (scaled_header, scaled_rows) = tables
    assert header == scaled_header
    for name, column, scaled in zip(header, np.array(rows).T, np.array(scaled_rows).T):
        if name == "snr_db":
            assert np.all(np.abs(scaled - column) <= 1e-9), name
        elif name == "centroid_shift_nm":
            assert np.all(np.abs(scaled - column) <= 1e-9 * np.max(np.abs(column))), name
        else:
            assert np.allclose(scaled, column, rtol=1e-9, atol=0.0), name
    assert snr_min[0] == snr_min[1]


@pytest.mark.parametrize("argv,message", [
    (["amax-curve", "--g", "0:0.199:0.001", "--step", "0.01"],
     "--g and --step: 200 x 9001 = 1800200 rows"),
    (["theory-lines", "--a", "0:999:1", "--dt", "0:1000:1", "--kappa", "1"],
     "--a and --dt: 1000 x 1001 = 1001000 rows"),
], ids=["amax_curve", "theory_lines"])
def test_table_over_the_row_cap_exits_2(tmp_path, capsys, argv, message):
    """A table of more than MAX_RANGE_POINTS rows is rejected before a row is
    built or the output directory made, naming both inputs."""
    out = tmp_path / "out"
    start = time.perf_counter()
    assert exit_code([*argv, "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == f"error: {message} exceed the limit of 1000000\n"
    assert not out.exists()


def test_replayed_table_over_the_row_cap_names_resolved_keys(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"command": "amax-curve", "seed": None, "resolved": {
        "g_list": [0.5] * 200, "beta_min_deg": -90.0, "beta_max_deg": 0.0, "step_deg": 0.01}}))
    with pytest.raises(ConfigError, match=re.escape(
            "resolved.g_list and resolved.step_deg: 200 x 9001 = 1800200 rows exceed")):
        replay_manifest(path, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_failed_rerun_keeps_the_earlier_run(tmp_path):
    """A run that fails into the directory of an earlier one leaves each of
    its files as it was, so its manifest still replays."""
    out = tmp_path / "d"
    assert main(["theory-lines", "--a", "1", "--kappa", "1", "--out", str(out)]) == 0
    earlier = {p.name: p.read_bytes() for p in out.iterdir()}
    assert exit_code(["theory-lines", "--a", "1e308", "--kappa", "1e308", "--dt", "0,10",
                      "--out", str(out)]) == 3
    assert {p.name: p.read_bytes() for p in out.iterdir()} == earlier
    replay_manifest(out / "manifest.json", tmp_path / "replay")
    assert (tmp_path / "replay" / "theory_lines.csv").read_bytes() == earlier["theory_lines.csv"]


def _files(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}


@pytest.mark.parametrize("entry", ["main", "replay"])
def test_rerun_failing_after_its_first_csv_keeps_the_earlier_run(tmp_path, capsys, entry):
    """A re-run whose sweep_beta.csv is finished before its dump fails (a
    directory has the dump's name) exits 2, and every file of the earlier
    run stays as it was, so its manifest still replays to the same bytes."""
    bench = ["sweep-beta", "--config", str(CONFIGS / "bench.json")]
    out = tmp_path / "d"
    assert main([*bench, "--dump-spectra=-40", "--out", str(out)]) == 0
    (out / "spectrum_beta_-30.00.csv").mkdir()
    earlier = _files(out)
    rerun = [*bench, "--seed", "7", "--dump-spectra=-30"]
    expected = f"{out / 'spectrum_beta_-30.00.csv'}: cannot write: Is a directory"
    if entry == "main":
        assert exit_code([*rerun, "--out", str(out)]) == 2
        assert capsys.readouterr().err.endswith(f"error: {expected}\n")
    else:
        assert main([*rerun, "--out", str(tmp_path / "seed7")]) == 0
        with pytest.raises(ConfigError, match=re.escape(expected)):
            replay_manifest(tmp_path / "seed7" / "manifest.json", out)
    assert _files(out) == earlier
    assert sorted(p.name for p in out.iterdir()) == sorted([*earlier, "spectrum_beta_-30.00.csv"])
    replay_manifest(out / "manifest.json", tmp_path / "replay")
    for name, sha in json.loads(earlier["manifest.json"])["outputs"].items():
        assert hashlib.sha256(earlier[name]).hexdigest() == sha
        assert (tmp_path / "replay" / name).read_bytes() == earlier[name]


@pytest.mark.parametrize("existing", [True, False], ids=["rerun", "new_out"])
def test_interrupted_run_moves_nothing(tmp_path, monkeypatch, existing):
    """A run interrupted after its runner wrote a CSV leaves an earlier run's
    directory byte for byte as it was, with no stage left, and removes a
    directory it made."""
    out = tmp_path / "n1" / "d"
    if existing:
        assert main(["theory-lines", "--a", "1", "--kappa", "1", "--out", str(out)]) == 0
    earlier = _files(out) if existing else None

    def interrupted(inputs, stage, sc):
        run_theory_lines(inputs, stage, sc)  # writes theory_lines.csv
        raise KeyboardInterrupt

    monkeypatch.setitem(cli._RUNNERS, "theory-lines", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["theory-lines", "--a", "2", "--kappa", "1", "--out", str(out)])
    if existing:
        assert sorted(p.name for p in out.iterdir()) == sorted(earlier)
        assert _files(out) == earlier
    else:
        assert not (tmp_path / "n1").exists()


@pytest.mark.parametrize("command", list(COMMAND_ARGS))
def test_run_leaves_its_files_and_manifest_only(tmp_path, capsys, command):
    """After a run the output directory holds exactly the files the manifest
    lists and manifest.json, with no stage or other hidden entry, and stdout
    is one line naming a file there."""
    args = COMMAND_ARGS[command]
    if command == "calibrate":
        data = tmp_path / "cal.csv"
        data.write_text("dt_c,centroid_shift_nm\n0,0\n1,0.01\n2,0.02\n")
        args = ["--input", str(data)]
    elif command not in ("amax-curve", "theory-lines"):
        args = ["--config", str(CONFIGS / "bench.json"), *args]
    out = tmp_path / "out"
    assert main([command, *args, "--out", str(out)]) == 0
    outputs = list(json.loads((out / "manifest.json").read_text())["outputs"])
    assert sorted(p.name for p in out.iterdir()) == sorted([*outputs, "manifest.json"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{command}: ")
    assert any(lines[0].endswith(f" -> {out / name}") for name in outputs)


@pytest.mark.parametrize("interferometer,code", [
    ({"tau_ps": 1.5e305}, 2),
    ({"phi_rad": 1e308, "lcvr_rad": -1e308}, 2),
    ({"tau_ps": 1e308}, 2),
    ({"tau_ps": 1.4e305}, 0),
], ids=["tau", "delta", "tau_1e308", "tau_in_range"])
def test_overflowing_y_arm_phase_exits_2(tmp_path, capsys, interferometer, code):
    """A delay or phase whose 2 pi nu tau + delta overflows a float at the
    grid's top node exits 2 naming interferometer, with no directory left
    (a RuntimeWarning fails the test); tau_ps 1.4e305 runs."""
    doc = json.loads((CONFIGS / "bench.json").read_text())
    doc["interferometer"].update(interferometer)
    out = tmp_path / "out"
    assert main(["dump-spectrum", "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == code
    assert out.exists() == (code == 0)
    if code == 2:
        assert capsys.readouterr().err.startswith("error: interferometer: the y-arm phase ")


def test_overflowing_delta_names_phi_and_lcvr_everywhere(tmp_path, capsys):
    """phi_rad 1e308 with lcvr_rad -1e308 overflows delta = phi - lcvr to inf:
    exact_centroid, exact_spectrum, scenario_field and dump-spectrum (exit 2)
    all give one message, which names the config's keys with their values."""
    from wva_sense.scenario import exact_centroid, exact_spectrum, scenario_field

    doc = json.loads((CONFIGS / "bench.json").read_text())
    doc["interferometer"].update({"phi_rad": 1e308, "lcvr_rad": -1e308})
    cfg = write_config(tmp_path, doc)
    sc = load_scenario(cfg).scenario
    message = ("interferometer: the y-arm phase delta = phi_rad - lcvr_rad is not finite, "
               "phi_rad=1e+308, lcvr_rad=-1e+308")
    for call in (lambda: exact_centroid(sc, math.radians(-40.0)),
                 lambda: exact_spectrum(sc, math.radians(-40.0)), lambda: scenario_field(sc)):
        with pytest.raises(ConfigError) as err:
            call()
        assert str(err.value) == message
    out = tmp_path / "out"
    assert main(["dump-spectrum", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("exponent,code", [(1024, 2), (1023, 0)])
def test_filter_order_beyond_the_float_range_exits_2(tmp_path, capsys, exponent, code):
    """An order above the largest float exits 2 naming filter and leaves no
    directory; 2**1023 runs."""
    cfg = write_config(tmp_path, _bench_with("filter", "order", 2**exponent))
    out = tmp_path / "out"
    assert main(["dump-spectrum", "--config", cfg, "--out", str(out)]) == code
    assert out.exists() == (code == 0)
    if code == 2:
        assert capsys.readouterr().err.startswith(
            "error: filter: filter order must be positive, even and at most the largest float, "
            f"got {str(2**1024)[:80]}")


@pytest.mark.parametrize("entry", ["main", "replay"])
def test_temperature_plan_beyond_the_float_range_exits_2(tmp_path, capsys, entry):
    """A t1 - t2 that is not finite is rejected where the config is parsed,
    naming the temperature, not a --dt flag that was not given."""
    doc = _bench_with("temperatures", "t2_ref_c", -1e308)
    doc["temperatures"]["t1_list_c"] = [1e308, 1e308]
    message = "temperatures.t1_list_c[0] - t2_ref_c: expected a finite number, got inf"
    out = tmp_path / "out"
    if entry == "main":
        assert main(["sweep-temp", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    else:
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"command": "sweep-temp", "seed": None, "resolved": {
            "config": doc, "dt_list_c": [0.0, 1.0], "beta_deg": None}}))
        with pytest.raises(ConfigError, match=re.escape(f"{path}: resolved.config: {message}")):
            replay_manifest(path, out)
    assert not out.exists()


def test_failed_write_names_the_file_in_out(tmp_path, capsys):
    """A CSV value that is not finite names the file as it would sit in the
    output directory, not in the directory the run writes into first."""
    out = tmp_path / "out"
    assert exit_code(["theory-lines", "--a", "1e308", "--kappa", "1e308", "--dt", "0,10",
                      "--out", str(out)]) == 3
    assert capsys.readouterr().err == (f"error: {out / 'theory_lines.csv'}: column shift_nm: "
                                       "value inf is not finite\n")
    assert not out.exists()


_GRID_CASES = [  # (span_thz, rbw_nm) on bench.json's 4001 points
    (5e-324, 0.01),  # the spacing is 0
    (1e-320, 0.01), (1e-15, 0.01), (1e-11, 0.01), (1e-6, 0.01),
    (1e-6, 0.0),  # wrote 4001 equal frequencies
    (4e-6, 0.0),  # a spacing just below 1e-9 THz
]


@pytest.mark.parametrize("argv", [["dump-spectrum"], ["sweep-temp"],
                                  ["sweep-beta", "--step", "5"]], ids=lambda a: a[0])
@pytest.mark.parametrize("span,rbw", _GRID_CASES)
def test_grid_finer_than_the_csv_exits_2(tmp_path, capsys, argv, span, rbw):
    """A spacing no wider than the last digit a spectrum CSV writes at the top
    node (1e-9 THz near 193 THz) exits 2 naming grid, before the RBW kernel."""
    doc = _bench_with("osa", "rbw_nm", rbw)
    doc["grid"] = {"span_thz": span}
    out = tmp_path / "out"
    assert main([argv[0], "--config", write_config(tmp_path, doc), *argv[1:],
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: grid: a spacing of ") and "1e-09 THz" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_finest_accepted_grid_dumps_a_readable_spectrum(tmp_path):
    """The next span above the refused 4e-6 THz gives 4001 distinct written
    frequencies, which read_spectrum_csv reads back as the grid."""
    from wva_sense import read_spectrum_csv
    doc = _bench_with("osa", "rbw_nm", 0.0)
    doc["grid"] = {"span_thz": math.nextafter(4e-6, 1.0)}
    out = tmp_path / "out"
    assert main(["dump-spectrum", "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == 0
    grid = read_spectrum_csv(out / "spectrum.csv").grid
    assert grid.n_points == 4001
    assert grid.spacing == pytest.approx(1e-9, rel=1e-3)


@pytest.mark.parametrize("entry", ["main", "replay"])
def test_sweep_temp_reads_no_temperature_outside_its_plan(tmp_path, capsys, entry):
    """A config temperature that --dt (or resolved.dt_list_c) replaces is never
    measured, so one off the grid does not stop the sweep."""
    doc = _bench_with("temperatures", "t1_list_c", [3000, 20])
    out = tmp_path / "out"
    if entry == "main":
        assert main(["sweep-temp", "--config", write_config(tmp_path, doc), "--dt", "0,1",
                     "--out", str(out)]) == 0
    else:
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"command": "sweep-temp", "seed": None, "resolved": {
            "config": doc, "dt_list_c": [0.0, 1.0], "beta_deg": None}}))
        replay_manifest(path, out)
    _, rows = read_rows(out / "sweep_temp.csv")
    assert [r[0] for r in rows] == [0.0, 1.0]
    # The plan's own first temperature is 20 degC: the same rows.
    same = tmp_path / "same"
    assert main(["sweep-temp", "--config", write_config(tmp_path, _bench_with(
        "temperatures", "t1_list_c", [20, 21])), "--dt", "0,1", "--out", str(same)]) == 0
    assert (out / "sweep_temp.csv").read_bytes() == (same / "sweep_temp.csv").read_bytes()
