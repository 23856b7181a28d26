"""Metamorphic relations on the measured path: changes to an input that must
leave every output byte as it was, checked without a closed form.

Sign of the phase: the y arm carries exp[i(2 pi nu tau + delta)] with
delta = phi - lcvr, so negating tau_ps, phi_rad and lcvr_rad together
conjugates the y arm. The projected power |cos(beta) ex + sin(beta) ey|^2 is
then unchanged (|z|^2 = |conj(z)|^2, ex being real), and so is A, which reads
delta through cos(delta). Everything after the field (OSA, noise, filter
centre, window, reference, centroid) must not depend on the phase's sign.

Mirror in dt: with the source centred on the gratings and no noise, the
spectrum at -dt is the mirror image of the one at +dt about the common Bragg
centre, so the filtered shift is odd in dt.

Grid refinement: the noise-free filtered shift converges as the grid is
refined, monotonically and to well within the shift's own digits at 4001
points.

Order: with no noise a point does not depend on its noise stream, so
permuting the dt list of sweep-temp permutes its rows and changes no byte.

Phase immunity at beta = 0: the projection onto x drops the y arm, so no
relative phase of the arms, even one that moves with t1, reaches a beta = 0
reading.
"""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from wva_sense import scenario
from wva_sense.cli import main
from wva_sense.config import parse_scenario
from wva_sense.fbg import fit_sensitivity
from wva_sense.scenario import SweepKernel, scenario_centers, sweep_temperature

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SWEEP = ["--beta-min", "-90", "--beta-max", "0", "--step", "2.5"]


def _csvs(tmp_path, name, doc, tau_ps, lcvr_rad, sign):
    """{file name: bytes} of every CSV that sweep-beta (with two dumps) and
    sweep-temp write for `doc` with its phase terms multiplied by `sign`."""
    doc = json.loads(json.dumps(doc))
    interf = doc["interferometer"]
    interf.update(tau_ps=sign * tau_ps, phi_rad=sign * interf["phi_rad"],
                  lcvr_rad=sign * lcvr_rad)
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(doc))
    runs = {"beta": ["sweep-beta", *SWEEP, "--dt", "11", "--dump-spectra=-40,-20"],
            "temp": ["sweep-temp"]}
    csvs = {}
    for kind, argv in runs.items():
        out = tmp_path / f"{name}_{kind}"
        assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 0
        csvs.update({f"{kind}/{p.name}": p.read_bytes() for p in out.glob("*.csv")})
    return csvs


@pytest.mark.parametrize("config", ["bench.json", "bench_sidelobe.json"])
@pytest.mark.parametrize("tau_ps", [0.0, 0.3, 1.7])
def test_negating_the_phase_keeps_every_csv(tmp_path, config, tau_ps):
    """Negating tau_ps, phi_rad and lcvr_rad (0.03 rad) together writes the
    same bytes in every CSV, with noise, RBW and filter on."""
    doc = json.loads((CONFIGS / config).read_text())
    plus = _csvs(tmp_path, "plus", doc, tau_ps, 0.03, 1.0)
    minus = _csvs(tmp_path, "minus", doc, tau_ps, 0.03, -1.0)
    assert len(plus) == 4
    assert minus == plus


def _noise_free(**changes):
    """bench.json's document with the OSA's noise off and `changes`
    (section: {key: value}) applied."""
    doc = json.loads((CONFIGS / "bench.json").read_text())
    for section, values in changes.items():
        doc[section].update(values)
    doc["osa"].update(noise_floor=0.0, rel_noise=0.0)
    return doc


def _shifts(sc, beta_deg, dt_list):
    """The filtered shifts (nm) of sweep_temperature at beta_deg over dt_list."""
    sc = replace(sc, beta_rad=math.radians(beta_deg))
    return [r.centroid_nm_shift for _, r in sweep_temperature(sc, dt_list)]


@pytest.mark.parametrize("rbw_nm", [0.0, 0.01])
@pytest.mark.parametrize("beta_deg", [0.0, -20.0, -40.0, -42.0])
def test_the_shift_is_odd_in_dt_about_a_centred_source(rbw_nm, beta_deg):
    """Source at the gratings' 1551 nm, noise off: |s(dt) + s(-dt)| is within
    1e-9 of |s(dt)| for dt of 1, 3, 7 and 11 degC (the worst case measured
    1.01e-10)."""
    sc = parse_scenario(_noise_free(source={"center_nm": 1551.0}, osa={"rbw_nm": rbw_nm})).scenario
    dts = [1.0, 3.0, 7.0, 11.0]
    plus, minus = _shifts(sc, beta_deg, dts), _shifts(sc, beta_deg, [-dt for dt in dts])
    for dt, up, down in zip(dts, plus, minus):
        assert abs(up) > 0.005 * dt, (dt, up)
        assert abs(up + down) <= 1e-9 * abs(up), (dt, up, down)


@pytest.mark.parametrize("rbw_nm", [0.0, 0.01])
def test_the_shift_converges_as_the_grid_is_refined(rbw_nm):
    """Noise-free at -40 deg and dt = 11 degC: the filtered shift on 1001,
    4001, 16001, 64001 and 256001 points rises monotonically and its distance
    to the finest value shrinks (3.2e-7, 2.1e-8, 7.7e-10 and 3.7e-11 nm at
    RBW 0); 4001 points lie within 1e-6 relative of 64001."""
    sc = parse_scenario(_noise_free(osa={"rbw_nm": rbw_nm})).scenario
    shifts = {n: _shifts(replace(sc, grid=replace(sc.grid, n_points=n)), -40.0, [11.0])[0]
              for n in (1001, 4001, 16001, 64001, 256001)}
    values = list(shifts.values())
    assert values == sorted(values) and len(set(values)) == len(values), shifts
    gaps = [values[-1] - v for v in values[:-1]]
    assert all(a > 4.0 * b for a, b in zip(gaps, gaps[1:])), gaps
    assert abs(shifts[4001] - shifts[64001]) <= 1e-6 * abs(shifts[64001])


def test_permuting_the_dt_list_permutes_the_sweep_temp_rows(tmp_path):
    """Noise off (RBW and filter on): sweep-temp over [11, 5, 0, 2] writes the
    rows of [0, 2, 5, 11] in that order, byte for byte."""
    cfg = tmp_path / "quiet.json"
    cfg.write_text(json.dumps(_noise_free()))
    rows = {}
    for dts in ("0,2,5,11", "11,5,0,2"):
        out = tmp_path / dts
        assert main(["sweep-temp", "--config", str(cfg), "--dt", dts, "--out", str(out)]) == 0
        lines = (out / "sweep_temp.csv").read_text().splitlines()
        rows[dts] = [line for line in lines[1:] if not line.startswith("#")]
    first = rows["0,2,5,11"]
    assert rows["11,5,0,2"] == [first[3], first[2], first[0], first[1]]


def _moving_phase(kind, size):
    """scenario._phase with a relative phase that moves with t1 added to delta:
    a lead-fibre drift of `size` rad/degC of t1 - t2, or equal gratings' group
    delay of `size` ps folded in as -2 pi tau_g (c2 - c1)."""
    phase = scenario._phase

    def moved(s):
        tau, delta = phase(s)
        if kind == "drift":
            return tau, delta + size * (s.t1_c - s.t2_c)
        c1, c2 = scenario_centers(s)
        return tau, delta - 2.0 * math.pi * size * (c2 - c1)

    return moved


@pytest.mark.parametrize("kind,size", [("drift", 0.001), ("drift", 0.01), ("group_delay", 1.777)])
def test_beta_zero_is_immune_to_the_arms_phase(monkeypatch, kind, size):
    """With _phase patched to move with t1, sweep_temperature at beta = 0 on
    bench.json returns the unpatched run's shifts, raw powers, SNRs and A bit
    for bit, with the config's noise and with it off. So the noise-off fit
    reads 0.00900 nm/degC at every k and tau_g, as docs/paper.md says; at
    -40 deg the patched phase does reach the projected power."""
    loaded = parse_scenario(json.loads((CONFIGS / "bench.json").read_text()))
    noisy = replace(loaded.scenario, beta_rad=0.0)
    quiet = replace(noisy, osa=replace(noisy.osa, noise_floor=0.0))

    def run(sc):
        return [(dt, p.centroid_nm_shift, p.raw_power, p.snr_db, p.a_effective)
                for dt, p in sweep_temperature(sc, loaded.dt_list_c)]

    def raw_at_40(sc):
        return SweepKernel(replace(sc, t1_c=32.0)).raw(math.radians(-40.0))

    before = {"noisy": run(noisy), "quiet": run(quiet), "-40": raw_at_40(quiet)}
    monkeypatch.setattr(scenario, "_phase", _moving_phase(kind, size))
    assert run(noisy) == before["noisy"]
    assert run(quiet) == before["quiet"]
    assert not np.array_equal(raw_at_40(quiet), before["-40"])
    fit = fit_sensitivity([(dt, shift) for dt, shift, *_ in before["quiet"]])
    assert f"{fit.slope_nm_per_c:.5f}" == "0.00900"
