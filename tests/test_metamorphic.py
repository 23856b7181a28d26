"""Metamorphic relations on the measured path: changes to an input that must
leave every output byte as it was, checked without a closed form.

Sign of the phase: the y arm carries exp[i(2 pi nu tau + delta)] with
delta = phi - lcvr, so negating tau_ps, phi_rad and lcvr_rad together
conjugates the y arm. The projected power |cos(beta) ex + sin(beta) ey|^2 is
then unchanged (|z|^2 = |conj(z)|^2, ex being real), and so is A, which reads
delta through cos(delta). Everything after the field (OSA, noise, filter
centre, window, reference, centroid) must not depend on the phase's sign.
"""

import json
from pathlib import Path

import pytest

from wva_sense.cli import main

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
