"""docs/paper.md's tables of the paper's claims and of the modelled effects'
error budget, recomputed row by row: the commands they show run through the
CLI, the doc's Python block runs as written, and every value matches to the
digits the doc prints."""

import contextlib
import io
import math
import re
import shlex
from pathlib import Path

import pytest

from wva_sense.cli import main

ROOT = Path(__file__).resolve().parent.parent
DOC = (ROOT / "docs" / "paper.md").read_text()


def _rows(header):
    """{first cell: (other cells)} of the doc's table whose header row starts
    with the cell `header`; a `\\|` inside a cell is part of the cell."""
    lines = DOC.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(f"| {header} |"))
    rows = {}
    for line in lines[start + 2:]:  # past the header and its |---| line
        if not line.startswith("| "):
            break
        cells = [c.strip() for c in re.split(r"(?<!\\)\|", line.strip().strip("|"))]
        rows[cells[0]] = tuple(cells[1:])
    return rows


@pytest.fixture(scope="module")
def block():
    """The namespace of the doc's Python block, run as written from the repository root."""
    code = re.search(r"```python\n(.*?)```", DOC, re.S).group(1)
    ns = {}
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()):
        mp.chdir(ROOT)
        exec(compile(code, "docs/paper.md", "exec"), ns)
    return ns


def _footer_slope(path):
    for line in path.read_text().splitlines():
        if line.startswith("# fit_slope_nm_per_c="):
            return float(line.split("=", 1)[1])
    raise AssertionError(f"no slope footer in {path}")


def _assert_shown(cell, values):
    """Each number in `cell`, in order, is the value rounded to the digits
    shown, with its sign where one is shown (+ or −)."""
    shown = re.findall(r"[+−]?\d+(?:\.\d+)?", cell)
    assert len(shown) == len(values), (cell, values)
    for text, value in zip(shown, values):
        digits = len(text.split(".")[1]) if "." in text else 0
        if text[0] in "+−":
            assert f"{value:+.{digits}f}".replace("-", "−") == text, (cell, value)
        else:
            assert f"{value:.{digits}f}" == text, (cell, value)


def test_every_claim_is_recomputed(tmp_path, monkeypatch, block):
    rows = _rows("claim")
    assert set(rows) == {"standard methods", "~0.035 nm/°C", "nearly fourfold",
                         "~0.035 nm/°C, noise off", "~0.035 nm/°C at dt = 0",
                         "increasingly lower changes"}
    (tmp_path / "configs").symlink_to(ROOT / "configs")
    monkeypatch.chdir(tmp_path)
    slopes = []
    for claim in ("standard methods", "~0.035 nm/°C"):
        argv = shlex.split(rows[claim][2].strip("`"))
        assert argv[0] == "wva-sense" and main(argv[1:]) == 0, argv
        slopes.append(_footer_slope(Path(argv[argv.index("--out") + 1]) / "sweep_temp.csv"))
    ns = block
    kappa = ns["sc"].fbg1.kappa_nm_per_c
    _assert_shown(rows["standard methods"][1], [slopes[0]])
    _assert_shown(rows["~0.035 nm/°C"][1], [slopes[1]])
    _assert_shown(rows["nearly fourfold"][1], [slopes[1] / slopes[0]])
    _assert_shown(rows["~0.035 nm/°C, noise off"][1],
                  [ns["noise_off"].slope_nm_per_c, ns["noise_off"].residual_rms_nm * 1e3])
    _assert_shown(rows["~0.035 nm/°C at dt = 0"][1], [ns["local"], ns["local"] / kappa])
    assert rows["increasingly lower changes"][1] == "not yet modelled"


def test_every_effect_is_recomputed(block):
    """Each effect row names its ROADMAP item and the block's variable that
    reproduces it; its value cell shows the slopes in nm/°C, their change from
    the noise-off fit in %, and the residuals in pm."""
    ns = block
    base = ns["noise_off"]

    def fitted(fits):
        return [v for f in fits for v in (f.slope_nm_per_c,
                                          100 * (f.slope_nm_per_c / base.slope_nm_per_c - 1),
                                          f.residual_rms_nm * 1e3)]

    expected = {
        "one point's readout noise": ("3", "readout", [ns["readout"] * 1e3]),
        "grating 2 width ×1.05": ("7", "wide", fitted([ns["wide"]])),
        "the source envelope across each lobe": ("8", "envelope", [ns["envelope"]]),
        "lead-fibre phase drift, 1 and 10 mrad/°C": ("6", "drift", fitted(ns["drift"])),
        "equal gratings' group delay, ±1.777 ps": ("5", "group_delay", fitted(ns["group_delay"])),
        r"uniform-grating lobe, \|r\| only": ("9", "uniform", fitted([ns["uniform"]])),
    }
    rows = _rows("effect")
    assert set(rows) == set(expected)
    for effect, (item, name, values) in expected.items():
        row_item, _, value, reproduced_by = rows[effect]
        assert (row_item, reproduced_by) == (item, f"`{name}` below"), effect
        _assert_shown(value, values)
    fit_text = f"fit of {base.slope_nm_per_c:.6f} nm/°C (residual {base.residual_rms_nm * 1e3:.2f} pm)"
    assert fit_text in " ".join(DOC.split())
    assert f"a = {ns['a']:.3f} per THz" in DOC
    fwhm = ns["quiet"].fbg1.fwhm_thz
    assert f"configured {fwhm:.4f} THz FWHM" in DOC
    # A weak uniform grating's group delay: sinc^2 halves at x = 1.39156.
    assert f"τg = {1.39156 / (math.pi * fwhm):.3f} ps" in DOC
