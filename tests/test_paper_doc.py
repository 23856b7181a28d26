"""docs/paper.md's table of the paper's claims, recomputed row by row: the
commands it shows run through the CLI, its Python block runs as written, and
every value matches to the digits the doc prints."""

import re
import shlex
from pathlib import Path

from wva_sense.cli import main

ROOT = Path(__file__).resolve().parent.parent
DOC = (ROOT / "docs" / "paper.md").read_text()


def _rows():
    """{claim: (quantity, value, reproduced by)} of the doc's table."""
    lines = [line for line in DOC.splitlines() if line.startswith("| ")]
    cells = ([c.strip() for c in line.strip("|").split("|")] for line in lines[1:])
    return {row[0]: tuple(row[1:]) for row in cells}


def _footer_slope(path):
    for line in path.read_text().splitlines():
        if line.startswith("# fit_slope_nm_per_c="):
            return float(line.split("=", 1)[1])
    raise AssertionError(f"no slope footer in {path}")


def _assert_shown(cell, values):
    """Each decimal number in `cell`, in order, is the value rounded to the
    digits shown."""
    shown = re.findall(r"\d+\.\d+", cell)
    assert len(shown) == len(values), (cell, values)
    for text, value in zip(shown, values):
        assert f"{value:.{len(text.split('.')[1])}f}" == text, (cell, value)


def test_every_claim_is_recomputed(tmp_path, monkeypatch, capsys):
    rows = _rows()
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
    code = re.search(r"```python\n(.*?)```", DOC, re.S).group(1)
    ns = {}
    exec(compile(code, "docs/paper.md", "exec"), ns)
    capsys.readouterr()
    kappa = ns["sc"].fbg1.kappa_nm_per_c
    _assert_shown(rows["standard methods"][1], [slopes[0]])
    _assert_shown(rows["~0.035 nm/°C"][1], [slopes[1]])
    _assert_shown(rows["nearly fourfold"][1], [slopes[1] / slopes[0]])
    _assert_shown(rows["~0.035 nm/°C, noise off"][1],
                  [ns["noise_off"].slope_nm_per_c, ns["noise_off"].residual_rms_nm * 1e3])
    _assert_shown(rows["~0.035 nm/°C at dt = 0"][1], [ns["local"], ns["local"] / kappa])
    assert rows["increasingly lower changes"][1] == "not yet modelled"
