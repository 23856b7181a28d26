import json
import re
from pathlib import Path

import pytest

from wva_sense.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _section(title):
    return (ROOT / "docs" / "formats.md").read_text().split(f"## `{title}` -> ", 1)[1]


def test_sweep_temp_example_is_a_fresh_run(tmp_path):
    # The sweep_temp.csv example shows the header, the first data row and the
    # four footer lines that sweep-temp writes on configs/bench.json.
    block = re.search(r"```\n(.*?)```", _section("sweep-temp"), re.S).group(1).splitlines()
    assert block[2] == "..."
    out = tmp_path / "run"
    assert main(["sweep-temp", "--config", str(ROOT / "configs" / "bench.json"),
                 "--out", str(out)]) == 0
    lines = (out / "sweep_temp.csv").read_text().splitlines()
    assert block[:2] + block[3:] == lines[:2] + lines[-4:]


def test_calibrate_example_rounds_a_fresh_run(tmp_path):
    # The calibration.json example is calibrate on that sweep_temp.csv, its
    # numbers rounded to the digits shown.
    shown = json.loads(re.search(r"```json\n(.*?)```", _section("calibrate"), re.S).group(1))
    config = str(ROOT / "configs" / "bench.json")
    assert main(["sweep-temp", "--config", config, "--out", str(tmp_path / "run")]) == 0
    assert main(["calibrate", "--input", str(tmp_path / "run" / "sweep_temp.csv"),
                 "--out", str(tmp_path / "cal")]) == 0
    written = json.loads((tmp_path / "cal" / "calibration.json").read_text())
    assert shown.keys() == written.keys()
    for key, value in shown.items():
        assert value == pytest.approx(written[key], rel=2e-4), key
