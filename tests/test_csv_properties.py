"""Property tests of the shared two-column CSV reader.

Inputs are arbitrary text and valid spectrum or calibration files with a few
lines or cells mutated. The example sequence is fixed (derandomize) so every
run checks the same inputs, and no example database is written.
"""

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import wva_sense as w
from wva_sense.cli import main
from wva_sense.errors import SpectrumFormatError

PROPERTY = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

SPECTRUM_LINES = ["frequency_thz,power"] + [
    f"{193.0 + 0.01 * k:.12g},{0.1 * k:.12g}" for k in range(6)
]
CALIBRATION_LINES = ["dt_c,centroid_shift_nm"] + [
    f"{k},{0.035 * k:.12g}" for k in range(5)
] + ["# fit_n_points=5"]

CELLS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e999", "-1", "1e308", "-1e308", "5e-324",
                     "", " ", "#", "1_0", "0x1", "frequency_thz", "dt_c", "1,2"]),
    st.floats().map(repr),
    st.text(max_size=6),
)


@st.composite
def mutated(draw, lines):
    """`lines` with 1-3 cells replaced or lines inserted or deleted, then joined."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines)))
        op = draw(st.sampled_from(["cell", "insert", "delete"]))
        if op == "insert" or i == len(lines):
            lines.insert(i, ",".join(draw(st.lists(CELLS, max_size=3))))
        elif op == "delete":
            del lines[i]
        else:
            cells = lines[i].split(",")
            cells[draw(st.integers(0, len(cells) - 1))] = draw(CELLS)
            lines[i] = ",".join(cells)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


def documents(lines):
    return st.one_of(st.text(), mutated(lines))


@PROPERTY
@given(text=documents(SPECTRUM_LINES))
def test_spectrum_reader_returns_finite_spectrum_or_format_error(tmp_path, text):
    path = tmp_path / "spectrum.csv"
    path.write_text(text, encoding="utf-8", newline="")
    try:
        s = w.read_spectrum_csv(path)
    except SpectrumFormatError:
        return
    assert np.all(np.isfinite(s.grid.frequencies()))
    assert np.all(np.isfinite(s.samples))
    assert np.all(s.samples >= 0)


def _reject_constant(name):
    raise AssertionError(f"calibration.json holds {name}")


@PROPERTY
@given(text=documents(CALIBRATION_LINES))
def test_calibrate_exits_cleanly_and_writes_finite_json(tmp_path, text):
    path = tmp_path / "cal.csv"
    path.write_text(text, encoding="utf-8", newline="")
    out = tmp_path / "out"
    result = out / "calibration.json"
    result.unlink(missing_ok=True)
    code = main(["calibrate", "--input", str(path), "--out", str(out)])
    assert code in (0, 2, 3)
    assert result.exists() == (code == 0)
    if code == 0:
        json.loads(result.read_text(), parse_constant=_reject_constant)
