"""Byte identity of the one CSV writer, spectral.write_rows.

The references below are per-row writers: `csv.writer` with one f-string per
value and \\r\\n endings for spectra, and a `",".join` of f-strings with \\n
endings for the CLI tables. write_rows must write the same bytes for every
row count around its chunk size and for the values where float formatting
has edge cases. The property test's example sequence is fixed (derandomize)
and no example database is written.
"""

import csv
import math

import numpy as np
import pytest

import wva_sense as w
from wva_sense.errors import NumericalError
from wva_sense.spectral import write_rows

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

SPECTRUM_HEADER = ["frequency_thz", "power"]
TABLE_HEADER = ["beta_deg", "g", "a"]
FOOTER = ["# peak g=0.9: a=4.2 at beta_deg=-40", "# fit_n_points=3"]

# Ints, signed zeros, the smallest subnormal, a mid-range subnormal, the
# float extremes and values whose 12-digit form rounds. Non-finite values are
# rejected (see test_non_finite_value_rejected).
EDGE_VALUES = [0, 1, -7, 10**15, 0.0, -0.0,
               5e-324, 1.2345e-310, 1e308, -1e308, 1.7976931348623157e308,
               2.2250738585072014e-308, 0.1, 1 / 3, 999999999999.5, 1e-5, 1e16,
               np.float64(193.414489032), np.float64(-0.0)]


def reference_spectrum(path, header, rows):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for x, y in rows:
            writer.writerow([f"{x:.12g}", f"{y:.12g}"])


def reference_table(path, header, rows, footer):
    lines = [",".join(header)]
    lines += [",".join(f"{v:.12g}" for v in row) for row in rows]
    lines += footer
    path.write_bytes(("\n".join(lines) + "\n").encode())


def mixed_rows(n, ncols):
    """n rows cycling through EDGE_VALUES between seeded random floats."""
    rng = np.random.default_rng(n)
    values = (rng.standard_normal(n * ncols)
              * 10.0 ** rng.integers(-300, 300, n * ncols)).tolist()
    values[::3] = (EDGE_VALUES * (n * ncols // len(EDGE_VALUES) + 1))[: len(values[::3])]
    return [tuple(values[i:i + ncols]) for i in range(0, n * ncols, ncols)]


@pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 8193])
class TestWriteRows:
    def test_spectrum_bytes(self, tmp_path, n):
        rows = mixed_rows(n, 2)
        reference_spectrum(tmp_path / "ref.csv", SPECTRUM_HEADER, rows)
        write_rows(tmp_path / "out.csv", SPECTRUM_HEADER, iter(rows), newline="\r\n")
        assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_table_bytes(self, tmp_path, n):
        rows = mixed_rows(n, 3)
        reference_table(tmp_path / "ref.csv", TABLE_HEADER, rows, FOOTER)
        write_rows(tmp_path / "out.csv", TABLE_HEADER, rows, FOOTER)
        assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_empty_body_with_footer(tmp_path):
    write_rows(tmp_path / "out.csv", TABLE_HEADER, [], FOOTER)
    assert (tmp_path / "out.csv").read_bytes() == (
        b"beta_deg,g,a\n# peak g=0.9: a=4.2 at beta_deg=-40\n# fit_n_points=3\n")


@pytest.mark.parametrize("n", [1, 4097])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_value_rejected(tmp_path, value, n):
    rows = [(-40.0, 0.99, 7.1)] * n
    rows[-1] = (-40.0, value, 7.1)
    with pytest.raises(NumericalError, match=r"out\.csv: column g: value -?(inf|nan) "):
        write_rows(tmp_path / "out.csv", TABLE_HEADER, rows)


def test_unwritable_path_is_named(tmp_path):
    """An OSError names the path asked for, and leaves no other file beside it."""
    (tmp_path / "out.csv").mkdir()
    with pytest.raises(IsADirectoryError) as info:
        write_rows(tmp_path / "out.csv", TABLE_HEADER, [(-40.0, 0.99, 7.1)])
    assert info.value.filename == str(tmp_path / "out.csv")
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_snr_db_may_be_infinite(tmp_path):
    # Without noise the SNR is +inf by definition; a NaN is still rejected.
    header = ["beta_deg", "snr_db"]
    write_rows(tmp_path / "out.csv", header, [(0, math.inf), (1, -math.inf)])
    assert (tmp_path / "out.csv").read_bytes() == b"beta_deg,snr_db\n0,inf\n1,-inf\n"
    with pytest.raises(NumericalError, match="column snr_db"):
        write_rows(tmp_path / "out.csv", header, [(0, math.nan)])


def test_write_spectrum_csv_bytes(tmp_path):
    grid = w.FrequencyGrid(193.414489032, 2.0, 4097)
    nu = grid.frequencies()
    s = w.Spectrum(grid=grid, samples=np.exp(-((nu - 193.4) / 0.2) ** 2))
    reference_spectrum(tmp_path / "ref.csv", SPECTRUM_HEADER, zip(nu, s.samples))
    w.write_spectrum_csv(s, tmp_path / "out.csv")
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=st.integers(1, 5).flatmap(
    lambda ncols: arrays(np.float64, st.tuples(st.integers(0, 40), st.just(ncols)),
                         elements=FINITE)))
def test_finite_arrays_match_references(tmp_path, table):
    rows = [tuple(row) for row in table.tolist()]
    header = [f"c{k}" for k in range(table.shape[1])]
    reference_table(tmp_path / "ref.csv", header, rows, FOOTER)
    write_rows(tmp_path / "out.csv", header, rows, FOOTER)
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    if table.shape[1] == 2:
        reference_spectrum(tmp_path / "ref.csv", header, rows)
        write_rows(tmp_path / "out.csv", header, zip(*table.T), newline="\r\n")
        assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_non_finite_value_in_a_later_chunk_removes_the_file(tmp_path):
    """write_rows' own cleanup: a NaN in row 4097, the first of the second
    chunk, raises after the first chunk is written, and no file is left."""
    rows = [(-40.0, 0.99, 7.1)] * 4097
    rows[4096] = (-40.0, math.nan, 7.1)
    path = tmp_path / "out.csv"
    with pytest.raises(NumericalError, match=r"out\.csv: column g: value nan "):
        write_rows(path, TABLE_HEADER, rows)
    assert not path.exists()
    assert list(tmp_path.iterdir()) == []
