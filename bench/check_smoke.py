"""Smoke test of the benchmark: one quick run per workload and mode.

    python3 -m pytest bench/check_smoke.py

Each run is a warm-up pass plus one measured pass (`--quick`). The test
asserts that the run exits 0, verifies its outputs, prints every metric that
BENCHMARK.json names with its unit, and ends with the result JSON line.
The file name keeps it out of the default test collection: it takes about a
minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_prints_every_metric(workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0
    assert result["attempted"] >= 1

    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    table = {line.split()[0]: line.split()[1:] for line in lines[:-1] if line.startswith("  ")}
    for name, unit in want.items():
        assert name in table, f"{name} not printed"
        assert unit in table[name], f"{name} printed without its unit {unit}"
    if not trace:
        for name in ("fail_ratio", "mismatch_ratio"):
            assert table[name][0] == "0", f"{name} = {table[name][0]}"


def test_refuses_a_directory_without_the_package(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.iterdir():
        if path.is_file():
            (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "quickstart", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
