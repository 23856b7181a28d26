"""The benchmark's workloads: fixed operation lists over the public CLI and library.

Each workload is a list of operations, each one CLI command (`cli.main`) or
one library call, always looked up on its module at call time so the tracer's
wrappers are seen. Every operation states how many pipeline points it takes
(spectra through synthesis -> OSA -> filter/centroid or SNR), counted from its
own inputs: angles, temperatures, dumps and references.

All workloads use the `configs/bench.json` physics. The noise seed reaches the
program only as `--seed` or `OsaParams.seed`.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

import wva_sense.cli as cli
import wva_sense.config as config
import wva_sense.osa as osa
import wva_sense.scenario as scenario
import wva_sense.spectral as spectral
import wva_sense.wva as wva

FINE_N_POINTS = 200001


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[], object]  # CLI exit code or library result
    points: int
    out: Optional[Path] = None  # directory the operation writes
    seeded: bool = True  # outputs depend on the noise seed
    expect_code: Optional[int] = None  # CLI exit code expected


@dataclass(frozen=True)
class Workload:
    name: str
    n_points: int
    # Fixed per workload so op_s.tail stays comparable across commits: the
    # highest of p50/p75/p90/p95/p99 with >= 10 samples beyond it at min_ops,
    # and every run collects at least min_ops operations.
    tail_pct: float
    min_ops: int
    configs: tuple[Path, ...]
    ops: tuple[Op, ...]
    # Science checks on any seed, given each op's returned value:
    # op name -> problems found after a pass.
    checks: Callable[[dict[str, object]], dict[str, list[str]]]

    @property
    def points_per_pass(self) -> int:
        return sum(op.points for op in self.ops)


def _n_angles(lo: float, hi: float, step: float) -> int:
    return int(math.floor((hi - lo) / step + 1e-9)) + 1


def _cli_op(name: str, argv: list[str], out: Path, points: int, seeded: bool = True) -> Op:
    args = [*argv, "--out", str(out)]
    return Op(name, lambda: cli.main(args), points, out, seeded, expect_code=0)


def _footer(path: Path) -> dict[str, str]:
    """`# key=value` footer fields of a CLI CSV (all key=value pairs per line)."""
    fields: dict[str, str] = {}
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            fields.update(re.findall(r"([\w]+)=(\S+)", line))
    return fields


def _data_rows(path: Path) -> int:
    lines = path.read_text().splitlines()
    return sum(1 for line in lines[1:] if line and not line.startswith("#"))


def _within(value: float, target: float, rel: float) -> bool:
    return abs(value - target) <= rel * abs(target)


def _a_max(sc) -> float:
    """Closed-form |A| ceiling at the scenario's overlap and residual phase."""
    c1, c2 = scenario.scenario_centers(sc)
    b_eff = (sc.fbg1.bandwidth_b_thz + sc.fbg2.bandwidth_b_thz) / 2
    gamma = wva.overlap_gamma((c1 - c2) / 2, b_eff)
    return wva.max_amplification(gamma, sc.delta_rad).a_max


def _slope_problems(csv: Path, target: float, rel: float) -> list[str]:
    slope = float(_footer(csv)["fit_slope_nm_per_c"])
    if _within(slope, target, rel):
        return []
    return [f"{csv.name}: fit slope {slope:.6g} not within {rel:.0%} of {target}"]


def _usable_problems(beta_deg: float, a: float, snr_db: float, snr_min: float,
                     a_max: float) -> list[str]:
    problems = []
    if not snr_db >= snr_min:
        problems.append(f"max_usable snr {snr_db:.4g} dB below floor {snr_min} dB")
    if abs(a) > a_max * (1 + 1e-9):
        problems.append(f"max_usable |A| {abs(a):.6g} exceeds closed-form a_max {a_max:.6g}")
    if not -90.0 <= beta_deg <= 0.0:
        problems.append(f"max_usable angle {beta_deg} deg outside the sweep")
    return problems


# ---------------------------------------------------------------------------
# angle_dense
# ---------------------------------------------------------------------------

def angle_dense(work: Path, root: Path, seed: int) -> Workload:
    bench = root / "configs" / "bench.json"
    loaded = config.load_scenario(bench)
    spec = loaded.beta
    step, snr_min = 0.05, 20.0
    n_beta = _n_angles(spec.sweep_min_deg, spec.sweep_max_deg, step)
    dumps = [-40.0, -35.0, -25.0, 0.0]
    # The c10 scenario: g = 0.99 (the config's phi), t1 = 31 degC, 0.01 nm RBW.
    base = replace(loaded.scenario, t1_c=31.0)
    floors = (1e-6, 1e-4)
    mu_step, mu_lo, mu_hi = 0.1, -89.0, 0.0
    n_mu = _n_angles(mu_lo, mu_hi, mu_step)
    a_max = _a_max(base)

    ops = [_cli_op(
        "sweep-beta",
        ["sweep-beta", "--config", str(bench), "--dt", "11", "--step", str(step),
         "--snr-min", str(snr_min), "--dump-spectra=" + ",".join(f"{d:g}" for d in dumps),
         "--seed", str(seed)],
        work / "beta", n_beta + len(dumps) + 1)]
    for floor in floors:
        sc = replace(base, osa=osa.OsaParams(rbw_nm=0.01, noise_floor=floor, seed=seed))
        ops.append(Op(
            f"max_usable.{floor:g}",
            lambda sc=sc: osa.max_usable_amplification(
                sc, snr_min, beta_min_deg=mu_lo, beta_max_deg=mu_hi, step_deg=mu_step),
            n_mu))

    def checks(values: dict[str, object]) -> dict[str, list[str]]:
        csv = work / "beta" / "sweep_beta.csv"
        rows = _data_rows(csv)
        f = _footer(csv)
        found = {"sweep-beta": (
            ([] if rows == n_beta else [f"{csv.name}: {rows} rows, expected {n_beta}"])
            + _usable_problems(float(f["beta_deg"]), float(f["a"]), float(f["snr_db"]),
                               snr_min, a_max))}
        for op in ops[1:]:
            r = values[op.name]
            found[op.name] = _usable_problems(math.degrees(r.beta_rad), r.a, r.snr_db,
                                              snr_min, a_max)
        return found

    return Workload("angle_dense", loaded.scenario.grid.n_points, 50, 20, (bench,),
                    tuple(ops), checks)


# ---------------------------------------------------------------------------
# quickstart
# ---------------------------------------------------------------------------

def quickstart(work: Path, root: Path, seed: int) -> Workload:
    bench = root / "configs" / "bench.json"
    side = root / "configs" / "bench_sidelobe.json"
    loaded = config.load_scenario(bench)
    n_temp = len(loaded.dt_list_c) + 1
    n_side = len(config.load_scenario(side).dt_list_c) + 1
    spec = loaded.beta
    dumps = "-40,-35,-25,0"
    n_beta = _n_angles(spec.sweep_min_deg, spec.sweep_max_deg, spec.sweep_step_deg) + 4 + 1
    g_list = [0.99, 0.999, 0.9999]
    amax_step = 0.01
    s = ["--seed", str(seed)]
    temp40 = work / "temp40" / "sweep_temp.csv"
    dumped = work / "beta" / "spectrum_beta_-40.00.csv"

    ops = [
        _cli_op("sweep-temp.beta-40",
                ["sweep-temp", "--config", str(bench), "--beta", "-40", *s],
                temp40.parent, n_temp),
        _cli_op("sweep-temp.beta0",
                ["sweep-temp", "--config", str(bench), "--beta", "0", *s],
                work / "temp0", n_temp),
        _cli_op("sweep-temp.sidelobe", ["sweep-temp", "--config", str(side), *s],
                work / "side", n_side),
        _cli_op("sweep-beta",
                ["sweep-beta", "--config", str(bench), "--dt", "11",
                 "--dump-spectra=" + dumps, *s],
                work / "beta", n_beta),
        _cli_op("amax-curve",
                ["amax-curve", "--g", ",".join(map(str, g_list)), "--step", str(amax_step)],
                work / "amax", 0, seeded=False),
        _cli_op("theory-lines",
                ["theory-lines", "--a", "1,25,50", "--dt", "0:12:1", "--kappa", "0.009"],
                work / "lines", 0, seeded=False),
        _cli_op("calibrate", ["calibrate", "--input", str(temp40)], work / "cal", 0),
    ]
    for stage in ("raw", "osa", "filtered"):
        ops.append(_cli_op(
            f"dump-spectrum.{stage}",
            ["dump-spectrum", "--config", str(bench), "--beta", "-40", "--dt", "11",
             "--stage", stage, *s],
            work / f"spec_{stage}", 1, seeded=stage != "raw"))
    ops.append(Op("replay",
                  lambda: cli.replay_manifest(work / "beta" / "manifest.json",
                                              work / "beta_replay"),
                  n_beta, work / "beta_replay"))
    ops.append(Op("read_spectrum_csv", lambda: spectral.read_spectrum_csv(dumped), 0))

    def checks(values: dict[str, object]) -> dict[str, list[str]]:
        found: dict[str, list[str]] = {
            # Bare grating sensitivity at beta = 0; ~4x at beta = -40 (g = 0.99).
            "sweep-temp.beta0": _slope_problems(work / "temp0" / "sweep_temp.csv", 0.009, 0.05),
            "sweep-temp.beta-40": _slope_problems(temp40, 0.035, 0.15),
        }
        problems, peaks = [], 0
        for line in (work / "amax" / "amax_curve.csv").read_text().splitlines():
            m = re.match(r"# peak g=(\S+): a=(\S+) at beta_deg=(\S+)", line)
            if not m:
                continue
            g, a, beta = map(float, m.groups())
            peaks += 1
            closed = wva.max_amplification(1.0, math.acos(g))
            if abs(beta - math.degrees(closed.beta_star)) > amax_step * (1 + 1e-9):
                problems.append(f"amax peak g={g}: beta {beta} deg not within one step "
                                f"of {math.degrees(closed.beta_star):.4f}")
            if a > closed.a_max * (1 + 1e-12):
                problems.append(f"amax peak g={g}: a={a} exceeds a_max={closed.a_max}")
        if peaks != len(g_list):
            problems.append(f"amax_curve.csv: {peaks} peak lines, expected {len(g_list)}")
        found["amax-curve"] = problems
        cal = json.loads((work / "cal" / "calibration.json").read_text())
        footer = float(_footer(temp40)["fit_slope_nm_per_c"])
        found["calibrate"] = (
            [] if float(f"{cal['slope_nm_per_c']:.12g}") == footer
            else [f"calibrate slope {cal['slope_nm_per_c']} != sweep footer {footer}"])
        orig = output_digest(work / "beta")
        again = output_digest(work / "beta_replay")
        found["replay"] = (
            [] if {k: v for k, v in again.items() if k != "manifest.json"}
            == {k: v for k, v in orig.items() if k != "manifest.json"}
            else ["replayed outputs differ from the original sweep-beta run"])
        n_read = values["read_spectrum_csv"].grid.n_points
        found["read_spectrum_csv"] = (
            [] if n_read == loaded.scenario.grid.n_points
            else [f"read_spectrum_csv: {n_read} points"])
        return found

    return Workload("quickstart", loaded.scenario.grid.n_points, 95, 200,
                    (bench, side), tuple(ops), checks)


# ---------------------------------------------------------------------------
# fine_grid
# ---------------------------------------------------------------------------

def fine_grid(work: Path, root: Path, seed: int) -> Workload:
    doc = json.loads((root / "configs" / "bench.json").read_text())
    doc["grid"] = {"n_points": FINE_N_POINTS}
    work.mkdir(parents=True, exist_ok=True)
    fine = work / "bench_fine.json"
    fine.write_text(json.dumps(doc, indent=2) + "\n")
    loaded = config.load_scenario(fine)
    spec = loaded.beta
    beta_step = 5.0
    s = ["--seed", str(seed)]
    ops = (
        _cli_op("sweep-temp", ["sweep-temp", "--config", str(fine), "--beta", "-40", *s],
                work / "temp40", len(loaded.dt_list_c) + 1),
        _cli_op("sweep-beta",
                ["sweep-beta", "--config", str(fine), "--dt", "11", "--step", str(beta_step), *s],
                work / "beta",
                _n_angles(spec.sweep_min_deg, spec.sweep_max_deg, beta_step) + 1),
        _cli_op("dump-spectrum",
                ["dump-spectrum", "--config", str(fine), "--beta", "-40", "--dt", "11",
                 "--stage", "filtered", *s],
                work / "spec", 1),
    )
    n_beta = _n_angles(spec.sweep_min_deg, spec.sweep_max_deg, beta_step)

    def checks(values: dict[str, object]) -> dict[str, list[str]]:
        rows_beta = _data_rows(work / "beta" / "sweep_beta.csv")
        rows_spec = _data_rows(work / "spec" / "spectrum.csv")
        return {
            "sweep-temp": _slope_problems(work / "temp40" / "sweep_temp.csv", 0.035, 0.15),
            "sweep-beta": [] if rows_beta == n_beta
            else [f"sweep_beta.csv: {rows_beta} rows, expected {n_beta}"],
            "dump-spectrum": [] if rows_spec == FINE_N_POINTS
            else [f"spectrum.csv: {rows_spec} rows, expected {FINE_N_POINTS}"],
        }

    return Workload("fine_grid", FINE_N_POINTS, 50, 20, (fine,), ops, checks)


WORKLOADS: dict[str, Callable[[Path, Path, int], Workload]] = {
    "angle_dense": angle_dense,
    "quickstart": quickstart,
    "fine_grid": fine_grid,
}


# ---------------------------------------------------------------------------
# Output digests
# ---------------------------------------------------------------------------

def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digest(out: Path) -> dict[str, str]:
    """SHA-256 of every file an operation wrote.

    The manifest is hashed without its creation timestamp, the one field that
    legitimately differs between identical runs.
    """
    digest = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("created_utc", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        digest[path.name] = _sha256(data)
    return digest


def manifest_problems(out: Path, digest: dict[str, str]) -> list[str]:
    """The manifest's own output hashes must match the files on disk."""
    manifest_path = out / "manifest.json"
    if not manifest_path.exists():
        return [f"{out.name}: no manifest.json"]
    recorded = json.loads(manifest_path.read_text()).get("outputs", {})
    actual = {k: v for k, v in digest.items() if k != "manifest.json"}
    return [] if recorded == actual else [f"{out.name}: manifest hashes differ from files"]


def value_digest(value) -> object:
    """Comparable form of a library operation's result."""
    if isinstance(value, osa.UsableAmplification):
        return [value.beta_rad, value.a, value.snr_db]
    if isinstance(value, spectral.Spectrum):
        return [value.grid.n_points, _sha256(value.samples.tobytes())]
    return None

