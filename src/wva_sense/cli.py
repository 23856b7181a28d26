"""Command-line front end: sweeps, theory curves, calibration, CSV emission.

Every run writes its outputs plus a manifest.json recording the command, the
fully resolved inputs and the SHA-256 of each output file; re-running from
the manifest (replay_manifest) reproduces the CSVs byte for byte, including
noisy instrument traces, because every random stream is derived from the
recorded seed.

Exit codes: 0 success, 2 config/usage error, 3 numerical error (singular
post-selection, no signal, degenerate fit, non-finite output), 4
detection-limited.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Optional

from . import __version__
from .config import angle, count, finite, listed, parse_scenario, read_config, sweep
from .errors import (
    ConfigError,
    DegenerateFitError,
    DetectionLimitedError,
    NoSignalError,
    SpectrumFormatError,
    WvaSenseError,
)
from .fbg import centroid_shift_model, fit_sensitivity
from .osa import best_usable
from .scenario import Scenario, SweepKernel, temperature_points
from .spectral import (Spectrum, inclusive_range, read_csv_rows, trapezoid_power, write_rows,
                       write_spectrum_csv)
from .wva import amplification_factor


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _flag(rule: Callable[[Any, str], Any], parse: Callable[[str], Any] = float):
    """argparse type: `parse` the flag's text (text that does not parse is
    passed on as is) and apply a config rule; argparse names the flag."""
    def flag_type(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = text
        try:
            return rule(value, "")
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc).removeprefix(": ")) from None
    return flag_type


_finite, _angle, _seed = _flag(finite), _flag(angle), _flag(count, int)


def _float_list(parse: Callable[[str], float] = _finite) -> Callable[[str], list[float]]:
    """argparse type: 'a,b,c' or 'start:stop:step' (inclusive of stop within
    1e-9), at least one value, each value (start and stop of a range) `parse`d."""
    def list_type(text: str) -> list[float]:
        try:
            if ":" in text:
                parts = text.split(":")
                if len(parts) != 3:
                    raise ValueError("range spec needs start:stop:step")
                return inclusive_range(parse(parts[0]), parse(parts[1]), _finite(parts[2]))
            values = [parse(p) for p in text.split(",") if p.strip() != ""]
            if not values:
                raise ValueError(f"expected at least one value, got {text!r}")
            return values
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return list_type


# ---------------------------------------------------------------------------
# Command implementations. Each takes the fully resolved input dict, the
# output directory and the parsed config scenario (None for commands without
# a config), writes its files and returns {filename: sha256}.
# ---------------------------------------------------------------------------


def run_sweep_beta(resolved: dict, out_dir: Path, sc: Scenario) -> dict[str, str]:
    if resolved.get("dt_c") is not None:
        sc = replace(sc, t1_c=sc.t2_c + resolved["dt_c"])
    betas_deg = inclusive_range(
        resolved["beta_min_deg"], resolved["beta_max_deg"], resolved["step_deg"]
    )
    dumps: dict[str, float] = {}
    for beta_deg in resolved["dump_spectra_deg"]:
        name = f"spectrum_beta_{beta_deg:+.2f}.csv"
        if name in dumps:
            raise ConfigError(f"--dump-spectra: angles {_fmt(dumps[name])} and "
                              f"{_fmt(beta_deg)} both write {name}")
        dumps[name] = beta_deg
    # Rows stream from one kernel; no angle's spectra outlive its row.
    kernel = SweepKernel(sc)
    ref = kernel.reference()
    power_0 = trapezoid_power(kernel.raw(0.0), kernel.grid.spacing)
    if not power_0 > 0.0:
        raise NoSignalError("the beta = 0 reference power of total_power_rel is 0: "
                            "no signal reaches the detector at beta = 0")
    rows = []
    for beta_deg, (_, point) in zip(
        betas_deg, kernel.rows([math.radians(b) for b in betas_deg], ref)
    ):
        if point is None:
            print(f"skipping beta={beta_deg:.4g} deg: no signal at this angle",
                  file=sys.stderr)
            continue
        rows.append((beta_deg, point.centroid_nm_shift, point.a_effective,
                     point.raw_power / power_0, point.snr_db))

    footer = []
    if resolved["snr_min_db"] is not None:
        beta_deg, a, snr_db = best_usable(
            ((row[0], row[2], row[4]) for row in rows), resolved["snr_min_db"]
        )
        footer = [f"# max_usable: beta_deg={_fmt(beta_deg)} a={_fmt(a)} snr_db={_fmt(snr_db)}"]

    csv_path = out_dir / "sweep_beta.csv"
    header = ["beta_deg", "centroid_shift_nm", "a_effective", "total_power_rel", "snr_db"]
    write_rows(csv_path, header, rows, footer)
    outputs = {csv_path.name: _sha256(csv_path)}

    for j, (name, beta_deg) in enumerate(dumps.items()):
        trace = kernel.measure(kernel.raw(math.radians(beta_deg)), len(betas_deg) + 1 + j)
        write_spectrum_csv(Spectrum(kernel.grid, kernel.filtered(trace)), out_dir / name)
        outputs[name] = _sha256(out_dir / name)

    print(f"sweep-beta: {len(rows)} points -> {csv_path}")
    return outputs


def run_sweep_temp(resolved: dict, out_dir: Path, sc: Scenario) -> dict[str, str]:
    if resolved["beta_deg"] is not None:
        sc = replace(sc, beta_rad=math.radians(resolved["beta_deg"]))
    dt_list = resolved["dt_list_c"]
    if len(dt_list) < 2 or len(set(dt_list)) < 2:
        raise DegenerateFitError("temperature sweep needs >= 2 distinct dt values")

    rows = [(dt, r.centroid_nm_shift) for dt, r in temperature_points(sc, dt_list)]

    # Fit on the values as written so the footer matches a later `calibrate`
    # run on this file exactly.
    written = [(float(_fmt(dt)), float(_fmt(shift))) for dt, shift in rows]
    fit = fit_sensitivity(written)
    footer = [
        f"# fit_slope_nm_per_c={_fmt(fit.slope_nm_per_c)}",
        f"# fit_intercept_nm={_fmt(fit.intercept_nm)}",
        f"# fit_residual_rms_nm={_fmt(fit.residual_rms_nm)}",
        f"# fit_n_points={fit.n_points}",
    ]
    csv_path = out_dir / "sweep_temp.csv"
    write_rows(csv_path, ["dt_c", "centroid_shift_nm"], rows, footer)
    print(f"sweep-temp: {len(rows)} points, slope "
          f"{fit.slope_nm_per_c:.6g} nm/degC -> {csv_path}")
    return {csv_path.name: _sha256(csv_path)}


def run_amax_curve(resolved: dict, out_dir: Path, sc: Optional[Scenario]) -> dict[str, str]:
    g_list = resolved["g_list"]
    for g in g_list:
        if abs(g) >= 1.0:
            raise ConfigError(f"--g: |g| must be < 1, got {g}")
    betas_deg = inclusive_range(
        resolved["beta_min_deg"], resolved["beta_max_deg"], resolved["step_deg"]
    )
    rows = []
    peaks = []
    for g in g_list:
        best_a, best_beta = -math.inf, None
        for beta_deg in betas_deg:
            # gamma=1, delta=arccos(g) realizes gamma*cos(delta)=g exactly.
            a = amplification_factor(math.radians(beta_deg), 1.0, math.acos(g))
            rows.append((beta_deg, g, a))
            if a > best_a:
                best_a, best_beta = a, beta_deg
        peaks.append(f"# peak g={_fmt(g)}: a={_fmt(best_a)} at beta_deg={_fmt(best_beta)}")
    csv_path = out_dir / "amax_curve.csv"
    write_rows(csv_path, ["beta_deg", "g", "a"], rows, peaks)
    print(f"amax-curve: {len(g_list)} curves x {len(betas_deg)} angles -> {csv_path}")
    return {csv_path.name: _sha256(csv_path)}


def run_theory_lines(resolved: dict, out_dir: Path, sc: Optional[Scenario]) -> dict[str, str]:
    kappa = resolved["kappa_nm_per_c"]
    rows = [(dt, a, centroid_shift_model(dt, kappa, a))
            for a in resolved["a_list"] for dt in resolved["dt_list_c"]]
    csv_path = out_dir / "theory_lines.csv"
    write_rows(csv_path, ["dt_c", "a", "shift_nm"], rows)
    print(f"theory-lines: {len(rows)} rows -> {csv_path}")
    return {csv_path.name: _sha256(csv_path)}


def parse_calibration_csv(path) -> list[tuple[float, float]]:
    """(dt_c, shift_nm) rows of a calibration CSV with header dt_c,centroid_shift_nm.

    The file rules are those of spectral.read_csv_rows, plus at least one
    data row; violations raise SpectrumFormatError naming the path and line.
    """
    points = [(x, y) for _, x, y in read_csv_rows(path, ("dt_c", "centroid_shift_nm"))]
    if not points:
        raise SpectrumFormatError(f"{path}: no data rows")
    return points


def run_calibrate(resolved: dict, out_dir: Path, sc: Optional[Scenario]) -> dict[str, str]:
    points = [(float(dt), float(s)) for dt, s in resolved["points"]]
    fit = fit_sensitivity(points)
    doc = {
        "slope_nm_per_c": fit.slope_nm_per_c,
        "intercept_nm": fit.intercept_nm,
        "residual_rms_nm": fit.residual_rms_nm,
        "n_points": fit.n_points,
    }
    json_path = out_dir / "calibration.json"
    json_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(
        f"calibrate: slope {fit.slope_nm_per_c:.6g} nm/degC, "
        f"intercept {fit.intercept_nm:.6g} nm, "
        f"residual rms {fit.residual_rms_nm:.3g} nm over {fit.n_points} points"
    )
    return {json_path.name: _sha256(json_path)}


def run_dump_spectrum(resolved: dict, out_dir: Path, sc: Scenario) -> dict[str, str]:
    if resolved["beta_deg"] is not None:
        sc = replace(sc, beta_rad=math.radians(resolved["beta_deg"]))
    if resolved["dt_c"] is not None:
        sc = replace(sc, t1_c=sc.t2_c + resolved["dt_c"])
    stage = resolved["stage"]
    kernel = SweepKernel(sc)
    samples = kernel.raw(sc.beta_rad)
    if stage != "raw":
        samples = kernel.measure(samples, 1)
    if stage == "filtered":
        samples = kernel.filtered(samples)
    csv_path = out_dir / "spectrum.csv"
    write_spectrum_csv(Spectrum(kernel.grid, samples), csv_path)
    print(f"dump-spectrum: {stage} spectrum -> {csv_path}")
    return {csv_path.name: _sha256(csv_path)}


_RUNNERS: dict[str, Callable[[dict, Path, Optional[Scenario]], dict[str, str]]] = {
    "sweep-beta": run_sweep_beta,
    "sweep-temp": run_sweep_temp,
    "amax-curve": run_amax_curve,
    "theory-lines": run_theory_lines,
    "calibrate": run_calibrate,
    "dump-spectrum": run_dump_spectrum,
}


def _list_of(rule: Callable[[Any, str], Any], empty: bool = False):
    """The rule for a list, non-empty unless `empty`, whose items pass `rule`."""
    return lambda value, where: [rule(v, where) for v in listed(value, where, empty)]


def _or_null(rule: Callable[[Any, str], Any]):
    return lambda value, where: None if value is None else rule(value, where)


def _is(ok: Callable[[Any], bool], expected: str):
    """The rule for the values `ok` accepts."""
    def rule(value, where):
        if not ok(value):
            raise ConfigError(f"{where}: expected {expected}, got {value!r:.80}")
        return value
    return rule


def _config(value, where: str):
    """The rule for a config document: parse_scenario's, under `where`."""
    try:
        return parse_scenario(value)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


_STAGES = ("raw", "osa", "filtered")
_PAIR = _is(lambda v: isinstance(v, list) and len(v) == 2, "a [dt_c, centroid_shift_nm] pair")
# What each runner reads from `resolved`: key -> the rule its value must pass.
_RESOLVED: dict[str, dict[str, Callable[[Any, str], Any]]] = {
    "sweep-beta": {
        "config": _config, "beta_min_deg": angle, "beta_max_deg": angle, "step_deg": finite,
        "dt_c": _or_null(finite), "snr_min_db": _or_null(finite),
        "dump_spectra_deg": _list_of(angle, empty=True),
    },
    "sweep-temp": {"config": _config, "dt_list_c": _list_of(finite), "beta_deg": _or_null(angle)},
    "amax-curve": {"g_list": _list_of(finite), "beta_min_deg": angle, "beta_max_deg": angle,
                   "step_deg": finite},
    "theory-lines": {"a_list": _list_of(finite), "dt_list_c": _list_of(finite),
                     "kappa_nm_per_c": finite},
    "calibrate": {
        "input": _is(lambda v: isinstance(v, str), "a string"),
        "points": _list_of(lambda v, where: _list_of(finite)(_PAIR(v, where), where)),
    },
    "dump-spectrum": {"config": _config, "beta_deg": _or_null(angle), "dt_c": _or_null(finite),
                      "stage": _is(lambda v: v in _STAGES, f"one of {_STAGES}")},
}
# The keys of a beta sweep, and the flags that set them.
_SWEEP = {"beta_min_deg": "--beta-min", "beta_max_deg": "--beta-max", "step_deg": "--step"}


def _check_resolved(manifest_path, command: str, resolved: dict) -> Optional[Scenario]:
    """The scenario of `resolved`'s config, if the command reads one. The first
    key the runner reads that is missing or breaks its rule, or a sweep that
    breaks the sweep rule, raises ConfigError naming the manifest and key."""
    checked = {}
    try:
        for key, rule in _RESOLVED[command].items():
            if key not in resolved:
                raise ConfigError(f"resolved.{key}: missing, {command} reads it")
            checked[key] = rule(resolved[key], f"resolved.{key}")
        if "step_deg" in checked:
            sweep(*(resolved[k] for k in _SWEEP), [f"resolved.{k}" for k in _SWEEP])
    except ConfigError as exc:
        raise ConfigError(f"{manifest_path}: {exc}") from None
    return checked["config"].scenario if "config" in checked else None


def _execute(command: str, resolved: dict, out_dir: Path, seed: Optional[int],
             sc: Optional[Scenario]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = _RUNNERS[command](resolved, out_dir, sc)
    manifest = {
        "tool": "wva-sense",
        "version": __version__,
        "command": command,
        "created_utc": datetime.datetime.now(datetime.timezone.utc)
        .replace(microsecond=0)
        .isoformat(),
        "seed": seed,
        "resolved": resolved,
        "outputs": outputs,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def replay_manifest(manifest_path, out_dir) -> dict:
    """Re-run a recorded command; outputs are byte-identical to the original.

    A manifest that cannot be read, is not JSON, is not an object with
    `command` and `resolved`, or whose `resolved` lacks a key the command
    reads or holds a value the CLI would reject raises ConfigError naming
    its path.
    """
    try:
        with open(manifest_path) as f:
            manifest = json.load(f)
    except (OSError, ValueError) as exc:  # ValueError: JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"{manifest_path}: cannot read manifest: {exc}") from None
    if not (isinstance(manifest, dict) and isinstance(manifest.get("resolved"), dict)):
        raise ConfigError(f"{manifest_path}: a manifest is a JSON object with a "
                          "'resolved' object")
    command = manifest.get("command")
    if not (isinstance(command, str) and command in _RUNNERS):
        raise ConfigError(f"{manifest_path}: unknown command {command!r}")
    sc = _check_resolved(manifest_path, command, manifest["resolved"])
    _execute(command, manifest["resolved"], Path(out_dir), manifest.get("seed"), sc)
    return manifest


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wva-sense",
        description="Weak-value-amplified FBG temperature sensing: simulation, "
        "sweeps and calibration. Emits CSV data plus a replayable manifest.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, config_required=True):
        if config_required:
            sp.add_argument("--config", required=True, help="scenario JSON file")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--seed", type=_seed, default=None,
                        help="override the OSA noise seed")

    # Each flag's dest is its key in the manifest's `resolved` inputs.
    sp = sub.add_parser("sweep-beta", help="centroid shift vs post-selection angle")
    common(sp)
    sp.add_argument("--beta-min", dest="beta_min_deg", type=_angle, help="degrees")
    sp.add_argument("--beta-max", dest="beta_max_deg", type=_angle, help="degrees")
    sp.add_argument("--step", dest="step_deg", type=_finite, help="degrees")
    sp.add_argument("--dt", dest="dt_c", type=_finite,
                    help="t1 - t2 override for the whole sweep (degC)")
    sp.add_argument("--dump-spectra", dest="dump_spectra_deg", type=_float_list(_angle),
                    default=[], help="comma list of angles (deg) whose filtered spectra to "
                    "write (use --dump-spectra=-40,-25 for negative angles)")
    sp.add_argument("--snr-min", dest="snr_min_db", type=_finite,
                    help="annotate the largest |A| point with SNR above this floor "
                    "(dB); exits 4 when no angle qualifies")

    sp = sub.add_parser("sweep-temp", help="centroid shift vs temperature difference")
    common(sp)
    sp.add_argument("--dt", dest="dt_list_c", type=_float_list(),
                    help="dt values, 'a,b,c' or 'start:stop:step' (degC); "
                    "defaults to the config temperature plan")
    sp.add_argument("--beta", dest="beta_deg", type=_angle,
                    help="post-selection angle override (deg)")

    sp = sub.add_parser("amax-curve", help="amplification factor vs angle for each g")
    common(sp, config_required=False)
    sp.add_argument("--g", dest="g_list", type=_float_list(), required=True,
                    help="comma list of gamma*cos(delta) values")
    sp.add_argument("--beta-min", dest="beta_min_deg", type=_angle, default=-90.0, help="degrees")
    sp.add_argument("--beta-max", dest="beta_max_deg", type=_angle, default=0.0, help="degrees")
    sp.add_argument("--step", dest="step_deg", type=_finite, default=0.01, help="degrees")

    sp = sub.add_parser("theory-lines", help="first-order shift lines for fixed A")
    common(sp, config_required=False)
    sp.add_argument("--a", dest="a_list", type=_float_list(), required=True,
                    help="comma list of amplification factors")
    sp.add_argument("--dt", dest="dt_list_c", type=_float_list(), default="0:12:1",
                    help="'a,b,c' or 'start:stop:step' (degC)")
    sp.add_argument("--kappa", dest="kappa_nm_per_c", type=_finite, required=True,
                    help="nm per degC")

    sp = sub.add_parser("calibrate", help="least-squares fit of a measured CSV")
    common(sp, config_required=False)
    sp.add_argument("--input", required=True, help="CSV of dt_c,centroid_shift_nm rows")

    sp = sub.add_parser("dump-spectrum", help="write one simulated spectrum")
    common(sp)
    sp.add_argument("--beta", dest="beta_deg", type=_angle, help="angle override (deg)")
    sp.add_argument("--dt", dest="dt_c", type=_finite, help="t1 - t2 override (degC)")
    sp.add_argument("--stage", choices=_STAGES, default="filtered")

    return parser


def _resolve(args: argparse.Namespace) -> tuple[dict, Optional[Scenario]]:
    """The command's fully resolved inputs and its config scenario, if any.

    `args` holds the flags under their resolved keys; this adds what comes
    from files: the config and the defaults it gives, or calibration points."""
    resolved = {k: v for k, v in vars(args).items()
                if k not in ("command", "config", "out", "seed")}
    sc, names = None, dict(_SWEEP)
    if args.command == "calibrate":
        resolved["points"] = parse_calibration_csv(args.input)
    elif "config" in args:
        resolved["config"] = doc = read_config(args.config)
        if args.seed is not None and isinstance(doc, dict):
            if not isinstance(doc.get("osa"), dict):
                raise ConfigError("--seed: the config has no osa section to seed")
            doc["osa"]["seed"] = args.seed
        loaded = parse_scenario(doc)
        sc = loaded.scenario
        if args.command == "sweep-temp" and resolved["dt_list_c"] is None:
            resolved["dt_list_c"] = loaded.dt_list_c
        if args.command == "sweep-beta":
            spec = loaded.beta
            defaults = (spec.sweep_min_deg, spec.sweep_max_deg, spec.sweep_step_deg)
            for key, default in zip(_SWEEP, defaults):
                if resolved[key] is None:
                    resolved[key], names[key] = default, f"postselect.{key}"
            if any(resolved[key] is None for key in _SWEEP):
                raise ConfigError(
                    "sweep-beta needs --beta-min/--beta-max/--step or a config sweep spec"
                )
    if "step_deg" in resolved:
        sweep(*(resolved[k] for k in _SWEEP), [names[k] for k in _SWEEP])
    return resolved, sc


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        resolved, sc = _resolve(args)
        _execute(args.command, resolved, Path(args.out), args.seed, sc)
        return 0
    except WvaSenseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (ConfigError, SpectrumFormatError)):
            return 2
        # Every other domain error is numerical, detection limits aside.
        return 4 if isinstance(exc, DetectionLimitedError) else 3


if __name__ == "__main__":
    sys.exit(main())
