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
from .scenario import Scenario, SweepKernel, sweep_temperature
from .spectral import (SWEEP_KEYS, VALUE_FORMAT, Spectrum, inclusive_range, read_csv_rows,
                       trapezoid_power, write_rows, write_spectrum_csv)
from .wva import amplification_factor


def _fmt(x: float) -> str:
    return VALUE_FORMAT % x


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _number(text: str):
    """argparse type: the flag's text as a float, or the text itself when it
    is not a number, for the input's rule to reject."""
    try:
        return float(text)
    except ValueError:
        return text


def _numbers(text: str) -> list:
    """argparse type: 'a,b,c' or 'start:stop:step' (inclusive of stop within
    1e-9) as a list of at least one value, each value `_number`ed."""
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ValueError("range spec needs start:stop:step")
            return inclusive_range(*map(float, parts))
        values = [_number(p) for p in text.split(",") if p.strip() != ""]
        if not values:
            raise ValueError(f"expected at least one value, got {text!r}")
        return values
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


_dump_name = "spectrum_beta_{:+.2f}.csv".format  # the file of a dumped angle's spectrum


# ---------------------------------------------------------------------------
# Command implementations. Each takes the command's checked inputs, the output
# directory and the scenario it measures (None without a config; _check has
# applied --beta/--dt), writes its files and returns their paths, which
# _execute hashes into the manifest. Its docstring is the command's help.
# ---------------------------------------------------------------------------


def run_sweep_beta(inputs: dict, out_dir: Path, sc: Scenario) -> list[Path]:
    """centroid shift vs post-selection angle"""
    betas_deg = inclusive_range(inputs["beta_min_deg"], inputs["beta_max_deg"], inputs["step_deg"])
    # Rows stream from one kernel; no angle's spectra outlive its row.
    kernel = SweepKernel(sc)
    ref = kernel.reference()
    power_0 = trapezoid_power(kernel.raw(0.0), kernel.grid.spacing)
    if not power_0 > 0.0:
        raise NoSignalError("the beta = 0 reference power of total_power_rel is 0: "
                            "no signal reaches the detector at beta = 0")
    rows = []
    for beta_deg, (_, point) in zip(
        betas_deg, kernel.rows([math.radians(b) for b in betas_deg], ref), strict=True
    ):
        if point is None:
            print(f"skipping beta={beta_deg:.4g} deg: no signal at this angle",
                  file=sys.stderr)
            continue
        rows.append((beta_deg, point.centroid_nm_shift, point.a_effective,
                     point.raw_power / power_0, point.snr_db))

    footer = []
    if inputs["snr_min_db"] is not None:
        beta_deg, a, snr_db = best_usable(
            ((row[0], row[2], row[4]) for row in rows), inputs["snr_min_db"]
        )
        footer = [f"# max_usable: beta_deg={_fmt(beta_deg)} a={_fmt(a)} snr_db={_fmt(snr_db)}"]

    csv_path = out_dir / "sweep_beta.csv"
    header = ["beta_deg", "centroid_shift_nm", "a_effective", "total_power_rel", "snr_db"]
    write_rows(csv_path, header, rows, footer)
    written = [csv_path]

    for j, beta_deg in enumerate(inputs["dump_spectra_deg"]):
        trace = kernel.measure(kernel.raw(math.radians(beta_deg)), len(betas_deg) + 1 + j)
        written.append(out_dir / _dump_name(beta_deg))
        write_spectrum_csv(Spectrum(kernel.grid, kernel.filtered(trace)), written[-1])

    print(f"sweep-beta: {len(rows)} points -> {csv_path}")
    return written


def run_sweep_temp(inputs: dict, out_dir: Path, sc: Scenario) -> list[Path]:
    """centroid shift vs temperature difference"""
    dt_list = inputs["dt_list_c"]
    if len(dt_list) < 2 or len(set(dt_list)) < 2:
        raise DegenerateFitError("temperature sweep needs >= 2 distinct dt values")

    rows = [(dt, r.centroid_nm_shift) for dt, r in sweep_temperature(sc, dt_list)]

    # Fit on the values as written so the footer matches a later `calibrate`
    # run on this file exactly.
    written = [(float(_fmt(dt)), float(_fmt(shift))) for dt, shift in rows]
    fit = fit_sensitivity(written)
    footer = [
        f"# fit_slope_nm_per_c={_fmt(fit.slope_nm_per_c)}",
        f"# fit_intercept_nm={_fmt(fit.intercept_nm)}",
        f"# fit_residual_rms_nm={_fmt(fit.residual_rms_nm)}",
        f"# fit_n_points={_fmt(fit.n_points)}",
    ]
    csv_path = out_dir / "sweep_temp.csv"
    write_rows(csv_path, ["dt_c", "centroid_shift_nm"], rows, footer)
    print(f"sweep-temp: {len(rows)} points, slope "
          f"{fit.slope_nm_per_c:.6g} nm/degC -> {csv_path}")
    return [csv_path]


def run_amax_curve(inputs: dict, out_dir: Path, sc: Optional[Scenario]) -> list[Path]:
    """amplification factor vs angle for each g"""
    g_list = inputs["g_list"]
    betas_deg = inclusive_range(inputs["beta_min_deg"], inputs["beta_max_deg"], inputs["step_deg"])
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
    return [csv_path]


def run_theory_lines(inputs: dict, out_dir: Path, sc: Optional[Scenario]) -> list[Path]:
    """first-order shift lines for fixed A"""
    kappa = inputs["kappa_nm_per_c"]
    rows = [(dt, a, centroid_shift_model(dt, kappa, a))
            for a in inputs["a_list"] for dt in inputs["dt_list_c"]]
    csv_path = out_dir / "theory_lines.csv"
    write_rows(csv_path, ["dt_c", "a", "shift_nm"], rows)
    print(f"theory-lines: {len(rows)} rows -> {csv_path}")
    return [csv_path]


def parse_calibration_csv(path) -> list[tuple[float, float]]:
    """(dt_c, shift_nm) rows of a calibration CSV with header dt_c,centroid_shift_nm.

    The file rules are those of spectral.read_csv_rows, plus at least one
    data row; violations raise SpectrumFormatError naming the path and line.
    """
    points = [(x, y) for _, x, y in read_csv_rows(path, ("dt_c", "centroid_shift_nm"))]
    if not points:
        raise SpectrumFormatError(f"{path}: no data rows")
    return points


def run_calibrate(inputs: dict, out_dir: Path, sc: Optional[Scenario]) -> list[Path]:
    """least-squares fit of a measured CSV"""
    fit = fit_sensitivity(inputs["points"])
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
    return [json_path]


def run_dump_spectrum(inputs: dict, out_dir: Path, sc: Scenario) -> list[Path]:
    """write one simulated spectrum"""
    stage = inputs["stage"]
    kernel = SweepKernel(sc)
    samples = kernel.raw(sc.beta_rad)
    if stage != "raw":
        samples = kernel.measure(samples, 1)
    if stage == "filtered":
        samples = kernel.filtered(samples)
    csv_path = out_dir / "spectrum.csv"
    write_spectrum_csv(Spectrum(kernel.grid, samples), csv_path)
    print(f"dump-spectrum: {stage} spectrum -> {csv_path}")
    return [csv_path]


_RUNNERS: dict[str, Callable[[dict, Path, Optional[Scenario]], list[Path]]] = {
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


def _dump_angles(value, where: str) -> list[float]:
    """The rule for the angles sweep-beta dumps: no two share a file name."""
    angles, names = _list_of(angle, empty=True)(value, where), {}
    for beta_deg in angles:
        name = _dump_name(beta_deg)
        if name in names:
            raise ConfigError(f"{where}: angles {_fmt(names[name])} and "
                              f"{_fmt(beta_deg)} both write {name}")
        names[name] = beta_deg
    return angles


def _input(rule: Callable[[Any, str], Any], flag: Optional[str] = None,
           type: Optional[Callable[[str], Any]] = _number, **options) -> tuple:
    """A command input: the rule its value must pass and, if a flag sets it,
    the flag and its add_argument options."""
    return rule, flag, {"type": type, **options}


_STAGES = ("raw", "osa", "filtered")
_PAIR = _is(lambda v: isinstance(v, list) and len(v) == 2, "a [dt_c, centroid_shift_nm] pair")
_G = _is(lambda g: abs(g) < 1.0, "|g| < 1")
# What each runner reads from `resolved`, declared once: key -> _input. The
# keys no flag sets are read from files: the config, or calibrate's CSV.
_INPUTS: dict[str, dict[str, tuple]] = {
    "sweep-beta": {
        "config": _input(_config),
        "beta_min_deg": _input(angle, "--beta-min", help="degrees"),
        "beta_max_deg": _input(angle, "--beta-max", help="degrees"),
        "step_deg": _input(finite, "--step", help="degrees"),
        "dt_c": _input(_or_null(finite), "--dt",
                       help="t1 - t2 override for the whole sweep (degC)"),
        "dump_spectra_deg": _input(_dump_angles, "--dump-spectra", _numbers, default=[],
                                   help="comma list of angles (deg) whose filtered spectra to "
                                   "write (use --dump-spectra=-40,-25 for negative angles)"),
        "snr_min_db": _input(_or_null(finite), "--snr-min", help="annotate the largest |A| point "
                             "with SNR above this floor (dB); exits 4 when no angle qualifies"),
    },
    "sweep-temp": {
        "config": _input(_config),
        "dt_list_c": _input(_list_of(finite), "--dt", _numbers, help="dt values, 'a,b,c' or "
                            "'start:stop:step' (degC); defaults to the config temperature plan"),
        "beta_deg": _input(_or_null(angle), "--beta", help="post-selection angle override (deg)"),
    },
    "amax-curve": {
        "g_list": _input(_list_of(lambda g, where: _G(finite(g, where), where)), "--g", _numbers,
                         required=True, help="comma list of gamma*cos(delta) values"),
        "beta_min_deg": _input(angle, "--beta-min", default=-90.0, help="degrees"),
        "beta_max_deg": _input(angle, "--beta-max", default=0.0, help="degrees"),
        "step_deg": _input(finite, "--step", default=0.01, help="degrees"),
    },
    "theory-lines": {
        "a_list": _input(_list_of(finite), "--a", _numbers, required=True,
                         help="comma list of amplification factors"),
        "dt_list_c": _input(_list_of(finite), "--dt", _numbers, default="0:12:1",
                            help="'a,b,c' or 'start:stop:step' (degC)"),
        "kappa_nm_per_c": _input(finite, "--kappa", required=True, help="nm per degC"),
    },
    "calibrate": {
        "input": _input(_is(lambda v: isinstance(v, str), "a string"), "--input", None,
                        required=True, help="CSV of dt_c,centroid_shift_nm rows"),
        "points": _input(_list_of(lambda v, where: _list_of(finite)(_PAIR(v, where), where))),
    },
    "dump-spectrum": {
        "config": _input(_config),
        "beta_deg": _input(_or_null(angle), "--beta", help="angle override (deg)"),
        "dt_c": _input(_or_null(finite), "--dt", help="t1 - t2 override (degC)"),
        "stage": _input(_is(lambda v: v in _STAGES, f"one of {_STAGES}"), "--stage", None,
                        choices=_STAGES, default="filtered"),
    },
}


def _check(command: str, resolved: dict, name: Callable[[str], str],
           checked: dict) -> tuple[dict, Optional[Scenario]]:
    """The command's checked inputs and its config's scenario, if it reads one,
    with the beta_deg/dt_c overrides applied. Each key it reads must be in
    `resolved` and pass its rule (keys in `checked` passed where they were
    read), and a beta sweep the sweep rule; a failure raises ConfigError naming
    the key as `name(key)`, a flag bare (`--step`) in a sweep message."""
    for key, (rule, _, _) in _INPUTS[command].items():
        if key not in checked:
            if key not in resolved:
                raise ConfigError(f"{name(key)}: missing, {command} reads it")
            checked[key] = rule(resolved[key], name(key))
    if "step_deg" in checked:
        sweep(*(checked[k] for k in SWEEP_KEYS),
              [name(k).removeprefix("argument ") for k in SWEEP_KEYS])
    sc = checked["config"].scenario if "config" in checked else None
    if checked.get("beta_deg") is not None:
        sc = replace(sc, beta_rad=math.radians(checked["beta_deg"]))
    if checked.get("dt_c") is not None:
        sc = replace(sc, t1_c=sc.t2_c + checked["dt_c"])
    return checked, sc


def _execute(command: str, resolved: dict, checked: dict, sc: Optional[Scenario],
             out_dir: Path, seed: Optional[int]) -> None:
    """Run the command into out_dir and write its manifest: `resolved` as
    given, and the SHA-256 of each file the runner wrote. A run that fails
    removes the files it created, then each directory this call made, out_dir
    and its new parents, that is empty; a file it cannot write raises
    ConfigError naming the file."""
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]  # deepest first
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{out_dir}: cannot make the output directory: "
                          f"{exc.strerror}") from None
    before = set(out_dir.iterdir())
    try:
        written = _RUNNERS[command](checked, out_dir, sc)
        manifest = {
            "tool": "wva-sense",
            "version": __version__,
            "command": command,
            "created_utc": datetime.datetime.now(datetime.timezone.utc)
            .replace(microsecond=0)
            .isoformat(),
            "seed": seed,
            "resolved": resolved,
            "outputs": {path.name: _sha256(path) for path in written},
        }
        (out_dir / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
    except (WvaSenseError, OSError) as exc:
        for path in set(out_dir.iterdir()) - before:
            if path.is_file():
                path.unlink()
        for d in made:
            if not any(d.iterdir()):
                d.rmdir()
        if isinstance(exc, OSError):
            raise ConfigError(f"{exc.filename or out_dir}: cannot write: "
                              f"{exc.strerror}") from None
        raise


def replay_manifest(manifest_path, out_dir) -> dict:
    """Re-run a recorded command; outputs are byte-identical to the original.

    A manifest that cannot be read, is not JSON, is not an object with
    `command` and `resolved`, whose `resolved` lacks a key the command reads,
    holds a key it does not read or a value the CLI would reject, or whose
    `seed` is neither null nor a non-negative integer, is not null for a
    command that reads no config or differs from the config's osa.seed (the
    seed the noise is drawn with), raises ConfigError naming its path.
    """
    try:
        with open(manifest_path) as f:
            manifest = json.load(f)
    except (OSError, ValueError) as exc:  # ValueError: JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"{manifest_path}: cannot read manifest: {exc}") from None
    if not (isinstance(manifest, dict) and isinstance(manifest.get("resolved"), dict)):
        raise ConfigError(f"{manifest_path}: a manifest is a JSON object with a "
                          "'resolved' object")
    command, resolved, seed = manifest.get("command"), manifest["resolved"], manifest.get("seed")
    if not (isinstance(command, str) and command in _RUNNERS):
        raise ConfigError(f"{manifest_path}: unknown command {command!r}")
    try:
        for key in resolved:
            if key not in _INPUTS[command]:
                raise ConfigError(f"resolved.{key}: unknown key, {command} does not read it")
        if seed is not None:
            count(seed, "seed")
            if "config" not in _INPUTS[command]:  # only a config's OSA draws noise
                raise ConfigError(f"seed: expected null, {command} draws no noise, "
                                  f"got {seed!r}")
        checked, sc = _check(command, resolved, lambda key: f"resolved.{key}", {})
        if seed is not None and seed != sc.osa.seed:
            raise ConfigError(f"seed: {seed!r} differs from resolved.config.osa.seed, "
                              f"{sc.osa.seed!r}, which replay draws noise with")
    except ConfigError as exc:
        raise ConfigError(f"{manifest_path}: {exc}") from None
    _execute(command, resolved, checked, sc, Path(out_dir), seed)
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
    parser.set_defaults(seed=None)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, inputs in _INPUTS.items():
        sp = sub.add_parser(command, help=_RUNNERS[command].__doc__)
        if "config" in inputs:  # only a config's OSA draws noise to seed
            sp.add_argument("--config", required=True, help="scenario JSON file")
            sp.add_argument("--seed", type=int, help="override the OSA noise seed")
        sp.add_argument("--out", default=".", help="output directory")
        # Each flag's dest is its key in the manifest's `resolved` inputs.
        for key, (_, flag, options) in inputs.items():
            if flag is not None:
                sp.add_argument(flag, dest=key, **options)
    return parser


def _resolve(args: argparse.Namespace) -> tuple[dict, dict, Optional[Scenario]]:
    """The command's resolved inputs, checked inputs and scenario (see _check):
    the flags under their resolved keys, plus what files give (the config and
    its defaults, or calibration points), checked where read."""
    inputs = _INPUTS[args.command]
    names = {key: f"argument {flag}" for key, (_, flag, _) in inputs.items() if flag}
    resolved = {key: getattr(args, key) for key in names}
    checked: dict[str, Any] = {}
    if args.seed is not None:
        count(args.seed, "argument --seed")
    if args.command == "calibrate":
        resolved["points"] = checked["points"] = parse_calibration_csv(args.input)
    elif "config" in inputs:
        resolved["config"] = doc = read_config(args.config)
        if args.seed is not None and isinstance(doc, dict):
            if not isinstance(doc.get("osa"), dict):
                raise ConfigError("--seed: the config has no osa section to seed")
            doc["osa"]["seed"] = args.seed
        checked["config"] = loaded = parse_scenario(doc)
        if args.command == "sweep-temp" and resolved["dt_list_c"] is None:
            resolved["dt_list_c"] = loaded.dt_list_c
        if args.command == "sweep-beta":
            spec = loaded.beta
            defaults = (spec.sweep_min_deg, spec.sweep_max_deg, spec.sweep_step_deg)
            for key, default in zip(SWEEP_KEYS, defaults):
                if resolved[key] is None:
                    resolved[key], names[key] = default, f"postselect.{key}"
            if any(resolved[key] is None for key in SWEEP_KEYS):
                raise ConfigError("sweep-beta needs --beta-min/--beta-max/--step or a "
                                  "config sweep spec")
    return (resolved, *_check(args.command, resolved, names.__getitem__, checked))


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        resolved, checked, sc = _resolve(args)
        _execute(args.command, resolved, checked, sc, Path(args.out), args.seed)
        return 0
    except WvaSenseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (ConfigError, SpectrumFormatError)):
            return 2
        # Every other domain error is numerical, detection limits aside.
        return 4 if isinstance(exc, DetectionLimitedError) else 3


if __name__ == "__main__":
    sys.exit(main())
