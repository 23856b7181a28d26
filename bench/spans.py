"""Span tracing of the wva_sense layers, installed from outside the package.

Each public function of a layer module, plus the grid, spectrum and field
methods that run several times per sweep point, is replaced by a wrapper that
records a span: name, start, end and parent. Every reference to an original
is swapped, in each wva_sense module namespace and in module-level dicts such
as the CLI's runner table, so calls through imported names are traced too.
Nothing in the package is edited; `uninstall` puts the originals back.

Spans are kept in memory for one pass and reduced by `profile` afterwards: a
span's self time is its duration minus the time its child spans cover, and a
layer's self time is the sum over its spans. Pass wall time minus the
top-level spans is the unattributed time (the benchmark's own loop), so layer
self times plus unattributed time add up to the traced wall time.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time
from typing import Callable, Optional

LAYERS = ("config", "fbg", "wva", "scenario", "osa", "spectral", "cli")

# Methods traced besides module-level functions: they run several times per
# sweep point and carry the regridding and validation costs.
METHODS = {
    "spectral": (("FrequencyGrid", "frequencies"), ("Spectrum", "__post_init__")),
    "wva": (("PolarizedFieldSpectrum", "__post_init__"),),
}

# Gaussian RBW kernel truncation used by the OSA model (+-7 sigma); the
# convolution counters are computed from it, not measured.
_KERNEL_SIGMAS = 7.0
_MAX_USABLE = "osa.max_usable_amplification"


class Tracer:
    """In-memory spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.raised: list[tuple[str, BaseException]] = []
        self.snr_floor_db: Optional[float] = None

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def count(self, key: str, n: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + n

    def record_error(self, layer: str, exc: BaseException) -> None:
        # One exception passing out of several functions of a layer counts once.
        if not any(l == layer and e is exc for l, e in self.raised):
            self.raised.append((layer, exc))

    def inside(self, name: str) -> bool:
        return any(self.names[i] == name for i in self.stack)


# ---------------------------------------------------------------------------
# Counters taken at the layer boundary (run after the span closes).
# ---------------------------------------------------------------------------


def _arg(args: tuple, kwargs: dict, pos: int, name: str, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _after_osa_trace(tr: Tracer, args: tuple, kwargs: dict, result) -> None:
    s, p = _arg(args, kwargs, 0, "s"), _arg(args, kwargs, 1, "p")
    units = _arg(args, kwargs, 2, "units") or sys.modules["wva_sense.spectral"].UnitContext()
    if p.rbw_nm <= 0.0:
        return
    rbw_thz = abs(units.nm_shift_to_frequency(p.rbw_nm))
    sigma = rbw_thz / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    taps = 2 * max(1, int(math.ceil(_KERNEL_SIGMAS * sigma / s.grid.spacing))) + 1
    n = s.grid.n_points
    tr.count("osa.conv_macs", n * taps)
    tr.count("osa.conv_bytes", 8 * (2 * n + taps))  # read samples + kernel, write trace


def _before_max_usable(tr: Tracer, args: tuple, kwargs: dict) -> None:
    tr.snr_floor_db = _arg(args, kwargs, 1, "snr_min_db")


def _after_snr_estimate(tr: Tracer, args: tuple, kwargs: dict, result) -> None:
    if tr.snr_floor_db is not None and tr.inside(_MAX_USABLE):
        tr.count("osa.snr_tried")
        if result.snr_db >= tr.snr_floor_db:
            tr.count("osa.snr_passed")


def _after_sweep_beta(tr: Tracer, args: tuple, kwargs: dict, result) -> None:
    tr.count("scenario.skipped_points", sum(1 for _, r in result if r is None))


def _after_csv_write(tr: Tracer, args: tuple, kwargs: dict, result) -> None:
    tr.count("spectral.csv_write_bytes", os.path.getsize(_arg(args, kwargs, 1, "path")))


def _after_csv_read(tr: Tracer, args: tuple, kwargs: dict, result) -> None:
    tr.count("spectral.csv_read_bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _dir_bytes(path) -> int:
    with os.scandir(path) as it:
        return sum(e.stat().st_size for e in it if e.is_file())


def _after_main(tr: Tracer, args: tuple, kwargs: dict, result) -> None:
    argv = _arg(args, kwargs, 0, "argv") or []
    out = argv[argv.index("--out") + 1] if "--out" in argv else "."
    tr.count("cli.bytes_written", _dir_bytes(out))


def _after_replay(tr: Tracer, args: tuple, kwargs: dict, result) -> None:
    tr.count("cli.bytes_written", _dir_bytes(_arg(args, kwargs, 1, "out_dir")))


_BEFORE: dict[str, Callable] = {_MAX_USABLE: _before_max_usable}
_AFTER: dict[str, Callable] = {
    "osa.osa_trace": _after_osa_trace,
    "osa.snr_estimate": _after_snr_estimate,
    "scenario.sweep_beta": _after_sweep_beta,
    "spectral.write_spectrum_csv": _after_csv_write,
    "spectral.read_spectrum_csv": _after_csv_read,
    "cli.main": _after_main,
    "cli.replay_manifest": _after_replay,
}


# ---------------------------------------------------------------------------
# Installing and removing the wrappers
# ---------------------------------------------------------------------------


def _wrap(tr: Tracer, name: str, fn: Callable) -> Callable:
    layer = name.split(".", 1)[0]
    before, after = _BEFORE.get(name), _AFTER.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if before is not None:
            before(tr, args, kwargs)
        idx = tr.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tr.close(idx)
            tr.record_error(layer, exc)
            raise
        tr.close(idx)
        if after is not None:
            after(tr, args, kwargs, result)
        return result

    return traced


def _targets() -> list[tuple[str, object, str, Callable]]:
    """(span name, owner, attribute, original) for every traced callable."""
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"wva_sense.{layer}"]
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                out.append((f"{layer}.{attr}", mod, attr, obj))
        for cls_name, meth in METHODS.get(layer, ()):
            cls = getattr(mod, cls_name)
            out.append((f"{layer}.{cls_name}.{meth}", cls, meth, cls.__dict__[meth]))
    return out


def _namespaces() -> list[dict]:
    spaces = [vars(m) for n, m in list(sys.modules.items())
              if n == "wva_sense" or n.startswith("wva_sense.")]
    # Module-level tables of functions, e.g. the CLI's command -> runner map.
    spaces += [v for ns in list(spaces) for v in ns.values()
               if isinstance(v, dict) and v is not ns]
    return spaces


def _swap(mapping: dict[int, tuple[Callable, Callable]]) -> None:
    """Replace references: mapping is id(current) -> (replacement, current)."""
    for ns in _namespaces():
        for key, value in list(ns.items()):
            if callable(value) and id(value) in mapping:
                new, old = mapping[id(value)]
                if value is old:
                    ns[key] = new


def install(tr: Tracer) -> Callable[[], None]:
    """Wrap every layer function with spans recorded into `tr`.

    Returns a function that restores the originals.
    """
    targets = _targets()
    wrapped = {id(orig): (_wrap(tr, name, orig), orig) for name, _, _, orig in targets}
    for name, owner, attr, orig in targets:
        if isinstance(owner, type):
            setattr(owner, attr, wrapped[id(orig)][0])
    _swap(wrapped)

    def uninstall() -> None:
        back = {id(new): (orig, new) for new, orig in wrapped.values()}
        for name, owner, attr, orig in targets:
            if isinstance(owner, type):
                setattr(owner, attr, orig)
        _swap(back)

    return uninstall


# ---------------------------------------------------------------------------
# Reducing the spans of one pass
# ---------------------------------------------------------------------------


def profile(tr: Tracer, wall_s: float) -> dict:
    """Per-layer and per-function totals of one traced pass."""
    n = len(tr.names)
    layer_of = [name.split(".", 1)[0] for name in tr.names]
    dur = [tr.ends[i] - tr.starts[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if tr.parents[i] >= 0:
            child[tr.parents[i]] += dur[i]

    layer_calls = {layer: 0 for layer in LAYERS}
    layer_self = {layer: 0.0 for layer in LAYERS}
    layer_incl = {layer: 0.0 for layer in LAYERS}
    fn_calls: dict[str, int] = {}
    fn_incl: dict[str, float] = {}
    fn_self: dict[str, float] = {}
    top = 0.0
    for i in range(n):
        name, layer, p = tr.names[i], layer_of[i], tr.parents[i]
        self_s = dur[i] - child[i]
        layer_calls[layer] += 1
        layer_self[layer] += self_s
        fn_calls[name] = fn_calls.get(name, 0) + 1
        fn_self[name] = fn_self.get(name, 0.0) + self_s
        if p < 0 or tr.names[p] != name:
            fn_incl[name] = fn_incl.get(name, 0.0) + dur[i]
        if p < 0 or layer_of[p] != layer:
            layer_incl[layer] += dur[i]
        if p < 0:
            top += dur[i]

    errors = {layer: 0 for layer in LAYERS}
    for layer, _ in tr.raised:
        errors[layer] += 1
    return {
        "wall_s": wall_s,
        "unattributed_s": wall_s - top,
        "layer_calls": layer_calls,
        "layer_self": layer_self,
        "layer_incl": layer_incl,
        "layer_errors": errors,
        "fn_calls": fn_calls,
        "fn_incl": fn_incl,
        "fn_self": fn_self,
        "counters": dict(tr.counters),
        "n_spans": n,
    }


def _fn(prof: dict, name: str, kind: str):
    calls = prof["fn_calls"].get(name, 0)
    if not calls:
        return None
    return calls if kind == "calls" else prof["fn_incl"][name]


def layer_metrics(prof: dict, points: int) -> dict[str, tuple[Optional[float], str]]:
    """Named per-layer metrics of one traced pass: name -> (value, unit).

    The value is None (printed as n/a) where the function or layer behind
    the metric was not called in the pass. `*_s` times of a named function
    are inclusive of its children; `<layer>.self_s` is the layer's self time.
    """
    c = prof["counters"]
    field_calls = _fn(prof, "scenario.scenario_field", "calls")
    osa_traced = _fn(prof, "osa.osa_trace", "calls")
    tried = c.get("osa.snr_tried", 0.0)
    runners = [n for n in prof["fn_calls"] if n.startswith("cli.run_")]
    csv_w = _fn(prof, "spectral.write_spectrum_csv", "calls")
    csv_r = _fn(prof, "spectral.read_spectrum_csv", "calls")
    main_calls = (prof["fn_calls"].get("cli.main", 0)
                  + prof["fn_calls"].get("cli.replay_manifest", 0))
    parses = _fn(prof, "config.parse_scenario", "calls")
    m: dict[str, tuple[Optional[float], str]] = {
        "scenario.field_calls": (field_calls, "count"),
        "scenario.field_s": (_fn(prof, "scenario.scenario_field", "s"), "s"),
        "scenario.field_per_point": (
            None if field_calls is None else field_calls / points, "calls/point"),
        "fbg.reflect_calls": (_fn(prof, "fbg.reflect", "calls"), "count"),
        "fbg.reflect_s": (_fn(prof, "fbg.reflect", "s"), "s"),
        "wva.post_select_calls": (_fn(prof, "wva.post_select", "calls"), "count"),
        "wva.post_select_s": (_fn(prof, "wva.post_select", "s"), "s"),
        "spectral.regrid_calls": (_fn(prof, "spectral.FrequencyGrid.frequencies", "calls"), "count"),
        "spectral.regrid_s": (_fn(prof, "spectral.FrequencyGrid.frequencies", "s"), "s"),
        "spectral.spectrum_builds": (_fn(prof, "spectral.Spectrum.__post_init__", "calls"), "count"),
        "spectral.validate_s": (_fn(prof, "spectral.Spectrum.__post_init__", "s"), "s"),
        "osa.trace_calls": (osa_traced, "count"),
        "osa.trace_s": (_fn(prof, "osa.osa_trace", "s"), "s"),
        "osa.sub_seed_s": (_fn(prof, "osa.sub_seed", "s"), "s"),
        "osa.conv_macs": (None if osa_traced is None else c.get("osa.conv_macs", 0.0), "MAC"),
        "osa.conv_bytes": (None if osa_traced is None else c.get("osa.conv_bytes", 0.0), "bytes"),
        "osa.max_usable_s": (_fn(prof, _MAX_USABLE, "s"), "s"),
        "osa.snr_pass_ratio": (c.get("osa.snr_passed", 0.0) / tried if tried else None, "ratio"),
        "scenario.filter_s": (_fn(prof, "scenario.apply_scenario_filter", "s"), "s"),
        "scenario.reference_s": (_fn(prof, "scenario.reference_centroid", "s"), "s"),
        "scenario.skipped_points": (
            None if _fn(prof, "scenario.sweep_beta", "calls") is None
            else c.get("scenario.skipped_points", 0.0), "count"),
        "spectral.centroid_s": (_fn(prof, "spectral.centroid", "s"), "s"),
        "spectral.csv_write_s": (_fn(prof, "spectral.write_spectrum_csv", "s"), "s"),
        "spectral.csv_write_bytes": (
            None if csv_w is None else c.get("spectral.csv_write_bytes", 0.0), "bytes"),
        "spectral.csv_read_s": (_fn(prof, "spectral.read_spectrum_csv", "s"), "s"),
        "spectral.csv_read_bytes": (
            None if csv_r is None else c.get("spectral.csv_read_bytes", 0.0), "bytes"),
        "cli.runner_self_s": (
            sum(prof["fn_self"][n] for n in runners) if runners else None, "s"),
        "cli.bytes_written": (
            c.get("cli.bytes_written", 0.0) if main_calls else None, "bytes"),
        "config.parse_calls": (parses, "count"),
        "config.parse_s": (
            prof["layer_incl"]["config"] if prof["layer_calls"]["config"] else None, "s"),
    }
    for layer in LAYERS:
        called = prof["layer_calls"][layer] > 0
        m[f"{layer}.calls"] = (prof["layer_calls"][layer] if called else None, "count")
        m[f"{layer}.self_s"] = (prof["layer_self"][layer] if called else None, "s")
        m[f"{layer}.errors"] = (prof["layer_errors"][layer] if called else None, "count")
    m["trace.unattributed_s"] = (prof["unattributed_s"], "s")
    return m
