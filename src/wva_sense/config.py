"""Scenario JSON schema: strict loading with field-path error messages.

Every numeric field name carries its unit suffix. Unknown keys are rejected
so typos cannot silently fall back to defaults. Quantities may be given in
the reporting units (nm, fs-era pulse durations in ps) or directly in THz;
exactly one spelling per quantity is allowed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Any, Callable, Mapping, Optional, Sequence

from .errors import ConfigError
from .fbg import FbgParams, SideLobe, bandwidth_b_from_fwhm_nm
from .osa import OsaParams
from .scenario import FilterSettings, GridSettings, Scenario, SourceParams
from .spectral import (SPEED_OF_LIGHT_NM_THZ, UnitContext, frequency_to_wavelength,
                       inclusive_range, wavelength_to_frequency)
from .wva import pulse_bandwidth


def _check_keys(section: Mapping[str, Any], allowed: set[str], path: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{path}: unknown key {key!r}")


def _section(doc: Mapping[str, Any], path: str, required: bool = True):
    """The object under the last dotted part of `path` in doc; None if absent and not required."""
    value = doc.get(path.rpartition(".")[2])
    if value is None:
        if required:
            raise ConfigError(f"missing required section {path!r}")
        return None
    return _object(value, path)


# One rule per kind of input value: each returns the value checked (a number
# as a float) or raises ConfigError naming `where`. The CLI applies the same
# rules to its flags and to the `resolved` inputs of a replayed manifest.


def _is(ok: Callable[[Any], bool], expected: str):
    """The rule for the values `ok` accepts, each returned unchanged; any
    other raises `<where>: expected <expected>, got <value>`."""
    def rule(value, where):
        if not ok(value):
            raise ConfigError(f"{where}: expected {expected}, got {value!r:.80}")
        return value
    return rule


_object = _is(lambda v: isinstance(v, Mapping), "an object")


def finite(value: Any, where: str) -> float:
    """A number, not a boolean, that is finite as a float."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            raise ConfigError(f"{where}: expected a finite number, got an integer too "
                              "large for a float") from None
        if math.isfinite(number):
            return number
    raise ConfigError(f"{where}: expected a finite number, got {value!r:.80}")


def angle(value: Any, where: str) -> float:
    """A finite angle in degrees within [-90, 90]."""
    number = finite(value, where)
    if not -90.0 <= number <= 90.0:
        raise ConfigError(f"{where}: expected an angle in [-90, 90] deg, got {value!r}")
    return number


def count(value: Any, where: str) -> int:
    """A non-negative integer, not a boolean."""
    return _is(lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 0,
               "a non-negative integer")(value, where)


def listed(value: Any, where: str, empty: bool = False) -> list:
    """A list, non-empty unless `empty`; the caller checks its items."""
    return _is(lambda v: isinstance(v, list) and bool(v or empty),
               f"a {'' if empty else 'non-empty '}list")(value, where)


SWEEP_KEYS = ("beta_min_deg", "beta_max_deg", "step_deg")  # a beta sweep: first, last, step


def sweep(lo: float, hi: float, step: float, names: Sequence[str]) -> int:
    """The beta sweep rule over finite bounds: step > 0, hi > lo, and at most
    MAX_RANGE_POINTS points as inclusive_range counts them. Returns the number
    of points; a ConfigError names the field that breaks the rule by `names`,
    the SWEEP_KEYS as they entered."""
    if not step > 0:
        raise ConfigError(f"{names[2]}: must be > 0, got {step!r}")
    if not hi > lo:
        raise ConfigError(f"{names[1]} must exceed {names[0]}")
    try:
        return len(inclusive_range(lo, hi, step))
    except ValueError as exc:
        raise ConfigError(f"{names[2]}: {exc}") from None


def _number(section: Mapping[str, Any], key: str, path: str, default=None) -> float:
    value = section.get(key, default)
    if value is None:
        raise ConfigError(f"{path}.{key}: required numeric field missing")
    return finite(value, f"{path}.{key}")


def _exactly_one(section: Mapping[str, Any], keys: tuple[str, ...], path: str) -> str:
    present = [k for k in keys if k in section]
    if len(present) != 1:
        raise ConfigError(f"{path}: give exactly one of {', '.join(keys)}")
    return present[0]


# Wavelengths a config may give, 1 nm to 1 mm, and the same band in THz. In
# it lambda^2, c/lambda and 1/lambda^2 are finite and nonzero with hundreds
# of decades to spare, so the nm <-> THz conversions cannot overflow.
WAVELENGTH_BAND_NM = (1.0, 1e6)
_BAND_THZ = (SPEED_OF_LIGHT_NM_THZ / WAVELENGTH_BAND_NM[1],
             SPEED_OF_LIGHT_NM_THZ / WAVELENGTH_BAND_NM[0])


def _in_band(value: float, where: str) -> float:
    """value, a wavelength in nm or, for a *_thz field, a frequency in THz,
    checked against WAVELENGTH_BAND_NM."""
    unit = "THz" if where.endswith("_thz") else "nm"
    lo, hi = _BAND_THZ if unit == "THz" else WAVELENGTH_BAND_NM
    if not lo <= value <= hi:
        raise ConfigError(f"{where}: wavelength must lie in [{WAVELENGTH_BAND_NM[0]:g}, "
                          f"{WAVELENGTH_BAND_NM[1]:g}] nm ([{lo:.9g}, {hi:.9g}] THz), "
                          f"got {value!r} {unit}")
    return value


def _center_thz(section: Mapping[str, Any], path: str) -> float:
    key = _exactly_one(section, ("center_nm", "center_thz"), path)
    value = _in_band(_number(section, key, path), f"{path}.{key}")
    return wavelength_to_frequency(value) if key == "center_nm" else value


def _width_thz(section: Mapping[str, Any], keys: tuple, path: str, center_thz: float) -> float:
    """A lobe's power 1/e half-width B (THz) from the one of `keys` given: a
    pulse_fwhm_ps, a fwhm_nm at center_thz, or B itself as a *_thz key."""
    key = _exactly_one(section, keys, path)
    value = _number(section, key, path)
    if value <= 0:
        raise ConfigError(f"{path}.{key}: must be > 0")
    if key == "pulse_fwhm_ps":
        return pulse_bandwidth(value)
    if key == "fwhm_nm":
        return bandwidth_b_from_fwhm_nm(value, frequency_to_wavelength(center_thz))
    return value


def _build(cls, path: str, /, **kwargs):
    """cls(**kwargs), its ValueError raised as a ConfigError naming `path`."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_source(section: Mapping[str, Any]) -> SourceParams:
    _check_keys(
        section,
        {"center_nm", "center_thz", "pulse_fwhm_ps", "bandwidth_thz", "fwhm_nm", "amplitude"},
        "source",
    )
    nu0 = _center_thz(section, "source")
    b = _width_thz(section, ("pulse_fwhm_ps", "bandwidth_thz", "fwhm_nm"), "source", nu0)
    amplitude = _number(section, "amplitude", "source", default=1.0)
    return _build(SourceParams, "source", nu0_thz=nu0, b_thz=b, amplitude=amplitude)


def _parse_side_lobe(section: Mapping[str, Any], path: str, main_b: float) -> SideLobe:
    _check_keys(section, {"offset_thz", "rel_amplitude", "width_thz"}, path)
    return _build(SideLobe, path,
                  offset_thz=_number(section, "offset_thz", path),
                  rel_amplitude=_number(section, "rel_amplitude", path),
                  width_thz=_number(section, "width_thz", path, default=main_b))


def _parse_fbg(section: Mapping[str, Any], path: str) -> FbgParams:
    _check_keys(
        section,
        {"center_nm", "center_thz", "kappa_nm_per_c", "fwhm_nm", "bandwidth_b_thz",
         "efficiency", "side_lobe"},
        path,
    )
    center = _center_thz(section, path)
    b = _width_thz(section, ("fwhm_nm", "bandwidth_b_thz"), path, center)
    # The side lobe is checked before kappa_nm_per_c and efficiency.
    side = _section(section, f"{path}.side_lobe", required=False)
    side_lobe = None if side is None else _parse_side_lobe(side, f"{path}.side_lobe", b)
    return _build(FbgParams, path,
                  center_ref_thz=center,
                  kappa_nm_per_c=_number(section, "kappa_nm_per_c", path),
                  bandwidth_b_thz=b,
                  reflect_efficiency=_number(section, "efficiency", path, default=1.0),
                  side_lobe=side_lobe)


def _parse_settings(cls, section: Mapping[str, Any], path: str):
    """A settings dataclass from its config section, keyed by the field names.

    A field with a bool default takes true/false, one with an int default a
    non-negative integer, any other a finite number; null keeps the default.
    """
    defaults = {f.name: f.default for f in fields(cls)}
    _check_keys(section, set(defaults), path)
    kwargs = {key: value for key, value in section.items() if value is not None}
    for key, value in kwargs.items():
        default = defaults[key]
        if isinstance(default, bool):
            _is(lambda v: isinstance(v, bool), "true/false")(value, f"{path}.{key}")
        elif isinstance(default, int):
            count(value, f"{path}.{key}")
        else:
            kwargs[key] = finite(value, f"{path}.{key}")
    return _build(cls, path, **kwargs)


@dataclass(frozen=True)
class BetaSpec:
    """The config's beta sweep range, the defaults of sweep-beta; None without one."""

    sweep_min_deg: Optional[float] = None
    sweep_max_deg: Optional[float] = None
    sweep_step_deg: Optional[float] = None


def _parse_postselect(section: Mapping[str, Any]) -> tuple[float, BetaSpec]:
    """The operating angle (rad) and the sweep range of a postselect section."""
    _check_keys(section, {"beta_deg", *SWEEP_KEYS}, "postselect")
    has_sweep = any(k in section for k in SWEEP_KEYS)
    if has_sweep and not all(k in section for k in SWEEP_KEYS):
        raise ConfigError("postselect: sweep spec needs beta_min_deg, beta_max_deg and step_deg")
    if "beta_deg" not in section and not has_sweep:
        raise ConfigError("postselect: give beta_deg or a sweep spec")
    if not has_sweep:
        return math.radians(angle(section["beta_deg"], "postselect.beta_deg")), BetaSpec()
    names = [f"postselect.{k}" for k in SWEEP_KEYS]
    lo, hi = angle(section["beta_min_deg"], names[0]), angle(section["beta_max_deg"], names[1])
    step = finite(section["step_deg"], names[2])
    sweep(lo, hi, step, names)
    beta_deg = angle(section.get("beta_deg", lo), "postselect.beta_deg")
    return math.radians(beta_deg), BetaSpec(lo, hi, step)


@dataclass(frozen=True)
class LoadedScenario:
    """Scenario at the first configured temperature plus the full dt plan."""

    scenario: Scenario
    dt_list_c: list[float]
    beta: BetaSpec


def parse_scenario(doc: Mapping[str, Any]) -> LoadedScenario:
    """Validate a scenario document; raises ConfigError with field paths."""
    _object(doc, "config root")
    _check_keys(
        doc,
        {"reference_wavelength_nm", "source", "fbg1", "fbg2", "interferometer",
         "postselect", "temperatures", "filter", "grid", "osa"},
        "config root",
    )
    ref_nm = _number(doc, "reference_wavelength_nm", "config root", default=1551.0)
    units = UnitContext(reference_wavelength_nm=_in_band(ref_nm, "reference_wavelength_nm"))

    source = _parse_source(_section(doc, "source"))
    fbg1 = _parse_fbg(_section(doc, "fbg1"), "fbg1")
    fbg2 = _parse_fbg(_section(doc, "fbg2"), "fbg2")

    interf = _section(doc, "interferometer", required=False) or {}
    _check_keys(interf, {"tau_ps", "phi_rad", "lcvr_rad"}, "interferometer")
    tau = _number(interf, "tau_ps", "interferometer", default=0.0)
    phi = _number(interf, "phi_rad", "interferometer", default=0.0)
    lcvr = _number(interf, "lcvr_rad", "interferometer", default=0.0)

    beta_rad, beta = _parse_postselect(_section(doc, "postselect"))

    temps = _section(doc, "temperatures")
    _check_keys(temps, {"t2_ref_c", "t1_list_c"}, "temperatures")
    t2 = _number(temps, "t2_ref_c", "temperatures")
    t1_list = listed(temps.get("t1_list_c"), "temperatures.t1_list_c")
    t1_values = [finite(v, f"temperatures.t1_list_c[{i}]") for i, v in enumerate(t1_list)]
    dt_list = [finite(t1 - t2, f"temperatures.t1_list_c[{i}] - t2_ref_c")
               for i, t1 in enumerate(t1_values)]

    scenario = Scenario(
        source=source,
        fbg1=fbg1,
        fbg2=fbg2,
        t1_c=t1_values[0],
        t2_c=t2,
        tau_ps=tau,
        phi_rad=phi,
        gamma_lcvr_rad=lcvr,
        beta_rad=beta_rad,
        filter=_parse_settings(FilterSettings, _section(doc, "filter", False) or {}, "filter"),
        grid=_parse_settings(GridSettings, _section(doc, "grid", False) or {}, "grid"),
        osa=_parse_settings(OsaParams, _section(doc, "osa", False) or {}, "osa"),
        units=units,
    )
    return LoadedScenario(scenario=scenario, dt_list_c=dt_list, beta=beta)


def read_config(path) -> Any:
    """The JSON document of a scenario config file, not yet validated."""
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except ValueError as exc:  # JSONDecodeError, or an integer with too many digits
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None


def load_scenario(path) -> LoadedScenario:
    """Parse a scenario config file; raises ConfigError with field paths."""
    return parse_scenario(read_config(path))
