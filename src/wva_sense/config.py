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
from typing import Any, Mapping, Optional

from .errors import ConfigError
from .fbg import FbgParams, SideLobe, bandwidth_b_from_fwhm_nm
from .osa import OsaParams
from .scenario import FilterSettings, GridSettings, Scenario, SourceParams
from .spectral import SPEED_OF_LIGHT_NM_THZ, UnitContext, wavelength_to_frequency
from .wva import pulse_bandwidth


def _check_keys(section: Mapping[str, Any], allowed: set[str], path: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{path}: unknown key {key!r}")


def _section(doc: Mapping[str, Any], name: str, required: bool = True):
    value = doc.get(name)
    if value is None:
        if required:
            raise ConfigError(f"missing required section {name!r}")
        return None
    if not isinstance(value, Mapping):
        raise ConfigError(f"{name}: expected an object")
    return value


def _finite(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        raise ConfigError(f"{where}: must be finite, got an integer too large "
                          "for a float") from None
    if not math.isfinite(number):
        raise ConfigError(f"{where}: must be finite, got {value!r}")
    return number


def _number(section: Mapping[str, Any], key: str, path: str, default=None) -> float:
    value = section.get(key, default)
    if value is None:
        raise ConfigError(f"{path}.{key}: required numeric field missing")
    return _finite(value, f"{path}.{key}")


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


def _parse_source(section: Mapping[str, Any]) -> SourceParams:
    _check_keys(
        section,
        {"center_nm", "center_thz", "pulse_fwhm_ps", "bandwidth_thz", "fwhm_nm", "amplitude"},
        "source",
    )
    nu0 = _center_thz(section, "source")
    key = _exactly_one(section, ("pulse_fwhm_ps", "bandwidth_thz", "fwhm_nm"), "source")
    value = _number(section, key, "source")
    if value <= 0:
        raise ConfigError(f"source.{key}: must be > 0")
    if key == "pulse_fwhm_ps":
        b = pulse_bandwidth(value)
    elif key == "bandwidth_thz":
        b = value
    else:
        b = bandwidth_b_from_fwhm_nm(value, wavelength_to_frequency(nu0))
    amplitude = _number(section, "amplitude", "source", default=1.0)
    try:
        return SourceParams(nu0_thz=nu0, b_thz=b, amplitude=amplitude)
    except ValueError as exc:
        raise ConfigError(f"source: {exc}") from None


def _parse_side_lobe(section: Mapping[str, Any], path: str, main_b: float) -> SideLobe:
    _check_keys(section, {"offset_thz", "rel_amplitude", "width_thz"}, path)
    try:
        return SideLobe(
            offset_thz=_number(section, "offset_thz", path),
            rel_amplitude=_number(section, "rel_amplitude", path),
            width_thz=_number(section, "width_thz", path, default=main_b),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_fbg(section: Mapping[str, Any], path: str) -> FbgParams:
    _check_keys(
        section,
        {"center_nm", "center_thz", "kappa_nm_per_c", "fwhm_nm", "bandwidth_b_thz",
         "efficiency", "side_lobe"},
        path,
    )
    center = _center_thz(section, path)
    width_key = _exactly_one(section, ("fwhm_nm", "bandwidth_b_thz"), path)
    width = _number(section, width_key, path)
    if width <= 0:
        raise ConfigError(f"{path}.{width_key}: must be > 0")
    if width_key == "fwhm_nm":
        b = bandwidth_b_from_fwhm_nm(width, wavelength_to_frequency(center))
    else:
        b = width
    side = section.get("side_lobe")
    side_lobe = None
    if side is not None:
        if not isinstance(side, Mapping):
            raise ConfigError(f"{path}.side_lobe: expected an object")
        side_lobe = _parse_side_lobe(side, f"{path}.side_lobe", b)
    try:
        return FbgParams(
            center_ref_thz=center,
            kappa_nm_per_c=_number(section, "kappa_nm_per_c", path),
            bandwidth_b_thz=b,
            reflect_efficiency=_number(section, "efficiency", path, default=1.0),
            side_lobe=side_lobe,
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


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
            if not isinstance(value, bool):
                raise ConfigError(f"{path}.{key}: expected true/false")
        elif isinstance(default, int):
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ConfigError(f"{path}.{key}: expected a non-negative integer")
        else:
            kwargs[key] = _finite(value, f"{path}.{key}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class BetaSpec:
    """Post-selection: a single angle, with optional sweep-range defaults."""

    beta_rad: float
    sweep_min_deg: Optional[float] = None
    sweep_max_deg: Optional[float] = None
    sweep_step_deg: Optional[float] = None


def _angle(section: Mapping[str, Any], key: str, default=None) -> float:
    """A postselect angle in degrees, within [-90, 90]."""
    value = _number(section, key, "postselect", default)
    if not -90.0 <= value <= 90.0:
        raise ConfigError(f"postselect.{key}: angle must lie in [-90, 90] deg, got {value!r}")
    return value


def _parse_postselect(section: Mapping[str, Any]) -> BetaSpec:
    _check_keys(
        section, {"beta_deg", "beta_min_deg", "beta_max_deg", "step_deg"}, "postselect"
    )
    sweep_keys = ("beta_min_deg", "beta_max_deg", "step_deg")
    has_sweep = any(k in section for k in sweep_keys)
    if has_sweep and not all(k in section for k in sweep_keys):
        raise ConfigError("postselect: sweep spec needs beta_min_deg, beta_max_deg and step_deg")
    if "beta_deg" not in section and not has_sweep:
        raise ConfigError("postselect: give beta_deg or a sweep spec")
    if has_sweep:
        lo = _angle(section, "beta_min_deg")
        hi = _angle(section, "beta_max_deg")
        step = _number(section, "step_deg", "postselect")
        if step <= 0 or hi <= lo:
            raise ConfigError("postselect: sweep needs step_deg > 0 and beta_max_deg > beta_min_deg")
        beta_deg = _angle(section, "beta_deg", default=lo)
        return BetaSpec(math.radians(beta_deg), lo, hi, step)
    return BetaSpec(math.radians(_angle(section, "beta_deg")))


@dataclass(frozen=True)
class LoadedScenario:
    """Scenario at the first configured temperature plus the full dt plan."""

    scenario: Scenario
    dt_list_c: list[float]
    beta: BetaSpec


def parse_scenario(doc: Mapping[str, Any]) -> LoadedScenario:
    """Validate a scenario document; raises ConfigError with field paths."""
    if not isinstance(doc, Mapping):
        raise ConfigError("config root: expected an object")
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

    beta = _parse_postselect(_section(doc, "postselect"))

    temps = _section(doc, "temperatures")
    _check_keys(temps, {"t2_ref_c", "t1_list_c"}, "temperatures")
    t2 = _number(temps, "t2_ref_c", "temperatures")
    t1_list = temps.get("t1_list_c")
    if not isinstance(t1_list, list) or not t1_list:
        raise ConfigError("temperatures.t1_list_c: expected a non-empty list")
    t1_values = [_finite(v, f"temperatures.t1_list_c[{i}]") for i, v in enumerate(t1_list)]

    osa = _section(doc, "osa", required=False)
    scenario = Scenario(
        source=source,
        fbg1=fbg1,
        fbg2=fbg2,
        t1_c=t1_values[0],
        t2_c=t2,
        tau_ps=tau,
        phi_rad=phi,
        gamma_lcvr_rad=lcvr,
        beta_rad=beta.beta_rad,
        filter=_parse_settings(FilterSettings, _section(doc, "filter", False) or {}, "filter"),
        grid=_parse_settings(GridSettings, _section(doc, "grid", False) or {}, "grid"),
        osa=None if osa is None else _parse_settings(OsaParams, osa, "osa"),
        units=units,
    )
    return LoadedScenario(
        scenario=scenario,
        dt_list_c=[t1 - t2 for t1 in t1_values],
        beta=beta,
    )


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
