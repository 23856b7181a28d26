import json
import math
import tracemalloc

import pytest

import wva_sense as w
from wva_sense.config import load_scenario, parse_scenario
from wva_sense.errors import ConfigError
from wva_sense.fbg import bandwidth_b_from_fwhm_nm


def base_doc():
    return {
        "source": {"center_nm": 1549.0, "pulse_fwhm_ps": 0.32, "amplitude": 1.0},
        "fbg1": {"center_nm": 1551.0, "kappa_nm_per_c": 0.009, "fwhm_nm": 2.0,
                 "efficiency": 0.14},
        "fbg2": {"center_nm": 1551.0, "kappa_nm_per_c": 0.009, "fwhm_nm": 2.0,
                 "efficiency": 0.14},
        "interferometer": {"tau_ps": 0.0, "phi_rad": 0.2, "lcvr_rad": 0.05},
        "postselect": {"beta_deg": -40.0},
        "temperatures": {"t2_ref_c": 20.0, "t1_list_c": [20.0, 25.0, 31.0]},
        "filter": {"enabled": True, "order": 4, "half_width_factor": 1.5},
        "osa": {"rbw_nm": 0.01, "noise_floor": 1e-5, "rel_noise": 0.0, "seed": 11},
    }


class TestParsing:
    def test_full_document(self):
        loaded = parse_scenario(base_doc())
        sc = loaded.scenario
        assert sc.source.nu0_thz == pytest.approx(w.wavelength_to_frequency(1549.0))
        assert sc.source.b_thz == pytest.approx(w.pulse_bandwidth(0.32))
        assert sc.fbg1.bandwidth_b_thz == pytest.approx(
            bandwidth_b_from_fwhm_nm(2.0, 1551.0)
        )
        assert sc.beta_rad == pytest.approx(math.radians(-40.0))
        assert sc.delta_rad == pytest.approx(0.15)
        assert sc.osa.seed == 11
        assert loaded.dt_list_c == [0.0, 5.0, 11.0]

    def test_defaults(self):
        doc = base_doc()
        del doc["filter"], doc["osa"], doc["interferometer"]
        doc["source"] = {"center_nm": 1549.0, "bandwidth_thz": 0.83}
        sc = parse_scenario(doc).scenario
        assert sc.filter.enabled and sc.filter.order == 4
        assert sc.osa == w.OsaParams()
        assert sc.tau_ps == 0.0
        assert sc.grid.n_points == 4001
        assert sc.units.reference_wavelength_nm == 1551.0

    def test_documented_blocks_with_nulls_are_the_defaults(self):
        doc = base_doc()
        # The filter and grid blocks of docs/formats.md, "defaults shown".
        doc["filter"] = {"enabled": True, "order": 4, "half_width_factor": 1.5,
                         "half_width_thz": None}
        doc["grid"] = {"n_points": 4001, "span_factor": 10.0, "center_thz": None,
                       "span_thz": None}
        doc["osa"] = {"rbw_nm": None, "noise_floor": None, "rel_noise": None, "seed": None}
        sc = parse_scenario(doc).scenario
        assert sc.filter == w.FilterSettings()
        assert sc.grid == w.GridSettings()
        assert sc.osa == w.OsaParams()

    def test_side_lobe_width_defaults_to_main(self):
        doc = base_doc()
        doc["fbg1"]["side_lobe"] = {"offset_thz": -0.37, "rel_amplitude": 0.2}
        sc = parse_scenario(doc).scenario
        assert sc.fbg1.side_lobe.width_thz == pytest.approx(sc.fbg1.bandwidth_b_thz)
        assert sc.fbg2.side_lobe is None

    def test_source_fwhm_nm_is_its_bandwidth_thz(self):
        doc = base_doc()
        del doc["source"]["pulse_fwhm_ps"]
        doc["source"]["fwhm_nm"] = 10.0
        by_nm = parse_scenario(doc).scenario.source
        del doc["source"]["fwhm_nm"]
        nu0 = w.wavelength_to_frequency(1549.0)
        doc["source"]["bandwidth_thz"] = bandwidth_b_from_fwhm_nm(
            10.0, w.spectral.SPEED_OF_LIGHT_NM_THZ / nu0)
        assert parse_scenario(doc).scenario.source == by_nm

    def test_grating_bandwidth_b_thz_is_its_fwhm_nm(self):
        doc = base_doc()
        by_nm = parse_scenario(doc).scenario.fbg1
        del doc["fbg1"]["fwhm_nm"]
        doc["fbg1"]["bandwidth_b_thz"] = bandwidth_b_from_fwhm_nm(2.0, 1551.0)
        assert parse_scenario(doc).scenario.fbg1 == by_nm

    def test_sweep_spec(self):
        doc = base_doc()
        doc["postselect"] = {"beta_min_deg": -90.0, "beta_max_deg": 0.0, "step_deg": 0.5}
        loaded = parse_scenario(doc)
        assert loaded.beta.sweep_min_deg == -90.0
        assert loaded.beta.sweep_step_deg == 0.5


class TestRejection:
    def test_unknown_root_key(self):
        doc = base_doc()
        doc["oven"] = {}
        with pytest.raises(ConfigError, match="config root.*'oven'"):
            parse_scenario(doc)

    def test_unknown_nested_key(self):
        doc = base_doc()
        doc["fbg1"]["kappa_nm"] = 0.009
        with pytest.raises(ConfigError, match="fbg1.*'kappa_nm'"):
            parse_scenario(doc)

    def test_missing_section(self):
        doc = base_doc()
        del doc["temperatures"]
        with pytest.raises(ConfigError, match="temperatures"):
            parse_scenario(doc)

    def test_both_center_spellings(self):
        doc = base_doc()
        doc["fbg1"]["center_thz"] = 193.3
        with pytest.raises(ConfigError, match="exactly one"):
            parse_scenario(doc)

    def test_fbg_wider_than_source(self):
        doc = base_doc()
        doc["fbg1"]["fwhm_nm"] = 30.0
        with pytest.raises(ConfigError, match="smaller"):
            parse_scenario(doc)

    def test_empty_temperature_list(self):
        doc = base_doc()
        doc["temperatures"]["t1_list_c"] = []
        with pytest.raises(ConfigError, match="t1_list_c"):
            parse_scenario(doc)

    def test_non_numeric_field(self):
        doc = base_doc()
        doc["fbg1"]["kappa_nm_per_c"] = "fast"
        with pytest.raises(ConfigError, match="fbg1.kappa_nm_per_c"):
            parse_scenario(doc)

    def test_bad_sweep_spec(self):
        doc = base_doc()
        doc["postselect"] = {"beta_min_deg": 0.0, "beta_max_deg": -90.0, "step_deg": 0.5}
        with pytest.raises(ConfigError, match="postselect"):
            parse_scenario(doc)

    def test_bad_osa_seed(self):
        doc = base_doc()
        doc["osa"]["seed"] = -3
        with pytest.raises(ConfigError, match="osa.seed"):
            parse_scenario(doc)

    def test_bad_filter_order(self):
        for key, value in (("order", 3), ("order", 0), ("order", -2), ("half_width_thz", 0.0)):
            doc = base_doc()
            doc["filter"][key] = value
            with pytest.raises(ConfigError, match="filter"):
                parse_scenario(doc)


class TestRangeChecks:
    @pytest.mark.parametrize("postselect,named", [
        ({"beta_deg": 95.0}, "postselect.beta_deg"),
        ({"beta_deg": -90.5}, "postselect.beta_deg"),
        ({"beta_min_deg": -91.0, "beta_max_deg": 0.0, "step_deg": 1.0}, "postselect.beta_min_deg"),
        ({"beta_min_deg": -90.0, "beta_max_deg": 91.0, "step_deg": 1.0}, "postselect.beta_max_deg"),
        ({"beta_deg": 100.0, "beta_min_deg": -90.0, "beta_max_deg": 0.0, "step_deg": 1.0},
         "postselect.beta_deg"),
    ])
    def test_postselect_angles_within_90(self, postselect, named):
        doc = base_doc()
        doc["postselect"] = postselect
        with pytest.raises(ConfigError, match=named):
            parse_scenario(doc)

    def test_postselect_angle_limits_accepted(self):
        doc = base_doc()
        doc["postselect"] = {"beta_deg": 90, "beta_min_deg": -90, "beta_max_deg": 90,
                             "step_deg": 1}
        assert parse_scenario(doc).beta.sweep_max_deg == 90.0

    def test_integer_too_large_for_a_float(self):
        doc = base_doc()
        doc["interferometer"]["tau_ps"] = 10**400
        with pytest.raises(ConfigError, match="interferometer.tau_ps"):
            parse_scenario(doc)

    def test_integer_with_too_many_digits(self, tmp_path):
        # Python refuses to parse integers beyond 4300 digits.
        path = tmp_path / "sc.json"
        text = json.dumps(base_doc()).replace('"tau_ps": 0.0', '"tau_ps": ' + "9" * 5000)
        path.write_text(text)
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_scenario(path)

    def test_wavelength_band_edges(self):
        for value in (1.0, 1e6):
            doc = base_doc()
            doc["reference_wavelength_nm"] = value
            assert parse_scenario(doc).scenario.units.reference_wavelength_nm == value
        for value in (0.999, 1.000001e6, 0.0, -1551.0):
            doc = base_doc()
            doc["reference_wavelength_nm"] = value
            with pytest.raises(ConfigError, match="reference_wavelength_nm: wavelength must lie"):
                parse_scenario(doc)

    @pytest.mark.parametrize("section,value", [
        ("source", 0.29), ("source", 3e5), ("fbg1", 1e-300), ("fbg2", 1e300),
    ])
    def test_frequency_spelling_in_the_same_band(self, section, value):
        doc = base_doc()
        del doc[section]["center_nm"]
        doc[section]["center_thz"] = value
        with pytest.raises(ConfigError, match=f"{section}.center_thz: wavelength must lie"):
            parse_scenario(doc)

    def test_grid_points_capped_before_allocating(self):
        doc = base_doc()
        doc["grid"] = {"n_points": 10**13}
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="grid: n_points"):
                parse_scenario(doc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_grid_points_at_cap_accepted(self):
        doc = base_doc()
        doc["grid"] = {"n_points": w.spectral.MAX_RANGE_POINTS}
        assert parse_scenario(doc).scenario.grid.n_points == 10**6


class TestLoadScenario:
    def test_round_trip_file(self, tmp_path):
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(base_doc()))
        loaded = load_scenario(path)
        assert loaded.scenario.t2_c == 20.0

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "sc.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_scenario(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_scenario(tmp_path / "nope.json")


class TestOneMessageRule:
    """Every rule that returns its value unchanged raises through config._is:
    `<where>: expected <what>, got <value>`, the value's repr cut at 80."""

    @pytest.mark.parametrize("edit,message", [
        (lambda d: d.update(source=[1549.0]), "source: expected an object, got [1549.0]"),
        (lambda d: d["fbg1"].update(side_lobe="wide"),
         "fbg1.side_lobe: expected an object, got 'wide'"),
        (lambda d: d["filter"].update(enabled=1), "filter.enabled: expected true/false, got 1"),
        (lambda d: d["filter"].update(enabled="yes"),
         "filter.enabled: expected true/false, got 'yes'"),
    ], ids=["section", "side_lobe", "bool_int", "bool_text"])
    def test_field_message_names_the_value(self, edit, message):
        doc = base_doc()
        edit(doc)
        with pytest.raises(ConfigError) as info:
            parse_scenario(doc)
        assert str(info.value) == message

    @pytest.mark.parametrize("doc,got", [
        ([1, 2], "[1, 2]"), ("x" * 200, repr("x" * 200)[:80]), (None, "None"),
    ], ids=["list", "long_text", "null"])
    def test_root_message_names_the_value(self, doc, got):
        with pytest.raises(ConfigError) as info:
            parse_scenario(doc)
        assert str(info.value) == f"config root: expected an object, got {got}"

    def test_the_cli_uses_the_config_rule_builder(self):
        from wva_sense import cli, config
        assert cli._is is config._is
