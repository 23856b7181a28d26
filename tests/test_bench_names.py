"""The package names the benchmark under bench/ reads.

bench/workloads.py calls some of these directly, and bench/spans.py keys
per-layer metrics on the span names of others: a traced function is a
public module-level function of its layer module, and a traced method is
found in its class's own __dict__. A name that goes missing does not fail
the benchmark; its metric reads n/a. This test fails instead.
"""

import importlib
import inspect

import pytest

# Public functions the benchmark calls or keys a metric on.
FUNCTIONS = [
    "scenario.scenario_field",
    "scenario.scenario_centers",
    "fbg.reflect",
    "osa.sub_seed",
    "osa.max_usable_amplification",
    "spectral.write_spectrum_csv",
    "spectral.read_spectrum_csv",
    "config.parse_scenario",
    "config.load_scenario",
    "wva.overlap_gamma",
    "wva.max_amplification",
    "cli.main",
    "cli.replay_manifest",
]
CLASSES = ["osa.UsableAmplification", "osa.OsaParams"]
METHODS = [
    "spectral.FrequencyGrid.frequencies",
    "spectral.Spectrum.__post_init__",
    "wva.PolarizedFieldSpectrum.__post_init__",
]


def _module(layer):
    return importlib.import_module(f"wva_sense.{layer}")


@pytest.mark.parametrize("name", FUNCTIONS)
def test_traced_function_exists(name):
    layer, attr = name.split(".")
    mod = _module(layer)
    fn = getattr(mod, attr, None)
    assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, name


@pytest.mark.parametrize("name", CLASSES)
def test_class_exists(name):
    layer, attr = name.split(".")
    assert inspect.isclass(getattr(_module(layer), attr, None)), name


@pytest.mark.parametrize("name", METHODS)
def test_traced_method_exists(name):
    layer, cls_name, meth = name.split(".")
    cls = getattr(_module(layer), cls_name, None)
    assert inspect.isclass(cls) and inspect.isfunction(cls.__dict__.get(meth)), name


def test_cli_runners_are_traced_functions():
    # The tracer swaps the runner table's values and counts every
    # cli.run_* span as runner time.
    cli = _module("cli")
    assert isinstance(cli._RUNNERS, dict) and cli._RUNNERS
    for command, runner in cli._RUNNERS.items():
        assert inspect.isfunction(runner) and runner.__module__ == cli.__name__, command
        assert runner.__name__.startswith("run_") and getattr(cli, runner.__name__) is runner
