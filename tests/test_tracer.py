"""The benchmark's tracer names zhat functions by hand; every name it
lists must still exist, or ``perfbench/trace_runner.py`` breaks on a
rename that the rest of the suite would not notice."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from zhat.setdsl import CompiledSet

TRACE_RUNNER = Path(__file__).resolve().parents[1] / "perfbench" / "trace_runner.py"


def load_trace_runner():
    spec = importlib.util.spec_from_file_location("trace_runner", TRACE_RUNNER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_trace_runner()
MODULES = {label: f"zhat.{layer}" for layer, label in zip(tracer.LAYERS, tracer.LAYER_LABELS)}


def resolve(name: str):
    label, attr = name.split(".")
    return getattr(importlib.import_module(MODULES[label]), attr)


@pytest.mark.parametrize("method", tracer.COMPILED_SET_METHODS)
def test_compiled_set_methods_exist(method):
    assert callable(getattr(CompiledSet, method, None))


@pytest.mark.parametrize("name", sorted(tracer.PER_ELEMENT))
def test_per_element_names_resolve(name):
    assert callable(resolve(name))


# the arguments _counts reads by name; a rename would only surface as a
# KeyError in a traced run
COUNTED_PARAMETERS = {
    "setdsl.residue_image": "m",
    "setdsl.mask_upto": "n",
    "measure.multiples_measure_ie": "moduli",
    "analytic.de_delta_bracket": "moduli",
}


@pytest.mark.parametrize("name", sorted(tracer.COUNTED))
def test_counted_names_resolve(name):
    label, attr = name.split(".")
    if label == "setdsl" and attr in tracer.COMPILED_SET_METHODS:
        fn = getattr(CompiledSet, attr)
    else:
        fn = resolve(name)
    assert callable(fn)
    if name in COUNTED_PARAMETERS:
        assert COUNTED_PARAMETERS[name] in inspect.signature(fn).parameters
