"""The benchmark's tracer reaches into the package by name.

``perfbench/spans.py`` wraps functions by module and name and its
counters read some of their parameters by name. A run without tracing
never touches those names, so a rename that breaks a traced run would
go unnoticed; these tests keep the names it relies on in place.
"""
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import lpnqrng

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class builds
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_traced_function_resolves(spans):
    for module, name, _, _ in spans.TRACED:
        fn = getattr(importlib.import_module(f"lpnqrng.{module}"), name, None)
        assert callable(fn), f"lpnqrng.{module}.{name}"


@pytest.mark.parametrize("module,name,parameter", [
    ("extractor", "extract_stream", "spec"),
    ("entropy", "empirical_min_entropy", "qt"),
    ("traceio", "write_analog_trace", "path"),
    ("traceio", "write_quantized_trace", "path"),
    ("traceio", "read_analog_trace", "path"),
    ("traceio", "read_quantized_trace", "path"),
])
def test_counted_parameters_exist(module, name, parameter):
    fn = getattr(importlib.import_module(f"lpnqrng.{module}"), name)
    assert parameter in inspect.signature(fn).parameters


def test_gf2_backend_is_exported():
    assert isinstance(lpnqrng.GF2_BACKEND, str)


def test_sweep_call_shapes_bind():
    # perfbench's sweep workload calls evaluate_point(lw, d, base, sim)
    # positionally with SimSettings(seed=...), and nothing else
    sim = lpnqrng.SimSettings(seed=lpnqrng.derive_seed(1, 0, 0))
    base = lpnqrng.SystemParams(5e6, 1.5e-9)
    inspect.signature(lpnqrng.optimizer.evaluate_point).bind(
        5e6, 1.5e-9, base, sim)
