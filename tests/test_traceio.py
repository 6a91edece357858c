import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpnqrng import AdcSpec, LpnError, SystemParams
from lpnqrng.errors import InvalidParameterError, MissingMetadataError
from lpnqrng.simulate import AnalogTrace, QuantizedTrace
from lpnqrng.traceio import (
    read_analog_trace,
    read_quantized_trace,
    write_analog_trace,
    write_quantized_trace,
)


@pytest.fixture
def system():
    return SystemParams(linewidth_hz=9.5e6, delay_s=6.5e-9)


def test_analog_round_trip(tmp_path, system):
    trace = AnalogTrace(np.array([0.25, -0.5, 0.125]), 1e-10, "quantum")
    path = tmp_path / "q.f64"
    write_analog_trace(path, trace, system=system, seed=7)
    back, meta = read_analog_trace(path)
    assert np.array_equal(back.samples, trace.samples)
    assert back.sample_period_s == 1e-10
    assert back.label == "quantum"
    assert meta["seed"] == 7
    assert SystemParams.from_dict(meta["system"]) == system


def test_analog_bytes_little_endian(tmp_path):
    trace = AnalogTrace(np.array([1.0, -2.5]), 1e-10, "measured")
    path = tmp_path / "m.f64"
    write_analog_trace(path, trace)
    assert path.read_bytes() == struct.pack("<2d", 1.0, -2.5)


def test_codes_round_trip(tmp_path, system):
    adc = AdcSpec(bits=10, range=2.0)
    qt = QuantizedTrace(np.array([-512, 0, 511], dtype=np.int16), adc, 2e-10)
    path = tmp_path / "c.i16"
    write_quantized_trace(path, qt, system=system, seed=3)
    back, meta = read_quantized_trace(path)
    assert np.array_equal(back.codes, qt.codes)
    assert back.adc == adc
    assert meta["seed"] == 3


def test_codes_bytes_are_int16_le(tmp_path, adc8):
    qt = QuantizedTrace(np.array([-128, 127], dtype=np.int16), adc8, 1e-10)
    path = tmp_path / "c.i16"
    write_quantized_trace(path, qt)
    assert path.read_bytes() == struct.pack("<2h", -128, 127)


def test_missing_sidecar(tmp_path):
    path = tmp_path / "orphan.f64"
    path.write_bytes(b"\x00" * 8)
    with pytest.raises(MissingMetadataError):
        read_analog_trace(path)


def test_kind_mismatch(tmp_path, adc8):
    qt = QuantizedTrace(np.array([1], dtype=np.int16), adc8, 1e-10)
    path = tmp_path / "c.i16"
    write_quantized_trace(path, qt)
    with pytest.raises(InvalidParameterError):
        read_analog_trace(path)


def test_truncated_data_detected(tmp_path):
    trace = AnalogTrace(np.array([1.0, 2.0, 3.0]), 1e-10, "quantum")
    path = tmp_path / "q.f64"
    write_analog_trace(path, trace)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(InvalidParameterError):
        read_analog_trace(path)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6)


def _sidecar_bytes(valid: dict):
    """Raw bytes, any JSON value, or the valid sidecar with keys dropped or
    replaced by arbitrary JSON."""
    edited = st.fixed_dictionaries(
        {}, optional={k: st.just(v) | _JSON for k, v in valid.items()})
    return st.one_of(st.binary(max_size=64),
                     _JSON.map(lambda v: json.dumps(v).encode()),
                     edited.map(lambda v: json.dumps(v).encode()))


@pytest.mark.parametrize("kind", ["analog", "codes"])
def test_fuzzed_sidecar_raises_only_package_errors(tmp_path_factory, kind):
    path = tmp_path_factory.mktemp(kind) / "trace"
    if kind == "analog":
        write_analog_trace(path, AnalogTrace(np.zeros(3), 1e-10, "quantum"))
        read = read_analog_trace
    else:
        write_quantized_trace(path, QuantizedTrace(np.zeros(3, np.int16),
                                                   AdcSpec(), 1e-10))
        read = read_quantized_trace
    side = Path(str(path) + ".meta.json")
    valid = json.loads(side.read_text())

    @given(_sidecar_bytes(valid))
    @settings(max_examples=300, deadline=None)
    def check(raw):
        side.write_bytes(raw)
        try:
            trace, _ = read(path)
        except LpnError:
            return
        assert trace.sample_period_s > 0 and math.isfinite(trace.sample_period_s)

    check()
