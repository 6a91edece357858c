"""Trace files: raw sample data plus a JSON metadata sidecar.

Analog traces are finite little-endian IEEE-754 float64; code traces are
little-endian int16 regardless of ADC resolution. Each data file
``<path>`` is described by ``<path>.meta.json`` recording the sampling
period, label or ADC spec, the generating system parameters, and the
seed, so any trace on disk can be re-simulated or re-analyzed without
out-of-band knowledge.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import InvalidParameterError, MissingMetadataError
from .params import (AdcSpec, SystemParams, as_float, as_int, check_count,
                     check_seed, one_of, positive)
from .simulate import LABELS, AnalogTrace, QuantizedTrace

FORMAT_TAG = "lpnqrng-trace/1"
_ANALOG_DTYPE = "<f8"
_CODES_DTYPE = "<i2"


def _sidecar(path: Path) -> Path:
    return Path(str(path) + ".meta.json")


def _write(path: str | Path, data: np.ndarray, dtype: str,
           trace: AnalogTrace | QuantizedTrace, system: SystemParams | None,
           seed: int | None, **fields) -> None:
    """``data`` as raw ``dtype`` at ``path``, and its sidecar. The seed is
    checked and the sidecar encoded first, so a bad one leaves no file."""
    path = Path(path)
    if seed is not None:
        seed = check_seed("seed", seed)
    meta = {"format": FORMAT_TAG, "dtype": dtype, "n_samples": len(data),
            "sample_period_s": trace.sample_period_s, "seed": seed,
            "system": None if system is None else system.to_dict(), **fields}
    text = json.dumps(meta, indent=2, sort_keys=True) + "\n"
    data.astype(dtype, copy=False).tofile(path)
    _sidecar(path).write_text(text)


def _read(path: str | Path, kind: str, dtype: str,
          **converters) -> tuple[np.ndarray, list, dict]:
    """A ``kind`` trace's raw data, its sample period and other sidecar
    values (each read by its converter), and the sidecar, checked once.

    A sidecar that is missing, is not a FORMAT_TAG JSON object, or lacks
    a value or holds one its converter rejects raises MissingMetadataError;
    a trace of another kind or length raises InvalidParameterError.
    """
    path = Path(path)
    side = _sidecar(path)
    if not side.exists():
        raise MissingMetadataError(f"no metadata sidecar at {side}")
    try:
        meta = json.loads(side.read_text())
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, too deep
        raise MissingMetadataError(f"{side} is not valid JSON: {exc}") from exc
    if not isinstance(meta, dict) or meta.get("format") != FORMAT_TAG:
        raise MissingMetadataError(f"{side} is not a {FORMAT_TAG} sidecar")
    if meta.get("kind") != kind:
        raise InvalidParameterError(f"{path} is not a {kind!r} trace")
    converters = {
        "n_samples": lambda v: check_count("n_samples", as_int(v)),
        "sample_period_s": lambda v: positive("sample_period_s", as_float(v)),
        **converters}
    values = []
    for key, convert in converters.items():
        try:
            values.append(convert(meta[key]))
        except (KeyError, TypeError, ValueError, OverflowError,
                InvalidParameterError) as exc:
            raise MissingMetadataError(
                f"{side}: {key!r} is missing or malformed ({exc!r})") from exc
    n_samples, *values = values
    data = np.fromfile(path, dtype=dtype)
    if len(data) != n_samples:
        raise InvalidParameterError(
            f"{path}: expected {n_samples} samples, found {len(data)}")
    return data, values, meta


def write_analog_trace(path: str | Path, trace: AnalogTrace,
                       system: SystemParams | None = None,
                       seed: int | None = None) -> None:
    _write(path, trace.samples, _ANALOG_DTYPE, trace, system, seed,
           kind="analog", label=trace.label)


def read_analog_trace(path: str | Path) -> tuple[AnalogTrace, dict]:
    samples, (sample_period_s, label), meta = _read(
        path, "analog", _ANALOG_DTYPE,
        label=lambda v: one_of("trace label", v, LABELS))
    # min and max are NaN or infinite if any sample is; no full-size temporary
    if len(samples) and not np.isfinite([samples.min(), samples.max()]).all():
        raise InvalidParameterError(f"{path}: a sample is NaN or infinite")
    return AnalogTrace(samples, sample_period_s, label), meta


def write_quantized_trace(path: str | Path, trace: QuantizedTrace,
                          system: SystemParams | None = None,
                          seed: int | None = None) -> None:
    _write(path, trace.codes, _CODES_DTYPE, trace, system, seed,
           kind="codes", adc=trace.adc.to_dict())


def read_quantized_trace(path: str | Path) -> tuple[QuantizedTrace, dict]:
    codes, (sample_period_s, adc), meta = _read(
        path, "codes", _CODES_DTYPE, adc=AdcSpec.from_dict)
    return QuantizedTrace(codes, adc, sample_period_s), meta
