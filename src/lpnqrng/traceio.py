"""Trace files: raw sample data plus a JSON metadata sidecar.

Analog traces are little-endian IEEE-754 float64; code traces are
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
from .params import AdcSpec, SystemParams, as_int
from .simulate import AnalogTrace, QuantizedTrace

FORMAT_TAG = "lpnqrng-trace/1"
_ANALOG_DTYPE = "<f8"
_CODES_DTYPE = "<i2"


def _sidecar(path: Path) -> Path:
    return Path(str(path) + ".meta.json")


def _write_meta(path: Path, meta: dict) -> None:
    _sidecar(path).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _read_meta(path: Path) -> dict:
    side = _sidecar(path)
    if not side.exists():
        raise MissingMetadataError(f"no metadata sidecar at {side}")
    try:
        meta = json.loads(side.read_text())
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, too deep
        raise MissingMetadataError(f"{side} is not valid JSON: {exc}") from exc
    if not isinstance(meta, dict) or meta.get("format") != FORMAT_TAG:
        raise MissingMetadataError(
            f"{side} is not a {FORMAT_TAG} sidecar")
    return meta


def _fields(path: Path, meta: dict, **converters) -> list:
    """Each named sidecar value passed through its converter, in order.

    A missing key, or a value its converter rejects, means the sidecar
    does not describe the trace and raises MissingMetadataError.
    """
    values = []
    for key, convert in converters.items():
        try:
            values.append(convert(meta[key]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise MissingMetadataError(
                f"{_sidecar(path)}: {key!r} is missing or malformed "
                f"({exc!r})") from exc
    return values


def write_analog_trace(path: str | Path, trace: AnalogTrace,
                       system: SystemParams | None = None,
                       seed: int | None = None) -> None:
    path = Path(path)
    trace.samples.astype(_ANALOG_DTYPE).tofile(path)
    _write_meta(path, {
        "format": FORMAT_TAG,
        "kind": "analog",
        "dtype": _ANALOG_DTYPE,
        "n_samples": len(trace),
        "sample_period_s": trace.sample_period_s,
        "label": trace.label,
        "system": None if system is None else system.to_dict(),
        "seed": seed,
    })


def read_analog_trace(path: str | Path) -> tuple[AnalogTrace, dict]:
    path = Path(path)
    meta = _read_meta(path)
    if meta.get("kind") != "analog":
        raise InvalidParameterError(f"{path} is not an analog trace")
    n_samples, sample_period_s, label = _fields(
        path, meta, n_samples=as_int, sample_period_s=float, label=str)
    samples = np.fromfile(path, dtype=_ANALOG_DTYPE).astype(np.float64)
    if len(samples) != n_samples:
        raise InvalidParameterError(
            f"{path}: expected {n_samples} samples, found {len(samples)}")
    trace = AnalogTrace(samples, sample_period_s, label)
    return trace, meta


def write_quantized_trace(path: str | Path, trace: QuantizedTrace,
                          system: SystemParams | None = None,
                          seed: int | None = None) -> None:
    path = Path(path)
    trace.codes.astype(_CODES_DTYPE).tofile(path)
    _write_meta(path, {
        "format": FORMAT_TAG,
        "kind": "codes",
        "dtype": _CODES_DTYPE,
        "n_samples": len(trace),
        "sample_period_s": trace.sample_period_s,
        "adc": trace.adc.to_dict(),
        "system": None if system is None else system.to_dict(),
        "seed": seed,
    })


def read_quantized_trace(path: str | Path) -> tuple[QuantizedTrace, dict]:
    path = Path(path)
    meta = _read_meta(path)
    if meta.get("kind") != "codes":
        raise InvalidParameterError(f"{path} is not a code trace")
    n_samples, sample_period_s, adc = _fields(
        path, meta, n_samples=as_int, sample_period_s=float,
        adc=AdcSpec.from_dict)
    codes = np.fromfile(path, dtype=_CODES_DTYPE).astype(np.int16)
    if len(codes) != n_samples:
        raise InvalidParameterError(
            f"{path}: expected {n_samples} samples, found {len(codes)}")
    trace = QuantizedTrace(codes, adc, sample_period_s)
    return trace, meta
