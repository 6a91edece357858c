"""Trace files: raw sample data plus a JSON metadata sidecar.

Analog traces are finite little-endian IEEE-754 float64; code traces are
little-endian int16 regardless of ADC resolution. A data file is exactly
n_samples items long: a file with a partial item at its end, or one
item more or fewer, is refused. Each data file
``<path>`` is described by ``<path>.meta.json`` recording the sampling
period, label or ADC spec, the generating system parameters, and the
seed, so any trace on disk can be re-simulated or re-analyzed without
out-of-band knowledge.
"""
from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from .errors import InvalidParameterError, MissingMetadataError
from .params import (AdcSpec, SystemParams, as_float, as_int, check_count,
                     check_seed, one_of, positive)
from .simulate import LABELS, AnalogTrace, QuantizedTrace

FORMAT_TAG = "lpnqrng-trace/1"
_ANALOG_DTYPE = "<f8"
_CODES_DTYPE = "<i2"
# samples per read of an analog data file: each chunk is checked while
# it is in cache, where a check after the read would scan the whole
# trace again
_READ_CHUNK = 2**17


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


def _read(path: str | Path, kind: str, dtype: str, finite: bool = False,
          **converters) -> tuple[np.ndarray, list, dict]:
    """A ``kind`` trace's raw data, its sample period and other sidecar
    values (each read by its converter), and the sidecar, checked once.

    A sidecar that is missing, is not a FORMAT_TAG JSON object, or lacks
    a value or holds one its converter rejects raises MissingMetadataError;
    a trace of another kind, or a data file that is not n_samples items
    long to the byte, raises InvalidParameterError, as does a NaN or
    infinite sample where the data must be ``finite`` (``_load``).
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
    return _load(path, n_samples, np.dtype(dtype), finite), values, meta


def _load(path: Path, n: int, dtype: np.dtype, finite: bool) -> np.ndarray:
    """The n items of the data file at ``path``, read into one array: a
    chunk at a time when they must be ``finite``, so each chunk is
    checked while it is still in cache, and in one read otherwise. The
    file's size is compared with n items first, so a partial trailing
    item is refused; a file that ends early while it is read raises too,
    so no unwritten element is returned."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size != n * dtype.itemsize:
            raise InvalidParameterError(
                f"{path}: expected {n} samples ({n * dtype.itemsize} "
                f"bytes), found {size} bytes")
        data = np.empty(n, dtype)
        step = _READ_CHUNK if finite else max(n, 1)
        for a in range(0, n, step):
            chunk = data[a:a + step]
            if f.readinto(chunk.view(np.uint8)) != chunk.nbytes:
                raise InvalidParameterError(
                    f"{path}: the file ended while its {n} samples were read")
            # min and max are NaN or infinite if any sample is
            if finite and not (math.isfinite(chunk.min())
                               and math.isfinite(chunk.max())):
                raise InvalidParameterError(
                    f"{path}: a sample is NaN or infinite")
    return data


def write_analog_trace(path: str | Path, trace: AnalogTrace,
                       system: SystemParams | None = None,
                       seed: int | None = None) -> None:
    _write(path, trace.samples, _ANALOG_DTYPE, trace, system, seed,
           kind="analog", label=trace.label)


def read_analog_trace(path: str | Path) -> tuple[AnalogTrace, dict]:
    samples, (sample_period_s, label), meta = _read(
        path, "analog", _ANALOG_DTYPE, finite=True,
        label=lambda v: one_of("trace label", v, LABELS))
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
