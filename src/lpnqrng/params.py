"""Parameter rules, and the physical and digitizer parameters of a design.

This module owns the parameter rules. Each is one function, called where
the value enters: a JSON reader, a typed settings object, or a public
function. The two range rules for physical reals reject NaN and +-inf
and return the value as a Python float. Every integer parameter goes
through ``check_count`` (a seed through ``check_seed``): any integer
type but bool, returned as a Python int. A min-entropy per code goes
through ``check_h_min``. A signal amplitude goes through
``check_amplitude``, which also owns its default, and every array of
bits through ``check_bits``. Settings objects store what the rules
return, so they stay JSON-able when given NumPy scalars.
"""
from __future__ import annotations

import math
import numbers
import operator
from dataclasses import asdict, dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import DelayTooSmallError, InvalidParameterError

#: Default signal peak as a fraction of the ADC range. 21/32 is exactly
#: representable in binary, leaves headroom below the top of the
#: quantization interval, and puts the sine peaks an integer number of
#: code widths from zero for every resolution of 6 bits and above.
DEFAULT_AMPLITUDE_FRACTION = 21.0 / 32.0

DEFAULT_SAMPLE_PERIOD_S = 1e-10
DEFAULT_SIGMA_ELE = 0.01
DEFAULT_N_SAMPLES = 2**22
DEFAULT_MASTER_SEED = 1


def as_int(value) -> int:
    """An integer read from JSON: an int, or a float with no fraction.

    Raises TypeError for a boolean or any other type and ValueError for
    a float with a fractional part or no finite value, where ``int()``
    would truncate ``4096.7`` or accept ``true``.
    """
    if isinstance(value, bool) or not isinstance(value, (numbers.Integral,
                                                         float)):
        raise TypeError(f"expected an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def as_float(value) -> float:
    """A real read from JSON: an int or a float, never a boolean or a string.

    Raises TypeError where ``float()`` would accept ``true`` or ``"9.5e6"``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def positive(name: str, value: float) -> float:
    """``value`` as a Python float if it is > 0 and finite; raises
    InvalidParameterError otherwise."""
    if not (value > 0 and math.isfinite(value)):
        raise InvalidParameterError(
            f"{name} must be > 0 and finite, got {value!r}")
    return float(value)


def non_negative(name: str, value: float) -> float:
    """``value`` as a Python float if it is >= 0 and finite; raises
    InvalidParameterError otherwise."""
    if not (value >= 0 and math.isfinite(value)):
        raise InvalidParameterError(
            f"{name} must be >= 0 and finite, got {value!r}")
    return float(value)


def one_of(name: str, value, choices: tuple[str, ...]) -> str:
    """``value`` if it is one of ``choices``; raises InvalidParameterError."""
    if value not in choices:
        raise InvalidParameterError(
            f"{name} must be {' or '.join(map(repr, choices))}, got {value!r}")
    return value


def _integer(value) -> int | None:
    """``value`` as a Python int when it has an integer type
    (``operator.index``) other than bool; None otherwise."""
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def check_seed(name: str, seed: int) -> int:
    """A master seed is a 64-bit stream key: an integer in [0, 2**64).

    Any integer type is accepted (``operator.index``) and returned as a
    Python int; a bool, a float or any other value is rejected.
    """
    value = _integer(seed)
    if value is None:
        raise InvalidParameterError(
            f"{name} must be an integer in [0, 2**64), got {seed!r}")
    if not 0 <= value < 2**64:
        raise InvalidParameterError(f"{name} must be in [0, 2**64), got {value}")
    return value


def check_count(name: str, n: int, least: int = 0,
                most: int | None = None) -> int:
    """An integer >= ``least``, and <= ``most`` when it is given.

    Any integer type is accepted (``operator.index``) and returned as a
    Python int; a bool, a float or any other value is rejected.
    """
    value = _integer(n)
    if value is None or value < least or (most is not None and value > most):
        bound = f">= {least}" if most is None else f"in [{least}, {most}]"
        raise InvalidParameterError(
            f"{name} must be an integer {bound}, got {n!r}")
    return value


def check_h_min(name: str, h_min_bits: float, adc_bits: int) -> float:
    """A min-entropy of n-bit codes, in [0, n] bits, as a Python float;
    raises InvalidParameterError for any other value, NaN included."""
    if not 0 <= h_min_bits <= adc_bits:
        raise InvalidParameterError(
            f"{name} must be in [0, {adc_bits}], got {h_min_bits}")
    return float(h_min_bits)


def check_n_samples(n_samples: int) -> int:
    """A phase path holds the theta(0) = 0 origin and at least one step,
    and fewer than 2**60 float64 samples: NumPy sizes no 2**63-byte array."""
    return check_count("n_samples", n_samples, 2, 2**60 - 1)


def check_welch(nfft: int, overlap_fraction: float) -> int:
    """Welch segments: a power-of-two length (returned), overlap in [0, 1)."""
    n = check_count("nfft", nfft, 2)
    if n & (n - 1):
        raise InvalidParameterError(
            f"nfft must be a power-of-two integer, got {nfft!r}")
    if not 0.0 <= overlap_fraction < 1.0:
        raise InvalidParameterError(
            f"overlap_fraction must be in [0, 1), got {overlap_fraction}")
    return n


def check_spectral(nfft: int, overlap_fraction: float,
                   plateau_bins: int) -> tuple[int, int]:
    """Welch segments as ``check_welch`` takes them, and the plateau
    bins of their spectrum, in [1, nfft/2]; nfft and plateau_bins are
    returned."""
    n = check_welch(nfft, overlap_fraction)
    return n, check_count("plateau_bins", plateau_bins, 1, n // 2)


def check_toeplitz_geometry(input_bits: int, output_bits: int) -> tuple[int, int]:
    """A Toeplitz hash maps input_bits >= 1 bits to 1 .. input_bits bits
    (both returned)."""
    n_in = check_count("input_bits", input_bits, 1)
    return n_in, check_count("output_bits", output_bits, 1, n_in)


def check_bits(name: str, bits) -> np.ndarray:
    """``bits`` as a uint8 array if it has an integer or bool dtype and
    every value is 0 or 1; raises InvalidParameterError otherwise, where
    a uint8 cast would truncate 0.7 to 0 or wrap -1 to 255."""
    arr = np.asarray(bits)
    kind = arr.dtype.kind
    if kind not in "biu":
        raise InvalidParameterError(
            f"{name} must be 0 or 1 in an integer or bool array, got {arr.dtype}")
    if arr.size and (arr.max() > 1 or kind == "i" and arr.min() < 0):
        raise InvalidParameterError(
            f"{name} must be 0 or 1, got values in [{arr.min()}, {arr.max()}]")
    return arr.astype(np.uint8, copy=False)


def delay_index(delay_s: float, sample_period_s: float) -> int:
    """Delay expressed in samples: round(delay / tau_s), ties away from zero.

    Raises DelayTooSmallError when the delay rounds below one sample.
    """
    positive("delay_s", delay_s)
    positive("sample_period_s", sample_period_s)
    k = math.floor(non_negative("delay in samples", delay_s / sample_period_s) + 0.5)
    if k < 1:
        raise DelayTooSmallError(
            f"delay {delay_s} s rounds to {k} samples at tau_s={sample_period_s} s")
    return k


@dataclass(frozen=True)
class AdcSpec:
    """An n-bit converter covering [-range - delta/2, range - delta/2].

    The interval is split into 2**bits half-open bins (i*delta - delta/2,
    i*delta + delta/2] for codes i in [-2**(bits-1), 2**(bits-1) - 1],
    with bin width delta = range / 2**(bits-1). The end codes saturate:
    code_min also takes every value below the interval and code_max
    every value above it.
    """

    bits: int = 8
    range: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(  # a NumPy int is not JSON
            self, "bits", check_count("adc bits", self.bits, 2, 16))
        object.__setattr__(self, "range", positive("adc.range", self.range))

    @property
    def delta(self) -> float:
        """Bin width in volts."""
        return self.range / 2 ** (self.bits - 1)

    @property
    def code_min(self) -> int:
        return -(2 ** (self.bits - 1))

    @property
    def code_max(self) -> int:
        return 2 ** (self.bits - 1) - 1

    @property
    def n_codes(self) -> int:
        return 2**self.bits

    def default_amplitude(self) -> float:
        return DEFAULT_AMPLITUDE_FRACTION * self.range

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "AdcSpec":
        return cls(bits=as_int(d["bits"]), range=as_float(d["range"]))


def check_amplitude(amplitude: float | None, adc: AdcSpec) -> float:
    """The signal peak of a design on ``adc``: ``amplitude`` if it is > 0
    and finite, or the converter's default when it is None."""
    if amplitude is None:
        return adc.default_amplitude()
    return positive("amplitude", amplitude)


@dataclass(frozen=True)
class SystemParams:
    """Complete description of one design point.

    ``amplitude`` defaults to 21/32 of the ADC range when omitted; it is
    independently configurable for sensitivity studies, and one above
    range - delta/2 clips at the end codes.
    """

    linewidth_hz: float
    delay_s: float
    amplitude: float | None = None
    sigma_ele: float = DEFAULT_SIGMA_ELE
    sample_period_s: float = DEFAULT_SAMPLE_PERIOD_S
    adc: AdcSpec = field(default_factory=AdcSpec)

    def __post_init__(self) -> None:
        keep = partial(object.__setattr__, self)  # a NumPy scalar is not JSON
        keep("linewidth_hz", non_negative("linewidth_hz", self.linewidth_hz))
        keep("amplitude", check_amplitude(self.amplitude, self.adc))
        keep("sigma_ele", non_negative("sigma_ele", self.sigma_ele))
        keep("delay_s", positive("delay_s", self.delay_s))
        keep("sample_period_s",
             positive("sample_period_s", self.sample_period_s))
        self.delay_samples  # checks k >= 1

    @cached_property
    def delay_samples(self) -> int:
        return delay_index(self.delay_s, self.sample_period_s)

    def to_dict(self) -> dict:
        return asdict(self)
