"""Parameter rules, and the physical and digitizer parameters of a design.

This module owns the parameter rules. Each is one function, called where
the value enters: a JSON reader, a typed settings object, or a public
function. The two range rules for physical reals reject NaN and +-inf.
"""
from __future__ import annotations

import math
import numbers
import operator
from dataclasses import asdict, dataclass, field
from functools import cached_property

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


def positive(name: str, value: float, error=InvalidParameterError) -> float:
    """``value`` if it is > 0 and finite; raises ``error`` otherwise."""
    if not (value > 0 and math.isfinite(value)):
        raise error(f"{name} must be > 0 and finite, got {value!r}")
    return value


def non_negative(name: str, value: float, error=InvalidParameterError) -> float:
    """``value`` if it is >= 0 and finite; raises ``error`` otherwise."""
    if not (value >= 0 and math.isfinite(value)):
        raise error(f"{name} must be >= 0 and finite, got {value!r}")
    return value


def one_of(name: str, value, choices: tuple[str, ...]) -> str:
    """``value`` if it is one of ``choices``; raises InvalidParameterError."""
    if value not in choices:
        raise InvalidParameterError(
            f"{name} must be {' or '.join(map(repr, choices))}, got {value!r}")
    return value


def check_n_samples(n_samples: int) -> None:
    """A phase path holds the theta(0) = 0 origin and at least one step,
    and fewer than 2**60 float64 samples: NumPy sizes no 2**63-byte array."""
    if n_samples < 2:
        raise InvalidParameterError(f"n_samples must be >= 2, got {n_samples}")
    if n_samples >= 2**60:
        raise InvalidParameterError(f"n_samples must be < 2**60, got {n_samples}")


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


def check_count(name: str, n: int) -> int:
    """A number of values to draw: an integer >= 0.

    Any integer type is accepted (``operator.index``) and returned as a
    Python int; a bool, a float or any other value is rejected.
    """
    value = _integer(n)
    if value is None or value < 0:
        raise InvalidParameterError(
            f"{name} must be an integer >= 0, got {n!r}")
    return value


def check_welch(nfft: int, overlap_fraction: float) -> None:
    """Welch segments: a power-of-two length and an overlap in [0, 1)."""
    if nfft < 2 or (nfft & (nfft - 1)) != 0:
        raise InvalidParameterError(f"nfft must be a power of two, got {nfft}")
    if not 0.0 <= overlap_fraction < 1.0:
        raise InvalidParameterError(
            f"overlap_fraction must be in [0, 1), got {overlap_fraction}")


def check_plateau_bins(plateau_bins: int, n_bins: int) -> None:
    """The plateau reference spans bins 1 .. plateau_bins of n_bins."""
    if not 1 <= plateau_bins < n_bins:
        raise InvalidParameterError(
            f"plateau_bins must be in [1, {n_bins - 1}], got {plateau_bins}")


def check_toeplitz_geometry(
        input_bits: int, output_bits: int,
        names: tuple[str, str] = ("input_bits", "output_bits")) -> None:
    """A Toeplitz hash maps input_bits >= 1 bits to 1 .. input_bits bits.

    ``names`` are what the error message calls the two sizes.
    """
    in_name, out_name = names
    if input_bits < 1:
        raise InvalidParameterError(f"{in_name} must be >= 1, got {input_bits}")
    if not 1 <= output_bits <= input_bits:
        raise InvalidParameterError(
            f"{out_name} must be in [1, {in_name}], got {output_bits}")


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
    with bin width delta = range / 2**(bits-1).
    """

    bits: int = 8
    range: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.bits, int) or not 2 <= self.bits <= 16:
            raise InvalidParameterError(
                f"adc bits must be an integer in [2, 16], got {self.bits!r}")
        positive("adc.range", self.range)

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


@dataclass(frozen=True)
class SystemParams:
    """Complete description of one design point.

    ``amplitude`` defaults to 21/32 of the ADC range when omitted; it is
    independently configurable for sensitivity studies but must stay at
    or below range - delta/2 for the analytic entropy model to apply.
    """

    linewidth_hz: float
    delay_s: float
    amplitude: float | None = None
    sigma_ele: float = DEFAULT_SIGMA_ELE
    sample_period_s: float = DEFAULT_SAMPLE_PERIOD_S
    adc: AdcSpec = field(default_factory=AdcSpec)

    def __post_init__(self) -> None:
        if self.amplitude is None:
            object.__setattr__(self, "amplitude", self.adc.default_amplitude())
        non_negative("linewidth_hz", self.linewidth_hz)
        positive("amplitude", self.amplitude)
        non_negative("sigma_ele", self.sigma_ele)
        self.delay_samples  # checks delay_s, sample_period_s and k >= 1

    @cached_property
    def delay_samples(self) -> int:
        return delay_index(self.delay_s, self.sample_period_s)

    def to_dict(self) -> dict:
        return asdict(self)
