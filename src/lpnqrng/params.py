"""Physical and digitizer parameters for one design point."""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

from .errors import InvalidParameterError

#: Default signal peak as a fraction of the ADC range. 21/32 is exactly
#: representable in binary, leaves headroom below the top of the
#: quantization interval, and puts the sine peaks an integer number of
#: code widths from zero for every resolution of 6 bits and above.
DEFAULT_AMPLITUDE_FRACTION = 21.0 / 32.0

DEFAULT_SAMPLE_PERIOD_S = 1e-10
DEFAULT_SIGMA_ELE = 0.01
DEFAULT_N_SAMPLES = 2**22


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
        if not (self.range > 0 and math.isfinite(self.range)):
            raise InvalidParameterError(
                f"adc range must be positive and finite, got {self.range!r}")

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
        return {"bits": self.bits, "range": self.range}

    @classmethod
    def from_dict(cls, d: dict) -> "AdcSpec":
        return cls(bits=as_int(d["bits"]), range=float(d["range"]))


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
        if not (self.linewidth_hz >= 0 and math.isfinite(self.linewidth_hz)):
            raise InvalidParameterError(
                f"linewidth_hz must be >= 0, got {self.linewidth_hz!r}")
        if not (self.delay_s > 0 and math.isfinite(self.delay_s)):
            raise InvalidParameterError(
                f"delay_s must be > 0, got {self.delay_s!r}")
        if not (self.sample_period_s > 0 and math.isfinite(self.sample_period_s)):
            raise InvalidParameterError(
                f"sample_period_s must be > 0, got {self.sample_period_s!r}")
        if not (self.amplitude > 0 and math.isfinite(self.amplitude)):
            raise InvalidParameterError(
                f"amplitude must be > 0, got {self.amplitude!r}")
        if not (self.sigma_ele >= 0 and math.isfinite(self.sigma_ele)):
            raise InvalidParameterError(
                f"sigma_ele must be >= 0, got {self.sigma_ele!r}")
        # k >= 1 after rounding; delegated so the error message is shared
        from .simulate import delay_index

        delay_index(self.delay_s, self.sample_period_s)

    @property
    def delay_samples(self) -> int:
        from .simulate import delay_index

        return delay_index(self.delay_s, self.sample_period_s)

    def with_design(self, linewidth_hz: float, delay_s: float) -> "SystemParams":
        """Copy with a new (linewidth, delay) pair; used by grid sweeps."""
        return replace(self, linewidth_hz=linewidth_hz, delay_s=delay_s)

    def to_dict(self) -> dict:
        return {
            "linewidth_hz": self.linewidth_hz,
            "delay_s": self.delay_s,
            "amplitude": self.amplitude,
            "sigma_ele": self.sigma_ele,
            "sample_period_s": self.sample_period_s,
            "adc": self.adc.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SystemParams":
        return cls(
            linewidth_hz=float(d["linewidth_hz"]),
            delay_s=float(d["delay_s"]),
            amplitude=None if d.get("amplitude") is None else float(d["amplitude"]),
            sigma_ele=float(d.get("sigma_ele", DEFAULT_SIGMA_ELE)),
            sample_period_s=float(d.get("sample_period_s", DEFAULT_SAMPLE_PERIOD_S)),
            adc=AdcSpec.from_dict(d["adc"]) if "adc" in d else AdcSpec(),
        )
