"""Generative model of the entropy source.

The laser phase executes Brownian motion: successive phase increments
over one sample period are independent N(0, 2*pi*linewidth*tau_s)
draws, and the discrete phase path is their cumulative sum. Delayed
self-interference converts the phase increment over the interferometer
delay into a voltage A*sin(dtheta), electronic noise adds on top, and
an idealized ADC maps voltages to signed integer codes.

All operations are pure: outputs depend only on explicit arguments and
seeds, and returned traces are immutable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _parallel
from .errors import InvalidParameterError, PathTooShortError
from .params import AdcSpec, check_n_samples, non_negative, one_of, positive
from .rng import gaussian_stream

TWO_PI = 2.0 * math.pi

# samples per unit of quantum_noise's split: a smaller part costs more
# to hand to a thread than its sines take
_PART_QUANTUM = 2**15

LABEL_QUANTUM = "quantum"
LABEL_MEASURED = "measured"
LABELS = (LABEL_QUANTUM, LABEL_MEASURED)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PhasePath:
    """Discrete Wiener phase samples theta(m * tau_s), theta(0) = 0."""

    samples: np.ndarray
    sample_period_s: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples",
                           _freeze(np.asarray(self.samples, dtype=np.float64)))

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class AnalogTrace:
    """Real-valued voltage samples with sampling metadata."""

    samples: np.ndarray
    sample_period_s: float
    label: str

    def __post_init__(self) -> None:
        one_of("trace label", self.label, LABELS)
        positive("sample_period_s", self.sample_period_s)
        object.__setattr__(self, "samples",
                           _freeze(np.asarray(self.samples, dtype=np.float64)))

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class QuantizedTrace:
    """Signed integer ADC codes with the converter that produced them."""

    codes: np.ndarray
    adc: AdcSpec
    sample_period_s: float

    def __post_init__(self) -> None:
        positive("sample_period_s", self.sample_period_s)
        codes = np.asarray(self.codes, dtype=np.int16)
        if codes.size and (codes.min() < self.adc.code_min
                           or codes.max() > self.adc.code_max):
            raise InvalidParameterError("codes outside the ADC code range")
        object.__setattr__(self, "codes", _freeze(codes))

    def __len__(self) -> int:
        return len(self.codes)


def sample_phase_path(linewidth_hz: float, sample_period_s: float,
                      n_samples: int, seed: int) -> PhasePath:
    """Draw one discrete Wiener phase path.

    Parameters
    ----------
    linewidth_hz : float
        Lorentzian linewidth; sets the increment variance
        2*pi*linewidth*tau_s.
    sample_period_s : float
        tau_s.
    n_samples : int
        Path length including the theta(0) = 0 origin; must be >= 2.
    seed : int
        64-bit stream seed; same seed and parameters reproduce the
        path bit for bit.
    """
    check_n_samples(n_samples)
    std = math.sqrt(TWO_PI * non_negative("linewidth_hz", linewidth_hz)
                    * positive("sample_period_s", sample_period_s))
    out = np.empty(n_samples)
    out[0] = 0.0
    if std == 0.0:
        out[1:] = 0.0
    else:
        steps = gaussian_stream(seed, n_samples - 1)
        steps *= std
        np.cumsum(steps, out=out[1:])
    return PhasePath(out, sample_period_s)


def quantum_noise(path: PhasePath, k: int, amplitude: float) -> AnalogTrace:
    """Delayed self-interference output A*sin(theta[m+k] - theta[m]).

    The result has len(path) - k samples and every sample lies in
    [-amplitude, amplitude]. The samples are computed in at most one
    part per CPU the process may run on, split at multiples of 2**15
    samples; each sample is the same subtract, sin and scale whatever
    the split, so the output does not depend on the core count.
    """
    if k < 1:
        raise InvalidParameterError(f"delay index must be >= 1, got {k}")
    positive("amplitude", amplitude)
    theta = path.samples
    if len(theta) <= k:
        raise PathTooShortError(
            f"path of {len(theta)} samples cannot support delay index {k}")
    q = np.empty(len(theta) - k)
    _parallel.run_parts(len(q), _PART_QUANTUM, lambda a, b: _interfere(
        theta, k, amplitude, a, q[a:b]))
    return AnalogTrace(q, path.sample_period_s, LABEL_QUANTUM)


def _interfere(theta: np.ndarray, k: int, amplitude: float, start: int,
               out: np.ndarray) -> None:
    """Samples start .. start + len(out) of quantum_noise, into ``out``."""
    end = start + len(out)
    np.subtract(theta[start + k:end + k], theta[start:end], out=out)
    np.sin(out, out=out)
    out *= amplitude


def add_electronic_noise(trace: AnalogTrace, sigma_ele: float,
                         seed: int) -> AnalogTrace:
    """Measured signal M = Q + C with i.i.d. zero-mean Gaussian C."""
    if non_negative("sigma_ele", sigma_ele) == 0.0:
        m = trace.samples.copy()
    else:
        m = gaussian_stream(seed, len(trace))
        m *= sigma_ele
        m += trace.samples
    return AnalogTrace(m, trace.sample_period_s, LABEL_MEASURED)


def quantize(trace: AnalogTrace, adc: AdcSpec) -> QuantizedTrace:
    """Map voltages to ADC codes.

    code(x) = ceil(x / delta - 1/2) clamped to the code range, which
    realizes half-open bins (i*delta - delta/2, i*delta + delta/2] with
    out-of-range inputs saturating to the end codes.
    """
    codes = trace.samples / adc.delta
    codes -= 0.5
    np.ceil(codes, out=codes)
    np.clip(codes, adc.code_min, adc.code_max, out=codes)
    return QuantizedTrace(codes.astype(np.int16), adc, trace.sample_period_s)


def quantize_value(x: float, adc: AdcSpec) -> int:
    """Scalar form of :func:`quantize`; gives analytic H_min its top code."""
    code = math.ceil(x / adc.delta - 0.5)
    return int(min(max(code, adc.code_min), adc.code_max))
