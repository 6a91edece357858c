"""Generative model of the entropy source.

The laser phase executes Brownian motion: successive phase increments
over one sample period are independent N(0, 2*pi*linewidth*tau_s)
draws, and the discrete phase path is their cumulative sum. Delayed
self-interference converts the phase increment over the interferometer
delay into a voltage A*sin(dtheta), electronic noise adds on top, and
an idealized ADC maps voltages to signed integer codes.

A design point's quantum trace is built in one buffer
(``_quantum_trace``, the route of ``evaluate_point`` and ``lpnqrng
simulate``): the n - 1 variates that ``gaussian_stream`` returns.

- They are scaled to phase steps and summed in place, so the buffer
  holds theta[1 .. n-1]; the origin theta[0] = 0 is implicit.
- The buffer is then overwritten from the top down with
  q[m] = A*sin(theta[m+k] - theta[m]) in the slot of theta[m+k], so q
  is the view ``buf[k-1:]``. A slot is written only after every sample
  that reads it.
- The samples are split into parts as in ``quantum_noise``. The part
  below a part overwrites the operands of that part's lowest
  min(k, part) samples. So every part first computes those heads into
  a small array, all parts at once. Then each part computes the rest
  from its top down through a cache-sized scratch chunk, and writes its
  head last. Part 0's head is its one sample that reads theta[0].

The route holds at most n + (parts - 1)*min(k, part) samples, plus one
chunk per part; ``sample_phase_path`` then ``quantum_noise`` hold 2n.
Its bytes are theirs.

All operations are pure: outputs depend only on explicit arguments and
seeds, and returned traces are immutable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _parallel
from .errors import InvalidParameterError, PathTooShortError
from .params import (AdcSpec, check_count, check_n_samples, check_seed,
                     non_negative, one_of, positive)
from .rng import gaussian_stream

TWO_PI = 2.0 * math.pi

# samples per unit of quantum_noise's split: a smaller part costs more
# to hand to a thread than its sines take
_PART_QUANTUM = 2**15

# samples per scratch chunk of _quantum_trace: the chunk and its
# operands stay in cache through the subtract, sin, scale and copy
_CHUNK = 2**13

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
        object.__setattr__(self, "sample_period_s",
                           positive("sample_period_s", self.sample_period_s))
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
        object.__setattr__(self, "sample_period_s",
                           positive("sample_period_s", self.sample_period_s))
        codes = np.asarray(self.codes)
        if not np.issubdtype(codes.dtype, np.integer):
            raise InvalidParameterError(
                f"codes must have an integer dtype, got {codes.dtype}")
        # on the values as given: a cast first would wrap them
        if codes.size and (codes.min() < self.adc.code_min
                           or codes.max() > self.adc.code_max):
            raise InvalidParameterError("codes outside the ADC code range")
        object.__setattr__(self, "codes",
                           _freeze(codes.astype(np.int16, copy=False)))

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
    std = _step_std(linewidth_hz, sample_period_s)
    out = np.empty(n_samples)
    out[0] = 0.0
    if std == 0.0:
        out[1:] = 0.0
    else:
        steps = gaussian_stream(seed, n_samples - 1)
        steps *= std
        np.cumsum(steps, out=out[1:])
    return PhasePath(out, sample_period_s)


def _step_std(linewidth_hz: float, sample_period_s: float) -> float:
    """Standard deviation of one phase step, sqrt(2*pi*linewidth*tau_s)."""
    return math.sqrt(TWO_PI * non_negative("linewidth_hz", linewidth_hz)
                     * positive("sample_period_s", sample_period_s))


def _check_interference(n_path: int, k: int, amplitude: float) -> int:
    """The delay index k, checked with the amplitude against a path of
    ``n_path`` samples."""
    k = check_count("delay index", k, 1)
    positive("amplitude", amplitude)
    if n_path <= k:
        raise PathTooShortError(
            f"path of {n_path} samples cannot support delay index {k}")
    return k


def quantum_noise(path: PhasePath, k: int, amplitude: float) -> AnalogTrace:
    """Delayed self-interference output A*sin(theta[m+k] - theta[m]).

    The result has len(path) - k samples and every sample lies in
    [-amplitude, amplitude]. The samples are computed in at most one
    part per CPU the process may run on, split at multiples of 2**15
    samples; each sample is the same subtract, sin and scale whatever
    the split, so the output does not depend on the core count.
    """
    theta = path.samples
    k = _check_interference(len(theta), k, amplitude)
    q = np.empty(len(theta) - k)
    _parallel.run(lambda a, b: _interfere(theta[a + k:b + k], theta[a:b],
                                          amplitude, q[a:b]),
                  _parallel.split(len(q), _PART_QUANTUM))
    return AnalogTrace(q, path.sample_period_s, LABEL_QUANTUM)


def _interfere(later: np.ndarray, earlier: np.ndarray, amplitude: float,
               out: np.ndarray) -> None:
    """amplitude * sin(later - earlier) into ``out``: the one interference
    formula, which quantum_noise and _quantum_trace share."""
    np.subtract(later, earlier, out=out)
    np.sin(out, out=out)
    out *= amplitude


def _quantum_trace(linewidth_hz: float, sample_period_s: float,
                   n_samples: int, k: int, amplitude: float,
                   seed: int) -> AnalogTrace:
    """quantum_noise(sample_phase_path(linewidth_hz, sample_period_s,
    n_samples, seed), k, amplitude), byte for byte and with the same
    errors in the same order, built in one buffer (module docstring)."""
    n = check_n_samples(n_samples)
    std = _step_std(linewidth_hz, sample_period_s)
    if std:  # where sample_phase_path's draw checks the seed
        check_seed("seed", seed)
    k = _check_interference(n, k, amplitude)
    if not std:
        return AnalogTrace(np.zeros(n - k), sample_period_s, LABEL_QUANTUM)
    buf = gaussian_stream(seed, n - 1)
    buf *= std
    np.cumsum(buf, out=buf)  # buf[j] = theta[j + 1]
    parts = _parallel.split(n - k, _PART_QUANTUM)
    heads = [np.empty(min(k, b - a) if a else 1) for a, b in parts]

    def head(p: int, a: int) -> None:
        # sample m reads theta[m] from buf[m - 1]; theta[0] = 0 is no slot
        out = heads[p]
        earlier = buf[a - 1:a - 1 + len(out)] if a else np.zeros(1)
        _interfere(buf[a + k - 1:a + k - 1 + len(out)], earlier, amplitude,
                   out)

    def rest(p: int, a: int, b: int) -> None:
        low = a + len(heads[p])
        scratch = np.empty(min(_CHUNK, b - low))
        for top in range(b, low, -_CHUNK):
            m = max(low, top - _CHUNK)
            out = scratch[:top - m]
            _interfere(buf[m + k - 1:top + k - 1], buf[m - 1:top - 1],
                       amplitude, out)
            buf[m + k - 1:top + k - 1] = out
        buf[a + k - 1:low + k - 1] = heads[p]

    # every head is computed before any part writes the buffer
    _parallel.run(head, [(p, a) for p, (a, _) in enumerate(parts)])
    _parallel.run(rest, [(p, a, b) for p, (a, b) in enumerate(parts)])
    return AnalogTrace(buf[k - 1:], sample_period_s, LABEL_QUANTUM)


def add_electronic_noise(trace: AnalogTrace, sigma_ele: float,
                         seed: int) -> AnalogTrace:
    """Measured signal M = Q + C with i.i.d. zero-mean Gaussian C."""
    if non_negative("sigma_ele", sigma_ele) == 0.0:
        m = trace.samples  # frozen, so the two traces share it
    else:
        m = gaussian_stream(seed, len(trace))
        m *= sigma_ele
        m += trace.samples
    return AnalogTrace(m, trace.sample_period_s, LABEL_MEASURED)


def quantize(trace: AnalogTrace, adc: AdcSpec) -> QuantizedTrace:
    """Map voltages to ADC codes.

    code(x) = ceil(x / delta - 1/2) clamped to the code range, which
    realizes half-open bins (i*delta - delta/2, i*delta + delta/2] with
    out-of-range inputs, +-inf included, saturating to the end codes. A
    NaN sample has no code and raises InvalidParameterError.
    """
    codes = trace.samples / adc.delta
    codes -= 0.5
    np.ceil(codes, out=codes)
    np.clip(codes, adc.code_min, adc.code_max, out=codes)
    # the clipped codes are finite but for NaN, which min propagates
    if codes.size and np.isnan(codes.min()):
        raise InvalidParameterError("a sample is NaN; it has no ADC code")
    return QuantizedTrace(codes.astype(np.int16), adc, trace.sample_period_s)


def quantize_value(x: float, adc: AdcSpec) -> int:
    """Scalar form of :func:`quantize`; gives analytic H_min its top code."""
    code = math.ceil(x / adc.delta - 0.5)
    return int(min(max(code, adc.code_min), adc.code_max))
