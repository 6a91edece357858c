"""Generative model of the entropy source.

The laser phase executes Brownian motion: successive phase increments
over one sample period are independent N(0, 2*pi*linewidth*tau_s)
draws, and the discrete phase path is their cumulative sum. Delayed
self-interference converts the phase increment over the interferometer
delay into a voltage A*sin(dtheta), electronic noise adds on top, and
an idealized ADC maps voltages to signed integer codes.

Each stage has one implementation. ``_walk`` has ``gaussian_stream``
draw the n - 1 phase steps, already scaled, straight into the buffer it
is given, and sums them there in place. ``sample_phase_path`` gives it
the tail of the new path behind theta[0] = 0, so the path is the only
n-sample array it holds; the route of ``evaluate_point`` and
``lpnqrng simulate`` (``_quantum_trace``) gives it a buffer that then
holds theta[1 .. n-1]. ``_interfere`` then writes
q[m] = A*sin(theta[m+k] - theta[m]) for a path given as theta[0] and
theta[1:] into the output array its caller passes, after the caller
has checked that the path is longer than k (``_check_delay``):

- ``quantum_noise`` checks the delay index and the amplitude too, and
  passes a frozen path and a new array;
- the route takes a ``SystemParams``, which has checked both, and
  checks n_samples and the path length before any variate is drawn.
  It passes the view ``buf[k-1:]`` of its buffer: q[m] lies in the
  slot of theta[m+k], which is written only after every sample that
  reads it.

The samples are split into parts, at most one per CPU. The part below
a part overwrites the operands of that part's lowest min(k, part)
samples when the output aliases the path. So the calling thread first
computes every part's head, those samples, into a small array of its
own. Then the parts run at once, in one ``_parallel.run`` call: each
computes the rest from its top down through a cache-sized scratch
chunk, and writes its head last. Part 0's head is its one sample that
reads theta[0].

The route holds at most n + (parts - 1)*min(k, part) samples, plus one
chunk per part; ``sample_phase_path`` then ``quantum_noise`` hold 2n.
Its bytes are theirs.

``quantize`` runs on the calling thread, a cache-sized scratch chunk at
a time: on two cores a second thread made it no faster (module doc of
``_parallel``).

A chunk (``_CHUNK``) is 2**15 samples. Each chunk costs a handful of
NumPy calls whose fixed cost does not shrink with the chunk; at 2**13
samples that cost was about a quarter of ``quantize``'s time. Medians
of 30 alternated calls on a 2-core x86-64 machine (4 MiB L2 per core),
ms:

    layer           samples   2**13   2**14   2**15   2**16
    quantize        2**23      32.1    26.2    23.3    22.4
    quantize        2**20       5.1     4.1     3.5     3.4
    quantum_noise   2**23      74.6    73.0    69.9    68.3
    quantum_noise   2**20       8.5     7.5     8.7     8.6

2**15 was faster than 2**13 in 30 of 30 ``quantize`` calls at both
sizes, and in 21 and 22 of 30 interference calls. In a second run,
2**16 was about 5% faster again for ``quantize`` (24 and 27 of 30
calls) and no faster for the interference (12 and 13 of 30). But at
2**16 an interference chunk and the two path windows it reads take
1.5 MiB per part, more than a 1 MiB L2; at 2**15 they take 768 KiB.

All operations are pure: outputs depend only on explicit arguments and
seeds, and returned traces are immutable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _parallel
from .errors import InvalidParameterError, PathTooShortError
from .params import (AdcSpec, SystemParams, check_count, check_n_samples,
                     check_seed, non_negative, one_of, positive)
from .rng import gaussian_stream

TWO_PI = 2.0 * math.pi

# samples per unit of the split of _interfere: a smaller part costs
# more to hand to a thread than its work takes
_PART_QUANTUM = 2**15

# samples per scratch chunk of _interfere and quantize: the chunk and
# its operands stay in cache through each pass over it, and each chunk
# is long enough that the per-call cost of its NumPy calls is small
# against their work (module docstring)
_CHUNK = 2**15

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
    n = check_n_samples(n_samples)
    std = _step_std(linewidth_hz, sample_period_s, seed)
    path = np.empty(n)
    path[0] = 0.0
    _walk(std, seed, path[1:])
    return PhasePath(path, sample_period_s)


def _step_std(linewidth_hz: float, sample_period_s: float,
              seed: int) -> float:
    """The standard deviation of a phase step, sqrt(2*pi*linewidth*tau_s).
    The seed is checked only where a stream is drawn (a step std > 0),
    before the caller allocates the path."""
    std = math.sqrt(TWO_PI * non_negative("linewidth_hz", linewidth_hz)
                    * positive("sample_period_s", sample_period_s))
    if std != 0.0:
        check_seed("seed", seed)
    return std


def _walk(std: float, seed: int, theta: np.ndarray) -> None:
    """theta[1 .. n-1] of a path, in ``theta``: the cumulative sum of
    n - 1 steps of ``std`` drawn into it in place; zeros at std 0, where
    no stream is drawn."""
    if std == 0.0:
        theta.fill(0.0)
        return
    gaussian_stream(seed, len(theta), scale=std, out=theta)
    np.cumsum(theta, out=theta)


def quantum_noise(path: PhasePath, k: int, amplitude: float) -> AnalogTrace:
    """Delayed self-interference output A*sin(theta[m+k] - theta[m]).

    The result has len(path) - k samples and every sample lies in
    [-amplitude, amplitude]. It is a new array: the path is only read.
    The samples are computed in at most one part per CPU the process may
    run on, split at multiples of 2**15 samples; each sample is the same
    subtract, sin and scale whatever the split, so the output does not
    depend on the core count.
    """
    k = check_count("delay index", k, 1)
    positive("amplitude", amplitude)
    _check_delay(len(path), k)
    q = _interfere(path.samples[:1], path.samples[1:], k, amplitude,
                   np.empty(len(path) - k))
    return AnalogTrace(q, path.sample_period_s, LABEL_QUANTUM)


def _check_delay(n: int, k: int) -> None:
    """Raises PathTooShortError unless a path of n samples is longer
    than the delay index k."""
    if n <= k:
        raise PathTooShortError(
            f"path of {n} samples cannot support delay index {k}")


def _interfere(origin: np.ndarray, theta: np.ndarray, k: int,
               amplitude: float, out: np.ndarray) -> np.ndarray:
    """``out``, holding q[m] = amplitude*sin(theta[m+k] - theta[m]) of
    the path whose theta[0] is ``origin[0]`` and whose theta[1:] is
    ``theta``; ``out`` is a new array or the view theta[k-1:] (module
    docstring). k is a Python int, at least 1 and less than the path's
    length. The heads are computed on the calling thread, then the parts
    run in one ``_parallel.run`` call."""
    parts = _parallel.split(len(out), _PART_QUANTUM)
    heads = [np.empty(min(k, b - a) if a else 1) for a, b in parts]

    def wave(m: int, top: int, dst: np.ndarray) -> None:
        # samples m .. top - 1; theta[j] holds the path's sample j + 1
        earlier = theta[m - 1:top - 1] if m else origin
        np.subtract(theta[m + k - 1:top + k - 1], earlier, out=dst)
        np.sin(dst, out=dst)
        dst *= amplitude

    def rest(p: int, a: int, b: int) -> None:
        low = a + len(heads[p])
        scratch = np.empty(min(_CHUNK, b - low))
        for top in range(b, low, -_CHUNK):
            m = max(low, top - _CHUNK)
            wave(m, top, scratch[:top - m])
            out[m:top] = scratch[:top - m]
        out[a:low] = heads[p]

    # every head is computed before any part writes ``out``
    for (a, _), head in zip(parts, heads):
        wave(a, a + len(head), head)
    _parallel.run(rest, [(p, a, b) for p, (a, b) in enumerate(parts)])
    return out


def _quantum_trace(design: SystemParams, n_samples: int,
                   seed: int) -> AnalogTrace:
    """quantum_noise(sample_phase_path(design.linewidth_hz,
    design.sample_period_s, n_samples, seed), design.delay_samples,
    design.amplitude), byte for byte, built in one buffer (module
    docstring). ``SystemParams`` has checked the design; n_samples, the
    path length and then the seed are checked here, before the buffer
    is allocated."""
    k = design.delay_samples
    n = check_n_samples(n_samples)
    _check_delay(n, k)
    theta = np.empty(n - 1)
    _walk(_step_std(design.linewidth_hz, design.sample_period_s, seed),
          seed, theta)
    q = _interfere(np.zeros(1), theta, k, design.amplitude, theta[k - 1:])
    return AnalogTrace(q, design.sample_period_s, LABEL_QUANTUM)


def add_electronic_noise(trace: AnalogTrace, sigma_ele: float,
                         seed: int) -> AnalogTrace:
    """Measured signal M = Q + C with i.i.d. zero-mean Gaussian C, drawn
    already scaled into the array that becomes M."""
    if non_negative("sigma_ele", sigma_ele) == 0.0:
        m = trace.samples  # frozen, so the two traces share it
    else:
        m = gaussian_stream(seed, len(trace), scale=sigma_ele)
        m += trace.samples
    return AnalogTrace(m, trace.sample_period_s, LABEL_MEASURED)


def quantize(trace: AnalogTrace, adc: AdcSpec) -> QuantizedTrace:
    """Map voltages to ADC codes.

    code(x) = ceil(x / delta - 1/2) clamped to the code range, which
    realizes half-open bins (i*delta - delta/2, i*delta + delta/2] with
    out-of-range inputs, +-inf included, saturating to the end codes. A
    NaN sample has no code and raises InvalidParameterError.

    It runs on the calling thread through one scratch chunk of 2**15
    samples, so it makes no temporary as long as the trace.
    """
    x = trace.samples
    codes = np.empty(len(x), dtype=np.int16)
    scratch = np.empty(min(_CHUNK, len(x)))
    for m in range(0, len(x), _CHUNK):
        top = min(len(x), m + _CHUNK)
        c = scratch[:top - m]
        np.divide(x[m:top], adc.delta, out=c)
        c -= 0.5
        np.ceil(c, out=c)
        np.clip(c, adc.code_min, adc.code_max, out=c)
        # the clipped codes are finite but for NaN, which min propagates
        if np.isnan(c.min()):
            raise InvalidParameterError("a sample is NaN; it has no ADC code")
        codes[m:top] = c
    return QuantizedTrace(codes, adc, trace.sample_period_s)


def quantize_value(x: float, adc: AdcSpec) -> int:
    """Scalar form of :func:`quantize`; gives analytic H_min its top code."""
    code = math.ceil(x / adc.delta - 0.5)
    return int(min(max(code, adc.code_min), adc.code_max))
