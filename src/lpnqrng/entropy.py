"""Quantum min-entropy, analytic and empirical.

The interferometer output A*sin(dtheta) maps a Gaussian phase
difference dtheta ~ N(0, sigma2) onto [-A, A]. The probability of any
ADC bin is the Gaussian mass of the preimage of that bin under the
sine, a union of two interval families repeating with period 2*pi.
Min-entropy is -log2 of the most probable code (Haw et al., Phys. Rev.
Applied 3, 054004 (2015)). As in the simulated ADC, the end codes take
every value beyond them, so any amplitude > 0 is modelled. The
distribution is symmetric about code 0 but at the end codes, so the
codes 0 up to the code of A take every value it has. The sweep has one
H_min route, this analytic one; the plug-in estimate from a code trace
serves measured codes.

Variance bookkeeping for measured data lives here too: the forward map
from phase-noise variance to quantum-noise variance, its inverse, and
the subtraction of independent classical noise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from . import _parallel
from .errors import (ClassicalExceedsMeasuredError, EmptyTraceError,
                     InvalidParameterError, VarianceOutOfRangeError)
from .params import AdcSpec, non_negative, positive
from .simulate import TWO_PI, QuantizedTrace, quantize_value

METHOD_ANALYTIC = "analytic"
METHOD_EMPIRICAL = "empirical"

#: codes per code_histogram chunk: the chunk widened to intp, and at
#: 16 bits the counts bincount returns, are 512 KiB each
_HISTOGRAM_CHUNK = 2**16

#: code_histogram splits its codes at multiples of this, so a trace of
#: at most this many codes is counted on the calling thread: a second
#: worker was no faster at 2**20 codes and faster at 2**23 (``_parallel``)
_HISTOGRAM_PART = 2**22


@dataclass(frozen=True)
class EntropyReport:
    """P_C, P_R, the largest code probability P_max and h = -log2(P_max).

    P_C is the probability of code 0. P_R is, in the analytic route, the
    probability of the ADC's code of A, clamped to the code range, and in
    the empirical route the frequency of the topmost occupied code; so at
    zero phase variance the two read 0.0 and 1.0.
    """

    p_c: float
    p_r: float
    p_max: float
    sigma2: float | None
    method: str

    @property
    def h_min(self) -> float:
        # 0.0 - x, not -x: P_max = 1 gives h = +0.0, never -0.0
        return 0.0 - math.log2(self.p_max)


def phase_variance(linewidth_hz: float, delay_s: float) -> float:
    """Phase-difference variance 2*pi*linewidth*delay in rad^2."""
    non_negative("linewidth_hz", linewidth_hz)
    positive("delay_s", delay_s)
    return TWO_PI * (linewidth_hz * delay_s)


def _validate_model(sigma2: float, amplitude: float) -> None:
    non_negative("sigma2", sigma2)
    positive("amplitude", amplitude)


def _interval_probability(lower: np.ndarray, upper: np.ndarray, sigma2: float,
                          amplitude: float) -> np.ndarray:
    """P{A*sin(theta) in (lower, upper]} for theta ~ N(0, sigma2).

    lo and hi are the bounds clamped to [-A, A] and divided by A. The
    preimage of (lo, hi] under sine is the union over integers k of
    (asin(lo), asin(hi)] + 2*k*pi and (pi - asin(hi), pi - asin(lo)] +
    2*k*pi; the k sum is truncated once intervals lie beyond
    8*sigma + pi, where the residual Gaussian mass is below 1e-15.
    """
    sigma = math.sqrt(sigma2)
    lo = np.clip(lower, -amplitude, amplitude) / amplitude
    hi = np.clip(upper, -amplitude, amplitude) / amplitude
    a1 = np.arcsin(lo)
    b1 = np.arcsin(hi)
    a2 = math.pi - b1
    b2 = math.pi - a1
    kmax = int(math.ceil((8.0 * sigma + TWO_PI) / TWO_PI)) + 1
    offsets = TWO_PI * np.arange(-kmax, kmax + 1)[:, None]
    denom = sigma * math.sqrt(2.0)
    return 0.5 * np.sum(
        erf((b1 + offsets) / denom) - erf((a1 + offsets) / denom)
        + erf((b2 + offsets) / denom) - erf((a2 + offsets) / denom),
        axis=0)


def _code_range_probabilities(first: int, last: int, sigma2: float,
                              amplitude: float, adc: AdcSpec) -> np.ndarray:
    """Probabilities of codes first .. last; a bin above A gets exactly 0.

    Neighbouring codes share one float edge, so the bins partition the
    line. As in :func:`quantize`, code_min takes every value at or below
    its upper edge and code_max every value above its lower edge. Zero
    variance is a point mass at code 0, since A*sin(0) = 0.
    """
    if sigma2 == 0.0:
        return (np.arange(first, last + 1) == 0).astype(np.float64)
    # the lower edges of codes first .. last + 1, so edges[-1] is the
    # upper edge of code last
    codes = np.arange(first, last + 2)
    edges = codes * adc.delta - adc.delta / 2
    edges = np.where(codes == adc.code_min, -np.inf, edges)
    edges = np.where(codes > adc.code_max, np.inf, edges)
    return _interval_probability(edges[:-1], edges[1:], sigma2, amplitude)


def code_probabilities(sigma2: float, amplitude: float,
                       adc: AdcSpec) -> np.ndarray:
    """Analytic probabilities for every code, in code order."""
    _validate_model(sigma2, amplitude)
    return _code_range_probabilities(adc.code_min, adc.code_max, sigma2,
                                     amplitude, adc)


def analytic_min_entropy(sigma2: float, amplitude: float,
                         adc: AdcSpec) -> EntropyReport:
    """Min-entropy -log2(P_max) of the quantized quantum noise under the model.

    The distribution is symmetric about code 0 and has no mass above A,
    so codes 0 (P_C) to top (P_R), the ADC's code of A clamped to
    code_max, take every value it has. That holds when A clips too:
    code_max then collects the mirror image of both code_min and
    code_min + 1, so it is at least as probable as either. Zero variance
    means no phase diffusion: all mass sits in code 0, so P_C = 1 and
    h = 0. Negative, infinite or NaN variance raises InvalidParameterError.
    """
    _validate_model(sigma2, amplitude)
    top = quantize_value(amplitude, adc)
    p = _code_range_probabilities(0, top, sigma2, amplitude, adc)
    return EntropyReport(p_c=float(p[0]), p_r=float(p[top]),
                         p_max=float(p.max()), sigma2=sigma2,
                         method=METHOD_ANALYTIC)


def code_histogram(qt: QuantizedTrace) -> np.ndarray:
    """Counts per code in code order (code_min .. code_max).

    The codes are counted in parts of whole _HISTOGRAM_PART runs, at
    most one per CPU the process may run on, a chunk at a time into the
    part's own row of counts, and the rows are summed; no array as long
    as the trace is made.
    """
    if len(qt) == 0:
        raise EmptyTraceError("quantized trace is empty")
    codes, adc = qt.codes, qt.adc
    parts = _parallel.split(len(codes), _HISTOGRAM_PART)
    counts = np.zeros((len(parts), adc.n_codes), dtype=np.int64)
    wide = [np.empty(min(_HISTOGRAM_CHUNK, b - a), dtype=np.intp)
            for a, b in parts]

    def part(p: int, a: int, b: int) -> None:
        for m in range(a, b, _HISTOGRAM_CHUNK):
            top = min(b, m + _HISTOGRAM_CHUNK)
            w = wide[p][:top - m]
            w[...] = codes[m:top]  # widened first: int16 - code_min wraps
            w -= adc.code_min
            counts[p] += np.bincount(w, minlength=adc.n_codes)

    _parallel.run(part, [(p, a, b) for p, (a, b) in enumerate(parts)])
    return counts.sum(axis=0)


def empirical_min_entropy(qt: QuantizedTrace) -> EntropyReport:
    """Plug-in min-entropy -log2(max code frequency) of a code trace."""
    freq = code_histogram(qt) / len(qt)
    # P_R is the frequency of the topmost occupied code
    return EntropyReport(p_c=float(freq[-qt.adc.code_min]),
                         p_r=float(freq[np.flatnonzero(freq)[-1]]),
                         p_max=float(freq.max()), sigma2=None,
                         method=METHOD_EMPIRICAL)


def _amplitude_squared(amplitude: float) -> float:
    """A * A for an amplitude A > 0 whose square is a finite float; above
    about 1.34e154 V it is not, and InvalidParameterError is raised."""
    square = positive("amplitude", amplitude) * amplitude
    if not math.isfinite(square):
        raise InvalidParameterError(
            f"amplitude must have a finite square, got {amplitude!r}")
    return square


def forward_variance(sigma2: float, amplitude: float) -> float:
    """Quantum-noise variance A^2/2 * (1 - exp(-2*sigma2)) in V^2."""
    non_negative("sigma2", sigma2)
    _amplitude_squared(amplitude)
    return 0.5 * amplitude * amplitude * -math.expm1(-2.0 * sigma2)


def invert_variance(sigma_q2: float, amplitude: float) -> float:
    """Phase-noise variance from quantum-noise variance.

    Inverts :func:`forward_variance`; defined for
    0 <= sigma_q2 < amplitude^2 / 2. Values at or above the asymptote
    mean the amplitude is misestimated or the data does not follow the
    model, and raise VarianceOutOfRangeError.
    """
    square = _amplitude_squared(amplitude)
    non_negative("sigma_q2", sigma_q2)
    limit = 0.5 * amplitude * amplitude
    if sigma_q2 >= limit:
        raise VarianceOutOfRangeError(
            f"sigma_q2 = {sigma_q2} is not below the A^2/2 = {limit} asymptote")
    return -0.5 * math.log1p(-2.0 * sigma_q2 / square)


def quantum_variance_from_measurement(sigma_m2: float,
                                      sigma_c2: float) -> float:
    """Quantum-noise variance as measured minus classical variance."""
    non_negative("sigma_m2", sigma_m2)
    non_negative("sigma_c2", sigma_c2)
    if sigma_c2 > sigma_m2:
        raise ClassicalExceedsMeasuredError(
            f"classical variance {sigma_c2} exceeds measured {sigma_m2}")
    return sigma_m2 - sigma_c2
