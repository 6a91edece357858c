"""Quantum min-entropy, analytic and empirical.

The interferometer output A*sin(dtheta) maps a Gaussian phase
difference dtheta ~ N(0, sigma2) onto [-A, A]. The probability of any
ADC bin is the Gaussian mass of the preimage of that bin under the
sine, a union of two interval families repeating with period 2*pi.
Min-entropy is -log2 of the most probable code, which for this family
of distributions is either the center bin or the topmost occupied bin.

Variance bookkeeping for measured data lives here too: the forward map
from phase-noise variance to quantum-noise variance, its inverse, and
the subtraction of independent classical noise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .errors import (
    ClassicalExceedsMeasuredError,
    EmptyTraceError,
    InvalidBinError,
    InvalidParameterError,
    NonPositiveVarianceError,
    VarianceOutOfRangeError,
)
from .params import AdcSpec, non_negative, positive
from .rng import derive_seed, gaussian_stream
from .simulate import QuantizedTrace, TWO_PI

METHOD_ANALYTIC = "analytic"
METHOD_EMPIRICAL = "empirical"


@dataclass(frozen=True)
class EntropyReport:
    """Center/boundary bin probabilities and the resulting min-entropy."""

    p_c: float
    p_r: float
    p_max: float
    h_min: float
    sigma2: float | None
    method: str


def phase_variance(linewidth_hz: float, delay_s: float) -> float:
    """Phase-difference variance 2*pi*linewidth*delay in rad^2."""
    non_negative("linewidth_hz", linewidth_hz)
    non_negative("delay_s", delay_s)
    return TWO_PI * (linewidth_hz * delay_s)


def _validate_model(sigma2: float, amplitude: float, adc: AdcSpec) -> None:
    positive("sigma2", sigma2, NonPositiveVarianceError)
    validate_amplitude(amplitude, adc)


def validate_amplitude(amplitude: float, adc: AdcSpec) -> None:
    """The model's rule: 0 < amplitude <= range - delta/2, so no clipping."""
    if positive("amplitude", amplitude) > adc.range - adc.delta / 2:
        raise InvalidParameterError(
            f"amplitude must be in (0, range - delta/2] = (0, "
            f"{adc.range - adc.delta / 2}], got {amplitude!r}")


def _wrapped_sine_mass(lo_arg: np.ndarray, hi_arg: np.ndarray,
                       sigma: float) -> np.ndarray:
    """P{sin(theta) in (lo, hi]} for theta ~ N(0, sigma^2).

    ``lo_arg``/``hi_arg`` are the already-clamped ratios q/A in [-1, 1].
    The preimage of (lo, hi] under sine is the union over integers k of
    (asin(lo), asin(hi)] + 2*k*pi and (pi - asin(hi), pi - asin(lo)] +
    2*k*pi; the k sum is truncated once intervals lie beyond
    8*sigma + pi, where the residual Gaussian mass is below 1e-15.
    """
    a1 = np.arcsin(lo_arg)
    b1 = np.arcsin(hi_arg)
    a2 = math.pi - b1
    b2 = math.pi - a1
    kmax = int(math.ceil((8.0 * sigma + TWO_PI) / TWO_PI)) + 1
    offsets = TWO_PI * np.arange(-kmax, kmax + 1)[:, None]
    denom = sigma * math.sqrt(2.0)
    total = 0.5 * np.sum(
        erf((b1 + offsets) / denom) - erf((a1 + offsets) / denom)
        + erf((b2 + offsets) / denom) - erf((a2 + offsets) / denom),
        axis=0)
    return total


def _interval_probability(lower: np.ndarray, upper: np.ndarray, sigma2: float,
                          amplitude: float) -> np.ndarray:
    sigma = math.sqrt(sigma2)
    lo = np.clip(np.asarray(lower, dtype=np.float64) / amplitude, -1.0, 1.0)
    hi = np.clip(np.asarray(upper, dtype=np.float64) / amplitude, -1.0, 1.0)
    return _wrapped_sine_mass(lo, hi, sigma)


def bin_probability(i: int, sigma2: float, amplitude: float,
                    adc: AdcSpec) -> float:
    """Probability that the quantum noise lands in code i's bin.

    The bin (i*delta - delta/2, i*delta + delta/2] is intersected with
    the reachable range [-A, A]; bins fully outside get exactly 0.
    """
    _validate_model(sigma2, amplitude, adc)
    if not (adc.code_min <= i <= adc.code_max):
        raise InvalidBinError(
            f"code {i} outside [{adc.code_min}, {adc.code_max}]")
    d = adc.delta
    mass = _interval_probability(np.array([i * d - d / 2]),
                                 np.array([i * d + d / 2]), sigma2, amplitude)
    return float(mass[0])


def code_probabilities(sigma2: float, amplitude: float,
                       adc: AdcSpec) -> np.ndarray:
    """Analytic probabilities for every code, in code order."""
    _validate_model(sigma2, amplitude, adc)
    d = adc.delta
    centers = np.arange(adc.code_min, adc.code_max + 1, dtype=np.float64) * d
    return _interval_probability(centers - d / 2, centers + d / 2,
                                 sigma2, amplitude)


def boundary_code(amplitude: float, adc: AdcSpec) -> int:
    """Topmost occupied code: round(A / delta), ties away from zero."""
    i = int(math.floor(amplitude / adc.delta + 0.5))
    return min(i, adc.code_max)


def p_center(sigma2: float, amplitude: float, adc: AdcSpec) -> float:
    """Probability of the center bin (-delta/2, delta/2]."""
    return bin_probability(0, sigma2, amplitude, adc)


def p_boundary(sigma2: float, amplitude: float, adc: AdcSpec) -> float:
    """Probability of the topmost occupied bin (chi - delta/2, A]."""
    return bin_probability(boundary_code(amplitude, adc), sigma2, amplitude, adc)


def analytic_min_entropy(sigma2: float, amplitude: float,
                         adc: AdcSpec) -> EntropyReport:
    """Min-entropy of the quantized quantum noise under the model.

    The distribution is symmetric and unimodal-to-bimodal, so its peak
    is either the center bin or one of the two boundary bins; the
    boundary pair has equal probability, leaving h = -log2(max(P_C, P_R)).
    Zero variance means no phase diffusion: all mass sits in the center
    code, so P_C = 1, P_R = 0 and h = 0. Negative or NaN variance raises
    NonPositiveVarianceError.
    """
    if sigma2 == 0.0:
        validate_amplitude(amplitude, adc)
        return EntropyReport(p_c=1.0, p_r=0.0, p_max=1.0, h_min=0.0,
                             sigma2=sigma2, method=METHOD_ANALYTIC)
    pc = p_center(sigma2, amplitude, adc)
    pr = p_boundary(sigma2, amplitude, adc)
    p_max = max(pc, pr)
    return EntropyReport(p_c=pc, p_r=pr, p_max=p_max,
                         h_min=-math.log2(p_max), sigma2=sigma2,
                         method=METHOD_ANALYTIC)


def code_histogram(qt: QuantizedTrace) -> np.ndarray:
    """Counts per code in code order (code_min .. code_max)."""
    if len(qt) == 0:
        raise EmptyTraceError("quantized trace is empty")
    return np.bincount(qt.codes.astype(np.int64) - qt.adc.code_min,
                       minlength=qt.adc.n_codes)


def empirical_min_entropy(qt: QuantizedTrace) -> EntropyReport:
    """Plug-in min-entropy -log2(max code frequency) of a code trace."""
    counts = code_histogram(qt)
    n = len(qt)
    p_max = counts.max() / n
    p_c = counts[-qt.adc.code_min] / n
    top = int(np.flatnonzero(counts)[-1]) + qt.adc.code_min
    p_r = counts[top - qt.adc.code_min] / n
    return EntropyReport(p_c=float(p_c), p_r=float(p_r), p_max=float(p_max),
                         h_min=-math.log2(p_max), sigma2=None,
                         method=METHOD_EMPIRICAL)


def monte_carlo_code_histogram(sigma2: float, amplitude: float, adc: AdcSpec,
                               n_samples: int, seed: int,
                               chunk: int = 2**22) -> np.ndarray:
    """Histogram of quantized A*sin(dtheta) for i.i.d. dtheta ~ N(0, sigma2).

    Brute-force sampler used as an independent check of the analytic
    bin probabilities; processes in chunks to bound memory. Chunk p
    draws from derive_seed(seed, p), so runs with nearby seeds share no
    chunk.
    """
    _validate_model(sigma2, amplitude, adc)
    if n_samples < 1:
        raise InvalidParameterError("n_samples must be >= 1")
    sigma = math.sqrt(sigma2)
    counts = np.zeros(adc.n_codes, dtype=np.int64)
    done = 0
    part = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        theta = gaussian_stream(derive_seed(seed, part), m) * sigma
        q = amplitude * np.sin(theta)
        codes = np.ceil(q / adc.delta - 0.5)
        np.clip(codes, adc.code_min, adc.code_max, out=codes)
        counts += np.bincount(codes.astype(np.int64) - adc.code_min,
                              minlength=adc.n_codes)
        done += m
        part += 1
    return counts


def forward_variance(sigma2: float, amplitude: float) -> float:
    """Quantum-noise variance A^2/2 * (1 - exp(-2*sigma2)) in V^2."""
    non_negative("sigma2", sigma2)
    positive("amplitude", amplitude)
    return 0.5 * amplitude * amplitude * -math.expm1(-2.0 * sigma2)


def invert_variance(sigma_q2: float, amplitude: float) -> float:
    """Phase-noise variance from quantum-noise variance.

    Inverts :func:`forward_variance`; defined for
    0 <= sigma_q2 < amplitude^2 / 2. Values at or above the asymptote
    mean the amplitude is misestimated or the data does not follow the
    model, and raise VarianceOutOfRangeError.
    """
    positive("amplitude", amplitude)
    non_negative("sigma_q2", sigma_q2)
    limit = 0.5 * amplitude * amplitude
    if sigma_q2 >= limit:
        raise VarianceOutOfRangeError(
            f"sigma_q2 = {sigma_q2} is not below the A^2/2 = {limit} asymptote")
    return -0.5 * math.log1p(-2.0 * sigma_q2 / (amplitude * amplitude))


def quantum_variance_from_measurement(sigma_m2: float,
                                      sigma_c2: float) -> float:
    """Quantum-noise variance as measured minus classical variance."""
    non_negative("sigma_m2", sigma_m2)
    non_negative("sigma_c2", sigma_c2)
    if sigma_c2 > sigma_m2:
        raise ClassicalExceedsMeasuredError(
            f"classical variance {sigma_c2} exceeds measured {sigma_m2}")
    return sigma_m2 - sigma_c2
