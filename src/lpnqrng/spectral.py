"""Power spectrum estimation and 3-dB bandwidth extraction.

The spectrum is a Welch-averaged, Hann-windowed, one-sided periodogram
(density scaling, window power normalized). The entropy-source
bandwidth is where the smoothed spectrum first drops below half of the
low-frequency plateau level and stays there; a persistence rule keeps
the sinc-like interference nulls of delayed self-interference from
triggering early.

``estimate_psd`` reproduces ``scipy.signal.welch`` (mean-removed input,
``detrend=False``, density scaling) bit for bit, but does not call it.
SciPy's Welch goes through ``ShortTimeFFT.spectrogram``, which runs one
FFT per segment in a Python loop and keeps every segment's complex
spectrum, twice the size of the trace at the default overlap.
Here the segments are a strided view of the trace, transformed a few
rows at a time so each block stays in cache, and only their squared
magnitudes are kept. The window and frequency axis come from the same
``ShortTimeFFT`` that ``welch`` builds. The segment mean is taken as
``welch`` takes it, a pairwise sum along the contiguous segment axis,
so every bin is the same float64 value.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft, signal
from scipy.ndimage import uniform_filter1d

from .errors import EmptyPsdError, InvalidParameterError, TraceTooShortError
from .params import check_plateau_bins, check_welch
from .simulate import AnalogTrace

DEFAULT_NFFT = 8192
DEFAULT_OVERLAP = 0.5
DEFAULT_PLATEAU_BINS = 16

# moving-average width (bins) applied before threshold crossing; chosen
# so two disjoint seeds at 2**22 samples agree within a few percent
SMOOTH_BINS = 9
PERSIST_BINS = 3

# samples per block of Welch segments (a 1 MiB float64 working set):
# large enough to amortize the per-call FFT overhead, small enough that
# a block's windowed rows and spectra stay in cache
_WELCH_BLOCK_SAMPLES = 2**17


@dataclass(frozen=True)
class PsdEstimate:
    """One-sided power spectral density on a uniform frequency grid."""

    freqs: np.ndarray
    power: np.ndarray
    n_segments: int
    nfft: int

    def __post_init__(self) -> None:
        f = np.asarray(self.freqs, dtype=np.float64)
        p = np.asarray(self.power, dtype=np.float64)
        if len(f) != len(p):
            raise InvalidParameterError("freqs and power must have equal length")
        f.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "freqs", f)
        object.__setattr__(self, "power", p)

    @property
    def nyquist_hz(self) -> float:
        return float(self.freqs[-1])

    @property
    def df_hz(self) -> float:
        return float(self.freqs[1] - self.freqs[0])


@dataclass(frozen=True)
class BandwidthEstimate:
    """3-dB cutoff with its plateau reference level."""

    b_es_hz: float
    reference_level: float
    saturated: bool


def estimate_psd(trace: AnalogTrace, nfft: int = DEFAULT_NFFT,
                 overlap_fraction: float = DEFAULT_OVERLAP) -> PsdEstimate:
    """Welch periodogram of a trace.

    Parameters
    ----------
    trace : AnalogTrace
        Input samples; the global mean is removed before windowing.
    nfft : int
        Segment length, a power of two. The trace must hold at least
        two segments.
    overlap_fraction : float
        Fractional segment overlap in [0, 1).

    Returns
    -------
    PsdEstimate
        One-sided density in V^2/Hz over nfft/2 + 1 bins from 0 to
        Nyquist. Integrating the density recovers the sample variance
        (Parseval) up to leakage-level error.
    """
    check_welch(nfft, overlap_fraction)
    x = trace.samples
    if len(x) < 2 * nfft:
        raise TraceTooShortError(
            f"need at least {2 * nfft} samples for nfft={nfft}, got {len(x)}")
    fs = 1.0 / trace.sample_period_s
    noverlap = int(overlap_fraction * nfft)
    step = nfft - noverlap
    n_segments = (len(x) - noverlap) // step
    stft = signal.ShortTimeFFT(signal.get_window("hann", nfft), step, fs,
                               fft_mode="onesided", mfft=nfft,
                               scale_to="psd", phase_shift=None)
    mean = x.mean()
    segments = sliding_window_view(x, nfft)[::step][:n_segments]
    rows = max(1, _WELCH_BLOCK_SAMPLES // nfft)
    # bins x segments, so the mean below is welch's pairwise sum
    power = np.empty((nfft // 2 + 1, n_segments))
    for s0 in range(0, n_segments, rows):
        block = segments[s0:s0 + rows] - mean
        block *= stft.win
        spectra = fft.rfft(block)
        out = power[:, s0:s0 + rows].T
        np.add(spectra.real**2, spectra.imag**2, out=out)
        out[:, 1:-1] *= 2  # one-sided: fold in the negative frequencies
    return PsdEstimate(stft.f, power.mean(axis=-1), n_segments, nfft)


def bandwidth_3db(psd: PsdEstimate,
                  plateau_bins: int = DEFAULT_PLATEAU_BINS) -> BandwidthEstimate:
    """Extract the 3-dB cutoff of a low-pass-shaped spectrum.

    The reference level is the median power over the first
    ``plateau_bins`` non-DC bins. The cutoff is the lowest frequency at
    which the smoothed power falls below half the reference and stays
    below it for the next three bins. With no such crossing the
    estimate saturates at Nyquist.
    """
    n = len(psd.freqs)
    if n == 0:
        raise EmptyPsdError("psd has no bins")
    check_plateau_bins(plateau_bins, n)
    power = psd.power
    reference = float(np.median(power[1:plateau_bins + 1]))
    smoothed = uniform_filter1d(power, size=SMOOTH_BINS, mode="nearest")
    below = smoothed < reference / 2.0
    window = PERSIST_BINS + 1
    for i in range(1, n - PERSIST_BINS):
        if below[i:i + window].all():
            return BandwidthEstimate(float(psd.freqs[i]), reference, False)
    return BandwidthEstimate(psd.nyquist_hz, reference, True)
