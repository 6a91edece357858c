"""Power spectrum estimation and 3-dB bandwidth extraction.

The spectrum is a Welch-averaged, Hann-windowed, one-sided periodogram
(density scaling, window power normalized). The entropy-source
bandwidth is where the smoothed spectrum first drops below half of the
low-frequency plateau level and stays there; a persistence rule keeps
the sinc-like interference nulls of delayed self-interference from
triggering early.

``estimate_psd`` reproduces ``scipy.signal.welch`` (mean-removed input,
``detrend=False``, density scaling) bit for bit, but keeps only squared
magnitudes and has no per-segment Python loop: segments are a
strided view of the trace, transformed a few rows at a time so each
block stays in cache. The transforms are NumPy's FFT, which wraps the
same pocketfft as the SciPy FFT that welch calls, and which loads no
``scipy.fft`` at import. With T = 1/fs, the rest is computed as welch
computes it, so every bin is the same float64 value:
- the periodic Hann window w = 1/2 + 1/2 cos(phi), phi the first nfft
  of nfft + 1 even steps over [-pi, pi], and the grid rfftfreq(nfft, T);
- the density scale 1/sqrt(S/T), S the sum of w**2 taken term by term
  in order, as welch's builtin ``sum`` does (a pairwise sum may round
  differently);
- the mean over segments, which welch takes as NumPy's pairwise
  ``add.reduce`` over each bin's row of segment powers. Here it is
  streamed as the same float64 additions, one row per segment in
  order, each row add vectorised over all bins. A run of n rows sums
  as follows. For n > 128, split at h = n//2 - (n//2) % 8 and add the
  sum of the first h rows to the sum of the rest. For 8 <= n <= 128 (a
  leaf), eight accumulators start as rows 0..7, each later full group
  of eight rows is added into them, they combine as
  ((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7)), and the n % 8 tail rows are
  added in order. For n < 8, the rows are added in order to zeros. The
  total is divided by the segment count.
Only one leaf's powers are held at a time, so the memory is
O(128 * (nfft/2 + 1)) whatever the trace length. A leaf's blocks are
split into at most one part per CPU the process may run on, each part
a run of whole blocks, and the parts are transformed at once; every
block is the one a single thread would transform, and the adds run on
the calling thread, so every bin is the same whatever the core count.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.ndimage import uniform_filter1d

from . import _parallel
from .errors import EmptyPsdError, InvalidParameterError, TraceTooShortError
from .params import check_count, check_welch
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
# rows per leaf of NumPy's pairwise sum (PW_BLOCKSIZE in its loops)
_PAIRWISE_LEAF = 128


@dataclass(frozen=True)
class PsdEstimate:
    """One-sided power spectral density on a uniform frequency grid."""

    freqs: np.ndarray
    power: np.ndarray
    n_segments: int

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
        Input samples; the global mean is removed before windowing. A
        NaN or infinite sample makes the mean non-finite and raises
        InvalidParameterError.
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

    The mean over segments is NumPy's pairwise tree, restated as row
    adds (module docstring): only one leaf of at most 128 segments'
    powers is held, so the memory is O(128 * (nfft/2 + 1)) whatever
    the trace length. The transforms run on up to one thread per CPU.
    """
    nfft = check_welch(nfft, overlap_fraction)
    x = trace.samples
    if len(x) < 2 * nfft:
        raise TraceTooShortError(
            f"need at least {2 * nfft} samples for nfft={nfft}, got {len(x)}")
    period = 1 / (1.0 / trace.sample_period_s)  # welch's T = 1/fs
    noverlap = int(overlap_fraction * nfft)
    step = nfft - noverlap
    n_segments = (len(x) - noverlap) // step
    win = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, nfft + 1))[:-1]
    win *= 1 / np.sqrt(np.cumsum(win**2)[-1] / period)  # sequential sum
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf is NaN
        mean = x.mean()
    if not np.isfinite(mean):
        raise InvalidParameterError(
            f"trace samples must be finite, got a mean of {mean}")
    segments = sliding_window_view(x, nfft)[::step][:n_segments]
    leaf = np.empty((min(_PAIRWISE_LEAF, n_segments), nfft // 2 + 1))
    total = _pairwise_power(segments, mean, win, leaf)
    return PsdEstimate(np.fft.rfftfreq(nfft, period), total / n_segments,
                       n_segments)


def _pairwise_power(segments: np.ndarray, mean: float, win: np.ndarray,
                    leaf: np.ndarray) -> np.ndarray:
    """Sum of the segments' one-sided powers, added in NumPy's pairwise
    order (module docstring); ``leaf`` holds one leaf's powers.

    Module-level and recursive by name: a nested closure that calls
    itself is a reference cycle, and would keep the trace alive until
    the cyclic collector runs.
    """
    n = len(segments)
    if n > _PAIRWISE_LEAF:
        half = n // 2 - (n // 2) % 8
        return (_pairwise_power(segments[:half], mean, win, leaf)
                + _pairwise_power(segments[half:], mean, win, leaf))
    power = leaf[:n]
    rows = max(1, _WELCH_BLOCK_SAMPLES // segments.shape[1])
    _parallel.run(lambda a, b: _one_sided_power(
        segments[a:b], mean, win, power[a:b], rows), _parallel.split(n, rows))
    groups = n - n % 8
    if groups:
        acc = power[:8]
        for i in range(8, groups, 8):
            acc += power[i:i + 8]
        pairs = acc[0::2] + acc[1::2]
        total = (pairs[0] + pairs[1]) + (pairs[2] + pairs[3])
    else:
        total = np.zeros(power.shape[1])
    for row in power[groups:]:
        total += row
    return total


def _one_sided_power(segments: np.ndarray, mean: float, win: np.ndarray,
                     power: np.ndarray, rows: int) -> None:
    """The segments' one-sided powers, into ``power``, ``rows`` at a time."""
    for s0 in range(0, len(segments), rows):
        block = segments[s0:s0 + rows] - mean
        block *= win
        spectra = np.fft.rfft(block)
        out = power[s0:s0 + rows]
        np.add(spectra.real**2, spectra.imag**2, out=out)
        out[:, 1:-1] *= 2  # one-sided: fold in the negative frequencies


def bandwidth_3db(psd: PsdEstimate,
                  plateau_bins: int = DEFAULT_PLATEAU_BINS) -> BandwidthEstimate:
    """Extract the 3-dB cutoff of a low-pass-shaped spectrum.

    The reference level is the median power over the first
    ``plateau_bins`` non-DC bins. The cutoff is the lowest frequency at
    which the smoothed power falls below half the reference and stays
    below it for the next three bins. With no such crossing the
    estimate saturates at Nyquist. A reference that is not finite
    raises InvalidParameterError.
    """
    n = len(psd.freqs)
    if n == 0:
        raise EmptyPsdError("psd has no bins")
    plateau_bins = check_count("plateau_bins", plateau_bins, 1, n - 1)
    power = psd.power
    reference = float(np.median(power[1:plateau_bins + 1]))
    if not np.isfinite(reference):
        raise InvalidParameterError(
            f"psd plateau reference level must be finite, got {reference}")
    smoothed = uniform_filter1d(power, size=SMOOTH_BINS, mode="nearest")
    i = _first_persistent_drop(smoothed < reference / 2.0)
    if i is None:
        return BandwidthEstimate(psd.nyquist_hz, reference, True)
    return BandwidthEstimate(float(psd.freqs[i]), reference, False)


def _first_persistent_drop(below: np.ndarray) -> int | None:
    """The first non-DC bin i with below[i : i + PERSIST_BINS + 1] all
    true, or None when there is none."""
    window = PERSIST_BINS + 1
    if len(below) <= window:
        return None
    persists = sliding_window_view(below[1:], window).all(axis=1)
    i = int(persists.argmax())
    return i + 1 if persists[i] else None
