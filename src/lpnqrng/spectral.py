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

The sum runs as one parallel call. The tree is split a level at a time
from the root until it has at least 4 * workers nodes, or every node is
a leaf; workers is the number of CPUs the process may run on. Each part
takes a run of whole nodes (at most one part per CPU), and sums each of
its nodes by the recursion above; the calling thread then adds the node
totals up the tree. So every add is the one the serial sum makes, and
every bin is the same whatever the core count.

Each part streams its leaves through four buffers that the caller
allocates before the call: rows windowed segments (rows x nfft), their
spectra (complex) and powers (rows x (nfft/2 + 1)), and the eight
accumulators (8 x (nfft/2 + 1)). Each eight-row group enters the
accumulators as soon as its block is transformed, so no leaf's powers
are held. rows is min(128, 2**17 // nfft) shared out among the parts,
rounded down to a multiple of 8 and at least 8: the parts together hold
about one 2**17-sample block while each gets 8 rows or more. A part
allocates only one total per tree level of the node it is summing,
and the call holds one total per node, fewer than 8 * workers, so the
memory is O(workers * (rows * nfft + (rows + 8) * (nfft/2 + 1)))
whatever the trace length.
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

# samples per block of Welch segments, shared out among the parts (a
# 1 MiB float64 working set): large enough to amortize the per-call FFT
# overhead, small enough that a block's windowed rows and spectra stay
# in cache
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
    adds and summed in one parallel call of up to one part per CPU
    (module docstring); the memory does not grow with the trace length.
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
    nodes = _subtrees(n_segments, 4 * _parallel.workers())
    parts = _parallel.split(len(nodes), 1)
    bins = nfft // 2 + 1
    rows = min(_PAIRWISE_LEAF, _WELCH_BLOCK_SAMPLES // nfft) // len(parts)
    rows = max(8, rows - rows % 8)
    buffers = [(np.empty((rows, nfft)), np.empty((rows, bins), complex),
                np.empty((rows, bins)), np.empty((8, bins))) for _ in parts]
    sums = {}

    def part(p: int, a: int, b: int) -> None:
        for start, n in nodes[a:b]:
            sums[start, n] = _pairwise_power(segments[start:start + n], mean,
                                             win, buffers[p])

    _parallel.run(part, [(p, a, b) for p, (a, b) in enumerate(parts)])
    total = _top_power(0, n_segments, sums)
    total /= n_segments
    return PsdEstimate(np.fft.rfftfreq(nfft, period), total, n_segments)


def _half(n: int) -> int:
    """Where NumPy's pairwise sum splits a run of n > 128 rows."""
    return n // 2 - (n // 2) % 8


def _subtrees(n: int, count: int) -> list[tuple[int, int]]:
    """The (start, rows) nodes of the pairwise tree of n rows, split a
    level at a time until there are at least ``count`` or all are leaves."""
    nodes = [(0, n)]
    while len(nodes) < count and any(m > _PAIRWISE_LEAF for _, m in nodes):
        nodes = [child for start, m in nodes for child in (
            [(start, m)] if m <= _PAIRWISE_LEAF else
            [(start, _half(m)), (start + _half(m), m - _half(m))])]
    return nodes


def _top_power(start: int, n: int, sums: dict) -> np.ndarray:
    """The sum of the rows start .. start + n - 1 from the totals of the
    nodes at or below it in ``sums``, added in the tree's order."""
    if (start, n) in sums:
        return sums[start, n]
    half = _half(n)
    total = _top_power(start, half, sums)
    total += _top_power(start + half, n - half, sums)
    return total


def _pairwise_power(segments: np.ndarray, mean: float, win: np.ndarray,
                    buffers: tuple) -> np.ndarray:
    """Sum of the segments' one-sided powers, added in NumPy's pairwise
    order (module docstring), through a part's ``buffers``.

    Module-level and recursive by name: a nested closure that calls
    itself is a reference cycle, and would keep the trace alive until
    the cyclic collector runs.
    """
    n = len(segments)
    if n > _PAIRWISE_LEAF:
        half = _half(n)
        total = _pairwise_power(segments[:half], mean, win, buffers)
        total += _pairwise_power(segments[half:], mean, win, buffers)
        return total
    block, spectra, power, acc = buffers
    groups = n - n % 8
    acc[...] = 0  # 0 + x is x: a power is never -0.0
    for s0 in range(0, n, len(block)):
        r = min(len(block), n - s0)
        # a copy, then the subtract in place: a ufunc reading the
        # overlapping rows of the strided view would buffer them
        np.copyto(block[:r], segments[s0:s0 + r])
        block[:r] -= mean
        block[:r] *= win
        np.fft.rfft(block[:r], out=spectra[:r])
        v = spectra[:r].view(np.float64)  # real and imag, interleaved
        np.square(v, out=v)
        np.add(v[:, 0::2], v[:, 1::2], out=power[:r])
        # one-sided: fold in the negative frequencies, but at DC and
        # Nyquist; every bin is doubled, then those two are added again,
        # since NumPy buffers a ufunc over the rows' strided inner bins
        power[:r] *= 2
        np.add(v[:, 0], v[:, 1], out=power[:r, 0])
        np.add(v[:, -2], v[:, -1], out=power[:r, -1])
        for g in range(s0, min(s0 + r, groups), 8):
            acc += power[g - s0:g - s0 + 8]
    # ((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7)), a row at a time; all zeros
    # when n < 8
    for i, j in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6)):
        acc[i] += acc[j]
    total = acc[0] + acc[4]
    for row in power[groups - s0:r]:  # the last block holds the tail
        total += row
    return total


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
