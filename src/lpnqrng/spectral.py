"""Power spectrum estimation, its closed-form model, and 3-dB bandwidth
extraction.

The spectrum is a Welch-averaged, Hann-windowed, one-sided periodogram
(density scaling, window power normalized). The entropy-source
bandwidth is where the smoothed spectrum first drops below half of the
low-frequency plateau level and stays there; a persistence rule keeps
the sinc-like interference nulls of delayed self-interference from
triggering early. The smoother is a 9-bin moving average with the ends
extended by their edge values, computed as scipy.ndimage's
``uniform_filter1d(mode="nearest")`` computes it, bit for bit, so the
package loads no scipy.ndimage.

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
its nodes by the recursion above. As soon as a part holds the totals of
two sibling subtrees, it adds the right one into the left, which is
their parent's total; the calling thread then does the same over the
parts' remaining totals, in order, up to the root. So every add is the
one the serial sum makes, and every bin is the same whatever the core
count.

Each part streams its leaves through four buffers that the caller
allocates before the call: rows windowed segments (rows x nfft), their
spectra (complex) and powers (rows x (nfft/2 + 1)), and the eight
accumulators (8 x (nfft/2 + 1)). Each eight-row group enters the
accumulators as soon as its block is transformed, so no leaf's powers
are held. rows is min(128, 2**17 // nfft) shared out among the parts,
rounded down to a multiple of 8 and at least 8: the parts together hold
about one 2**17-sample block while each gets 8 rows or more. A part
holds at most one total per tree level, since sibling totals merge as
they complete, so the memory is O(workers * (rows * nfft + (rows + 8) *
(nfft/2 + 1))) whatever the trace length. Holding every node's total
until the parts end, at nfft 8192 and two workers, put the tracemalloc
peak of 2**22 samples 5.8% above that of 2**20; the merge makes it 2-3%.

Model. ``model_psd`` states the mean of ``estimate_psd`` for a design's
quantum trace q[m] = A sin(theta[m + k] - theta[m]) in closed form.
For a Gaussian phase with the structure function
D(n) = Var(theta[m + n] - theta[m]),

    R(l) = A**2 exp(-D(k)) sinh((D(|k - l|) + D(k + l) - 2 D(l)) / 2)

is q's autocorrelation at lag l >= 0 (``_autocorrelation``). The
laser's white frequency noise gives a Wiener phase, D(n) = n sigma2
with sigma2 = 2 pi linewidth tau_s, for which R(l) =
A**2 exp(-k sigma2) sinh((k - l) sigma2) up to lag k and 0 beyond. A
segment's windowed periodogram has the mean sum_l R(l) c_w(l)
exp(-2 pi i f l tau_s), where c_w is the autocorrelation of the same
scaled window that ``estimate_psd`` applies (``_window``), taken as one
rfft of length 2 nfft, on which it does not wrap; its lag 0 is the
window's power sum, so the density needs no sum of w**2 of its own.
The taps R(l) c_w(l) fold circularly into nfft, one rfft gives the
spectrum, and bins 1 .. nfft/2 - 1 are doubled, as in ``estimate_psd``.
The global mean removal biases only the Welch DC bin. The density
integrates to forward_variance(k sigma2, A) within 3e-15 relative.

In the tests, the Welch mean of four simulated traces of 2**20 samples
matches it within 5 standard errors in every bin but DC. Its 3-dB
bandwidth is not the simulated one, though: bandwidth_3db takes the
first persistent crossing of half the plateau, and a noisy falling
curve crosses early, so a simulation reads a few percent low more
often than high. Over the 25 points of the benchmark's
sweep grid (linewidths 5-80 MHz, delays 1.5-10 ns, tau_s = 0.1 ns,
2**22 samples, nfft 8192), the simulated B_ES lay -3.24% to +3.27% from
the model's at seeds 7-10, and -3.24% to 0.00% at seed 7 alone, where
the model scored all 25 points in 20-50 ms on a 2-core x86-64 machine
against 3.9-4.7 s through ``optimizer.evaluate_point``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _parallel
from .errors import EmptyPsdError, InvalidParameterError, TraceTooShortError
from .params import SystemParams, check_count, check_welch
from .simulate import TWO_PI, AnalogTrace

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
    noverlap = int(overlap_fraction * nfft)
    step = nfft - noverlap
    n_segments = (len(x) - noverlap) // step
    win, freqs = _window(nfft, trace.sample_period_s)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf is NaN
        mean = x.mean()
    if not np.isfinite(mean):
        raise InvalidParameterError(
            f"trace samples must be finite, got a mean of {mean}")
    segments = sliding_window_view(x, nfft)[::step][:n_segments]
    nodes, inner = _subtrees(n_segments, 4 * _parallel.workers())
    parts = _parallel.split(len(nodes), 1)
    bins = nfft // 2 + 1
    rows = min(_PAIRWISE_LEAF, _WELCH_BLOCK_SAMPLES // nfft) // len(parts)
    rows = max(8, rows - rows % 8)
    buffers = [(np.empty((rows, nfft)), np.empty((rows, bins), complex),
                np.empty((rows, bins)), np.empty((8, bins))) for _ in parts]
    done = [[] for _ in parts]  # each part's summed subtrees, in order

    def part(p: int, a: int, b: int) -> None:
        for start, n in nodes[a:b]:
            _push(done[p], (start, start + n, _pairwise_power(
                segments[start:start + n], mean, win, buffers[p])), inner)

    _parallel.run(part, [(p, a, b) for p, (a, b) in enumerate(parts)])
    for entry in (entry for subtrees in done[1:] for entry in subtrees):
        _push(done[0], entry, inner)
    [(_, _, total)] = done[0]  # the root
    total /= n_segments
    return PsdEstimate(freqs, total, n_segments)


def _window(nfft: int, tau_s: float) -> tuple[np.ndarray, np.ndarray]:
    """estimate_psd's periodic Hann window, scaled for density, and its
    one-sided frequency grid, as welch computes them (module docstring)."""
    period = 1 / (1.0 / tau_s)  # welch's T = 1/fs
    win = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, nfft + 1))[:-1]
    win *= 1 / np.sqrt(np.cumsum(win**2)[-1] / period)  # sequential sum
    return win, np.fft.rfftfreq(nfft, period)


def model_psd(design: SystemParams, nfft: int = DEFAULT_NFFT) -> PsdEstimate:
    """The mean of ``estimate_psd`` of the design's quantum trace, in
    closed form, on estimate_psd's grid (module docstring).

    Only the design's linewidth, delay, amplitude and sample period
    enter: the quantum trace has no electronic noise and no ADC. The
    overlap does not change the mean, so it is no parameter.
    ``n_segments`` is 0: the power is an expectation, not an average.
    Bin 0 keeps the process's own zero mean, where estimate_psd removes
    the trace's sample mean.
    """
    nfft = check_welch(nfft, DEFAULT_OVERLAP)
    win, freqs = _window(nfft, design.sample_period_s)
    # c_w at the lags 0 .. nfft - 1, -nfft .. -1 of a circle of 2 nfft,
    # on which the window's linear autocorrelation does not wrap
    c_w = np.fft.irfft(np.abs(np.fft.rfft(win, 2 * nfft))**2)
    lags = np.abs(np.fft.fftfreq(2 * nfft, 1 / (2 * nfft)))
    sigma2 = TWO_PI * design.linewidth_hz * design.sample_period_s
    taps = c_w * _autocorrelation(lambda n: n * sigma2, design.delay_samples,
                                  design.amplitude, lags)
    # folded circularly into nfft
    power = np.fft.rfft(taps.reshape(2, nfft).sum(axis=0)).real
    power[1:-1] *= 2  # one-sided, as estimate_psd
    return PsdEstimate(freqs, power, 0)


def _autocorrelation(d, k: int, amplitude: float, n: np.ndarray) -> np.ndarray:
    """R(n) of q[m] = A sin(theta[m + k] - theta[m]) at the lags n >= 0,
    for a Gaussian phase with the structure function
    d(n) = Var(theta[m + n] - theta[m]) (module docstring).

    exp(-d(k)) sinh(h) is taken as exp(h - d(k)) (1 - exp(-2 h)) / 2,
    which neither overflows nor underflows to 0 * inf where d(k) is
    large: h <= d(k), since |R(n)| <= R(0)."""
    h = 0.5 * (d(np.abs(k - n)) + d(k + n) - 2 * d(n))
    return amplitude**2 / 2 * np.exp(h - d(k)) * -np.expm1(-2 * h)


def _half(n: int) -> int:
    """Where NumPy's pairwise sum splits a run of n > 128 rows."""
    return n // 2 - (n // 2) % 8


def _subtrees(n: int, count: int) -> tuple[list[tuple[int, int]], set]:
    """The (start, rows) nodes of the pairwise tree of n rows, split a
    level at a time until there are at least ``count`` or all are leaves,
    and the (start, end) of each node split on the way."""
    nodes, inner = [(0, n)], set()
    while len(nodes) < count and any(m > _PAIRWISE_LEAF for _, m in nodes):
        inner.update((s, s + m) for s, m in nodes if m > _PAIRWISE_LEAF)
        nodes = [child for start, m in nodes for child in (
            [(start, m)] if m <= _PAIRWISE_LEAF else
            [(start, _half(m)), (start + _half(m), m - _half(m))])]
    return nodes, inner


def _push(done: list, entry: tuple, inner: set) -> None:
    """Append a subtree's (start, end, total) to the subtrees ``done``,
    which run in order; then, while the last two make a node of
    ``inner``, add the last total into the one before it, as
    _pairwise_power adds a node's halves."""
    done.append(entry)
    while len(done) > 1 and (done[-2][0], done[-1][1]) in inner:
        (start, _, total), (_, end, right) = done[-2:]
        total += right
        done[-2:] = [(start, end, total)]


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
    i = _first_persistent_drop(_moving_average(power) < reference / 2.0)
    if i is None:
        return BandwidthEstimate(psd.nyquist_hz, reference, True)
    return BandwidthEstimate(float(psd.freqs[i]), reference, False)


def _moving_average(power: np.ndarray) -> np.ndarray:
    """The mean of each SMOOTH_BINS-bin window centred on a bin, the
    ends extended by their edge values: scipy.ndimage's
    ``uniform_filter1d(power, SMOOTH_BINS, mode="nearest")`` bit for bit,
    which sums the first window in order, then adds each step's entering
    value less its leaving one, and divides each running sum."""
    padded = np.pad(power, SMOOTH_BINS // 2, mode="edge")
    return np.cumsum(np.concatenate([
        np.cumsum(padded[:SMOOTH_BINS])[-1:],  # a sequential sum
        padded[SMOOTH_BINS:] - padded[:-SMOOTH_BINS]])) / SMOOTH_BINS


def _first_persistent_drop(below: np.ndarray) -> int | None:
    """The first non-DC bin i with below[i : i + PERSIST_BINS + 1] all
    true, or None when there is none."""
    window = PERSIST_BINS + 1
    if len(below) <= window:
        return None
    persists = sliding_window_view(below[1:], window).all(axis=1)
    i = int(persists.argmax())
    return i + 1 if persists[i] else None
