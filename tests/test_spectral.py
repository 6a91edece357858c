
import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import signal
from scipy.ndimage import uniform_filter1d

from lpnqrng import (AdcSpec, SimSettings, _parallel, bandwidth_3db,
                     estimate_psd, evaluate_point, gaussian_stream)
from lpnqrng.entropy import forward_variance
from lpnqrng.errors import EmptyPsdError, InvalidParameterError, TraceTooShortError
from lpnqrng.simulate import AnalogTrace
from lpnqrng.spectral import (_WELCH_BLOCK_SAMPLES, PERSIST_BINS, PsdEstimate,
                              _first_persistent_drop)

from conftest import TAU_S, base_params, quantum_trace, white_trace

FS = 1.0 / TAU_S


def tone_trace(freq, n, amp=1.0):
    t = np.arange(n) * TAU_S
    return AnalogTrace(amp * np.sin(2 * np.pi * freq * t), TAU_S, "measured")


class TestEstimatePsd:
    def test_pure_tone_peak_and_power(self):
        f0 = FS / 8.0  # Nyquist / 4, exactly on a bin
        psd = estimate_psd(tone_trace(f0, 2**15), nfft=1024, overlap_fraction=0.5)
        assert psd.freqs[np.argmax(psd.power)] == pytest.approx(f0)
        total = psd.power.sum() * psd.df_hz
        assert total == pytest.approx(0.5, rel=0.02)

    def test_white_noise_level(self):
        v = 0.09
        psd = estimate_psd(white_trace(0.3, 2**20, seed=77), nfft=1024,
                           overlap_fraction=0.5)
        level = psd.power[1:].mean()
        assert level == pytest.approx(v / (FS / 2.0), rel=0.05)

    def test_parseval(self):
        q = quantum_trace(9.5e6, 65, 2**21, seed=5)
        psd = estimate_psd(q)
        total = psd.power.sum() * psd.df_hz
        assert total == pytest.approx(q.samples.var(), rel=0.02)

    def test_axes_and_invariants(self):
        q = quantum_trace(9.5e6, 25, 2**18, seed=2)
        psd = estimate_psd(q, nfft=2048)
        assert len(psd.freqs) == len(psd.power) == 2048 // 2 + 1
        assert psd.freqs[0] == 0.0
        assert psd.nyquist_hz == pytest.approx(FS / 2.0)
        assert np.all(psd.power >= 0.0)
        assert psd.n_segments == (2**18 - 25 - 1024) // 1024

    def test_interference_nulls_and_decay(self):
        # delayed self-interference leaves minima near multiples of 1/delay
        q = quantum_trace(9.5e6, 65, 2**22, seed=5)
        psd = estimate_psd(q)
        sm = uniform_filter1d(psd.power, size=5, mode="nearest")
        f0 = 1.0 / 6.5e-9
        for j in (1, 2, 3):
            sel = (psd.freqs > j * f0 - 12e6) & (psd.freqs < j * f0 + 12e6)
            f_null = psd.freqs[sel][np.argmin(sm[sel])]
            assert abs(f_null - j * f0) < 8e6
        # band maxima between nulls decay monotonically
        peaks = []
        for j in (1, 2, 3):
            sel = (psd.freqs > (j - 0.8) * f0) & (psd.freqs < (j - 0.2) * f0)
            peaks.append(sm[sel].max())
        assert peaks[0] > peaks[1] > peaks[2]

    @pytest.mark.parametrize("linewidth", [19.5e6, 22e6])
    def test_shape_at_large_linewidth(self, linewidth):
        q = quantum_trace(linewidth, 65, 2**21, seed=8)
        psd = estimate_psd(q)
        sm = uniform_filter1d(psd.power, size=5, mode="nearest")
        f0 = 1.0 / 6.5e-9
        sel = (psd.freqs > f0 - 15e6) & (psd.freqs < f0 + 15e6)
        f_null = psd.freqs[sel][np.argmin(sm[sel])]
        assert abs(f_null - f0) < 10e6

    @pytest.mark.parametrize("nfft", [256, 1024, 8192])
    @pytest.mark.parametrize("overlap", [0.0, 0.25, 0.5, 0.75])
    @pytest.mark.parametrize("blocks", ["block-1", "block", "block+1",
                                        "2block+1"])
    def test_matches_scipy_welch_bit_for_bit(self, nfft, overlap, blocks):
        rows = max(1, _WELCH_BLOCK_SAMPLES // nfft)
        n_segments = {"block-1": rows - 1, "block": rows, "block+1": rows + 1,
                      "2block+1": 2 * rows + 1}[blocks]
        noverlap = int(overlap * nfft)
        step = nfft - noverlap
        # a partial hop at the end that no segment covers
        n = noverlap + n_segments * step + step // 3
        x = 0.3 * gaussian_stream(nfft + n_segments, n) + 0.05
        trace = AnalogTrace(x, TAU_S, "measured")
        psd = estimate_psd(trace, nfft, overlap)
        freqs, power = signal.welch(
            x - x.mean(), FS, "hann", nperseg=nfft, noverlap=noverlap,
            nfft=nfft, detrend=False, return_onesided=True, scaling="density")
        assert psd.n_segments == n_segments
        assert np.array_equal(psd.freqs, freqs)
        assert np.array_equal(psd.power, power)

    # segment counts at the edges of NumPy's pairwise tree: below one
    # 8-row group, around a 128-row leaf and its splits, the sweep (1023)
    # and lab_trace (2047) counts, and past NumPy's 8192-element buffer;
    # two half-overlapped segments are too short a trace, so 2 runs at 0;
    # welch transforms one segment at a time, so 8193 runs once
    @pytest.mark.parametrize("n_segments,overlap", [(2, 0.0)] + [
        (n, overlap) for n in (3, 7, 8, 9, 15, 16, 17, 127, 128, 129, 136,
                               255, 257, 1023, 2047)
        for overlap in (0.0, 0.5)] + [(8193, 0.5)])
    def test_matches_scipy_welch_at_pairwise_tree_edges(self, n_segments,
                                                        overlap):
        nfft = 16
        noverlap = int(overlap * nfft)
        step = nfft - noverlap
        n = noverlap + n_segments * step + step // 3
        x = 0.3 * gaussian_stream(n_segments, n) + 0.05
        psd = estimate_psd(AnalogTrace(x, TAU_S, "measured"), nfft, overlap)
        _, power = signal.welch(
            x - x.mean(), FS, "hann", nperseg=nfft, noverlap=noverlap,
            nfft=nfft, detrend=False, return_onesided=True, scaling="density")
        assert psd.n_segments == n_segments
        assert np.array_equal(psd.power, power)

    def test_too_short(self):
        q = quantum_trace(9.5e6, 25, 2**12, seed=1)
        with pytest.raises(TraceTooShortError):
            estimate_psd(q, nfft=8192)

    @pytest.mark.parametrize("kwargs", [
        {"nfft": 1000}, {"nfft": 0}, {"overlap_fraction": 1.0},
        {"overlap_fraction": -0.1},
    ])
    def test_invalid_args(self, kwargs):
        q = quantum_trace(9.5e6, 25, 2**13, seed=1)
        with pytest.raises(InvalidParameterError):
            estimate_psd(q, **{"nfft": 1024, "overlap_fraction": 0.5, **kwargs})

    @pytest.mark.parametrize("bad", [[np.nan], [np.inf], [np.inf, -np.inf],
                                     [np.nan] * 2**15],
                             ids=["nan", "+inf", "inf-mix", "all-nan"])
    def test_non_finite_sample_rejected(self, bad):
        # an all-NaN trace must not read as b_es_hz = Nyquist, saturated
        x = np.zeros(2**15)
        x[-len(bad):] = bad
        with pytest.raises(InvalidParameterError, match="must be finite"):
            estimate_psd(AnalogTrace(x, TAU_S, "quantum"), 1024)


def model_psd(linewidth_hz, k, amplitude, nfft, tau_s=TAU_S):
    """The mean of estimate_psd's one-sided density under the model.

    q[m] = A sin(theta[m + k] - theta[m]) has the autocorrelation
    R(l) = A^2 exp(-k s2) sinh(s2 (k - |l|)) for |l| <= k and 0 beyond,
    with s2 = 2 pi linewidth tau_s the variance of one phase step. A
    Hann-windowed segment's periodogram then has the mean
    tau_s / sum(w^2) times the transform of R(l) c_w(l), where c_w is the
    window's autocorrelation; the taps are placed circularly in nfft.
    """
    s2 = 2 * np.pi * linewidth_hz * tau_s
    lags = np.arange(-k, k + 1)
    r = amplitude**2 * np.exp(-k * s2) * np.sinh(s2 * (k - np.abs(lags)))
    w = signal.windows.hann(nfft, sym=False)
    c_w = np.correlate(w, w, "full")  # lag l at index l + nfft - 1
    taps = np.zeros(nfft)
    np.add.at(taps, lags % nfft, r * c_w[lags + nfft - 1])
    density = np.fft.rfft(taps).real * tau_s / np.sum(w**2)
    density[1:-1] *= 2  # one-sided, as estimate_psd
    return density


class TestModelSpectrum:
    #: the variance of a Welch mean over K Hann segments at 50% overlap is
    #: 1 + 2 (1/6)^2 times that of K independent periodograms
    HANN_HALF_OVERLAP = 1 + 2 * (1 / 6) ** 2

    @pytest.mark.parametrize("seed", [7, 8])
    @pytest.mark.parametrize("linewidth_hz,delay_s", [
        (5e6, 1.5e-9), (9.5e6, 2.5e-9), (20e6, 4.5e-9), (40e6, 6.5e-9),
        (80e6, 10e-9)])
    def test_sweep_bandwidth_matches_the_closed_form(self, linewidth_hz,
                                                     delay_s, seed):
        # the diagonal of the benchmark's sweep grid; over all 25 of its
        # points at seeds 7-10 the gap ran from -3.24% to +3.27%
        sim = SimSettings(seed=seed)
        exact = model_psd(linewidth_hz, round(delay_s / TAU_S),
                          AdcSpec().default_amplitude(), sim.nfft)
        want = bandwidth_3db(PsdEstimate(np.fft.rfftfreq(sim.nfft, TAU_S),
                                         exact, 1), sim.plateau_bins)
        got = evaluate_point(linewidth_hz, delay_s, base_params(), sim)
        assert not (want.saturated or got.saturated)
        assert got.b_es_hz == pytest.approx(want.b_es_hz, rel=0.04)

    @pytest.mark.parametrize("linewidth_hz,delay_s", [
        (9.5e6, 2.5e-9), (40e6, 1.5e-9), (5e6, 10e-9), (80e6, 6.5e-9)])
    def test_welch_mean_matches_the_closed_form(self, linewidth_hz, delay_s):
        k = round(delay_s / TAU_S)
        amplitude, nfft = AdcSpec().default_amplitude(), 1024
        psds = [estimate_psd(quantum_trace(linewidth_hz, k, 2**20, seed), nfft)
                for seed in (11, 12, 13, 14)]
        n_segments = sum(p.n_segments for p in psds)
        mean = np.mean([p.power for p in psds], axis=0)
        expected = model_psd(linewidth_hz, k, amplitude, nfft)
        # the global mean removal biases DC only
        z = ((mean / expected - 1)[1:]
             * np.sqrt(n_segments / self.HANN_HALF_OVERLAP))
        assert np.abs(z).max() <= 5
        assert np.sqrt(np.mean(z**2)) == pytest.approx(1, rel=0.1)
        total = expected.sum() * psds[0].df_hz
        sigma_d2 = 2 * np.pi * linewidth_hz * k * TAU_S
        assert total == pytest.approx(forward_variance(sigma_d2, amplitude),
                                      rel=1e-12)


class TestPsdMemory:
    @staticmethod
    def psd_peak_bytes(n_samples, nfft=8192):
        trace = AnalogTrace(np.sin(0.1 * np.arange(n_samples)), TAU_S,
                            "measured")
        tracemalloc.start()
        try:
            estimate_psd(trace, nfft=nfft)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_does_not_grow_with_the_trace(self):
        short, long = self.psd_peak_bytes(2**20), self.psd_peak_bytes(2**22)
        assert long <= 1.05 * short

    def test_peak_does_not_grow_with_the_worker_count(self, monkeypatch):
        # the parts share one block of 2**17 samples (128 rows at nfft
        # 1024) while each gets 8 rows or more; a part that allocated its
        # own block, or held a leaf's powers, would add them per part
        self.psd_peak_bytes(2**21, 1024)  # fills the caches
        peaks = []
        for n in (1, 2, 3):
            monkeypatch.setattr(_parallel, "workers", lambda n=n: n)
            peaks.append(self.psd_peak_bytes(2**21, 1024))
        assert max(peaks[1:]) <= 1.05 * peaks[0], peaks

    def test_sweep_path_leaves_no_reference_cycle(self):
        sim = SimSettings(n_samples=2**16, nfft=1024, seed=5)
        trace = white_trace(0.3, 2**16, seed=6)

        def run():
            evaluate_point(9.5e6, 2.5e-9, base_params(), sim)
            estimate_psd(trace, nfft=1024)

        run()  # first-call imports and caches are not per-call garbage
        gc.collect()
        gc.disable()
        try:
            run()
            assert gc.collect() == 0
        finally:
            gc.enable()


def single_pole_psd(fc, nfft=8192):
    freqs = np.linspace(0.0, FS / 2.0, nfft // 2 + 1)
    return PsdEstimate(freqs, 1.0 / (1.0 + (freqs / fc) ** 2), 1)


class TestBandwidth3db:
    def test_single_pole_fixture(self):
        bw = bandwidth_3db(single_pole_psd(100e6))
        assert not bw.saturated
        assert bw.b_es_hz == pytest.approx(100e6, rel=0.05)

    def test_flat_spectrum_saturates(self):
        freqs = np.linspace(0.0, FS / 2.0, 4097)
        psd = PsdEstimate(freqs, np.ones_like(freqs), 1)
        bw = bandwidth_3db(psd)
        assert bw.saturated
        assert bw.b_es_hz == psd.nyquist_hz

    def test_simulated_operating_point(self):
        q = quantum_trace(9.5e6, 25, 2**21, seed=3)
        bw = bandwidth_3db(estimate_psd(q))
        assert bw.b_es_hz == pytest.approx(185.18e6, rel=0.25)

    def test_seed_robustness(self):
        estimates = []
        for seed in (1, 2):
            q = quantum_trace(9.5e6, 65, 2**22, seed=seed)
            estimates.append(bandwidth_3db(estimate_psd(q)).b_es_hz)
        assert abs(estimates[0] - estimates[1]) <= 0.05 * min(estimates)

    def test_unequal_arrays_rejected(self):
        with pytest.raises(InvalidParameterError, match="equal length"):
            PsdEstimate(np.zeros(5), np.zeros(4), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_reference_rejected(self, bad):
        psd = single_pole_psd(100e6)
        power = psd.power.copy()
        power[1:1 + 16] = bad  # the default plateau
        with pytest.raises(InvalidParameterError, match="must be finite"):
            bandwidth_3db(PsdEstimate(psd.freqs, power, 1))

    def test_empty_psd(self):
        psd = PsdEstimate(np.empty(0), np.empty(0), 0)
        with pytest.raises(EmptyPsdError):
            bandwidth_3db(psd)

    @staticmethod
    def first_drop_by_loop(below):
        for i in range(1, len(below) - PERSIST_BINS):
            if below[i:i + PERSIST_BINS + 1].all():
                return i
        return None

    @given(st.lists(st.booleans(), min_size=1, max_size=64))
    @example([True] * 9)
    @example([False] * 5 + [True] * 4)  # at the last legal index, n - 4
    @example([False] * 6 + [True] * 3)  # a drop too short to persist
    @example([True, False, True, True, True, False, True, True])  # none
    @settings(max_examples=150, deadline=None)
    def test_persistence_scan_matches_the_loop(self, pattern):
        below = np.array(pattern)
        assert _first_persistent_drop(below) == self.first_drop_by_loop(below)

    def test_plateau_bins_validation(self):
        with pytest.raises(InvalidParameterError):
            bandwidth_3db(single_pole_psd(100e6), plateau_bins=0)
