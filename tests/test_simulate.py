import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpnqrng import (
    AdcSpec,
    SimSettings,
    SystemParams,
    _parallel,
    add_electronic_noise,
    evaluate_point,
    quantize,
    quantum_noise,
    sample_phase_path,
    simulate,
)
from lpnqrng.entropy import forward_variance
from lpnqrng.errors import (
    DelayTooSmallError,
    InvalidParameterError,
    LpnError,
    PathTooShortError,
)
from lpnqrng.params import delay_index
from lpnqrng.simulate import (AnalogTrace, PhasePath, QuantizedTrace,
                              _quantum_trace, quantize_value)

from conftest import base_params, chunk_se_of_variance, quantum_trace

TWO_PI = 2.0 * math.pi


class TestPhasePath:
    def test_zero_linewidth_gives_zero_path(self):
        path = sample_phase_path(0.0, 1e-10, 100, seed=3)
        assert np.all(path.samples == 0.0)

    def test_origin_convention(self):
        path = sample_phase_path(9.5e6, 1e-10, 16, seed=1)
        assert path.samples[0] == 0.0

    def test_increment_variance(self):
        # increments are i.i.d. Gaussian, so the plain estimator SE applies
        n = 2**20
        path = sample_phase_path(9.5e6, 1e-10, n + 1, seed=1)
        inc = np.diff(path.samples)
        target = TWO_PI * 9.5e6 * 1e-10
        se = target * math.sqrt(2.0 / n)
        assert abs(inc.var() - target) < 5 * se

    def test_increment_gaussianity_excess_kurtosis(self):
        n = 2**20
        inc = np.diff(sample_phase_path(9.5e6, 1e-10, n + 1, seed=1).samples)
        c = inc - inc.mean()
        kurt = (c**4).mean() / c.var() ** 2 - 3.0
        assert abs(kurt) < 5 * math.sqrt(24.0 / n)

    def test_determinism(self):
        a = sample_phase_path(9.5e6, 1e-10, 2**14, seed=1)
        b = sample_phase_path(9.5e6, 1e-10, 2**14, seed=1)
        assert np.array_equal(a.samples, b.samples)

    def test_too_short(self):
        with pytest.raises(InvalidParameterError):
            sample_phase_path(1e6, 1e-10, 1, seed=0)

    def test_immutable(self):
        path = sample_phase_path(1e6, 1e-10, 8, seed=0)
        with pytest.raises(ValueError):
            path.samples[0] = 1.0


class TestDelayIndex:
    @pytest.mark.parametrize("delay,tau,want", [
        (6.5e-9, 1e-10, 65),
        (2.5e-9, 1e-10, 25),
        (1.5, 1.0, 2),      # exact tie rounds away from zero
        (9.9e-10, 1e-10, 10),
    ])
    def test_values(self, delay, tau, want):
        assert delay_index(delay, tau) == want

    def test_too_small(self):
        with pytest.raises(DelayTooSmallError):
            delay_index(0.04e-9, 1e-10)

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            delay_index(-1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            delay_index(1e300, 1e-300)  # overflows to an infinite index


class TestQuantumNoise:
    def test_zero_path_gives_zero_trace(self):
        path = sample_phase_path(0.0, 1e-10, 64, seed=0)
        q = quantum_noise(path, 5, amplitude=1.0)
        assert np.all(q.samples == 0.0)
        assert len(q) == 64 - 5
        assert q.label == "quantum"

    def test_linear_in_amplitude(self):
        path = sample_phase_path(9.5e6, 1e-10, 256, seed=9)
        q1 = quantum_noise(path, 7, amplitude=1.0)
        q2 = quantum_noise(path, 7, amplitude=2.0)
        assert np.array_equal(q2.samples, 2.0 * q1.samples)

    def test_bounded_by_amplitude_exactly(self):
        q = quantum_trace(19.5e6, 65, 2**16, seed=4, amplitude=0.75)
        assert np.abs(q.samples).max() <= 0.75

    def test_variance_law(self):
        # Var(Q) = A^2/2 (1 - exp(-2*sigma2)) with sigma2 at the rounded delay
        a = AdcSpec().default_amplitude()
        q = quantum_trace(9.5e6, 65, 2**22, seed=7)
        target = forward_variance(TWO_PI * 9.5e6 * 6.5e-9, a)
        se = chunk_se_of_variance(q.samples)
        assert abs(q.samples.var() - target) < 3 * se

    def test_stationarity_between_halves(self):
        q = quantum_trace(9.5e6, 65, 2**22, seed=42)
        h1, h2 = np.array_split(q.samples, 2)
        se = math.hypot(chunk_se_of_variance(h1, 32), chunk_se_of_variance(h2, 32))
        assert abs(h1.var() - h2.var()) < 5 * se

    def test_path_too_short(self):
        path = sample_phase_path(1e6, 1e-10, 10, seed=0)
        with pytest.raises(PathTooShortError):
            quantum_noise(path, 10, 1.0)

    def test_empty_path_is_counted_as_zero_samples(self):
        # the kernel takes theta[0] apart from theta[1:]; an empty path
        # has neither
        with pytest.raises(PathTooShortError,
                           match="^path of 0 samples cannot support"):
            quantum_noise(PhasePath(np.zeros(0), 1e-10), 1, 1.0)


class TestQuantumTrace:
    """The one-buffer route that evaluate_point and ``lpnqrng simulate``
    take; its bytes at every worker count are checked in test_parallel."""

    # 0.5 ns at tau_s = 0.1 ns is the delay index 5
    DESIGN = SystemParams(9.5e6, 5e-10, amplitude=0.5)

    def test_equals_the_two_calls(self):
        design = SystemParams(9.5e6, 6.5e-9, amplitude=0.75)
        q = _quantum_trace(design, 4096, seed=8)
        want = quantum_noise(sample_phase_path(9.5e6, 1e-10, 4096, seed=8),
                             65, 0.75)
        assert q.samples.tobytes() == want.samples.tobytes()
        assert (q.sample_period_s, q.label) == (1e-10, "quantum")
        with pytest.raises(ValueError):
            q.samples[0] = 1.0

    def test_numpy_delay_index_gives_the_same_bytes(self):
        # quantum_noise computes with the Python int that the delay
        # index rule returns, and the route with the design's
        path = sample_phase_path(9.5e6, 1e-10, 4096, seed=8)
        want = quantum_noise(path, 65, 0.75).samples.tobytes()
        assert quantum_noise(path, np.int64(65), 0.75).samples.tobytes() == want
        design = SystemParams(np.float64(9.5e6), np.float64(6.5e-9),
                              amplitude=np.float64(0.75))
        q = _quantum_trace(design, np.int64(4096), seed=np.uint64(8))
        assert q.samples.tobytes() == want

    @pytest.mark.parametrize("seed", [3, -1, 2**64, 1.5])
    def test_zero_linewidth_gives_positive_zeros_and_draws_nothing(
            self, monkeypatch, seed):
        # as in sample_phase_path: no stream is drawn, so the seed is
        # not checked
        def no_stream(*args):
            raise AssertionError("a stream was drawn")

        monkeypatch.setattr(simulate, "gaussian_stream", no_stream)
        q = _quantum_trace(SystemParams(0.0, 5e-10, amplitude=1.0), 64, seed)
        assert q.samples.tobytes() == np.zeros(59).tobytes()
        want = quantum_noise(sample_phase_path(0.0, 1e-10, 64, seed), 5, 1.0)
        assert q.samples.tobytes() == want.samples.tobytes()

    # one bad argument a call; SystemParams has checked the design
    @pytest.mark.parametrize("n_samples,seed", [(1, 2), (5, 2), (6, -1)],
                             ids=["n_samples", "path-too-short", "seed"])
    def test_errors_equal_the_two_calls(self, n_samples, seed):
        with pytest.raises(LpnError) as got:
            _quantum_trace(self.DESIGN, n_samples, seed)
        with pytest.raises(LpnError) as want:
            quantum_noise(sample_phase_path(9.5e6, 1e-10, n_samples, seed),
                          5, 0.5)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("n_samples,message", [
        (1, "n_samples must"),
        (5, "path of 5 samples cannot support delay index 5")])
    def test_n_samples_then_path_length_come_before_the_seed(self, n_samples,
                                                           message):
        # both are checked before the draw, which checks the seed
        with pytest.raises(LpnError) as got:
            _quantum_trace(self.DESIGN, n_samples, -1)
        assert str(got.value).startswith(message)

    def test_too_long_delay_fails_before_the_path_is_drawn(self, monkeypatch):
        # 1 ms at tau_s = 0.1 ns is 10**7 samples, more than the 2**22 drawn
        def no_stream(*args):
            raise AssertionError("a stream was drawn")

        monkeypatch.setattr(simulate, "gaussian_stream", no_stream)
        with pytest.raises(PathTooShortError):
            _quantum_trace(SystemParams(9.5e6, 1e-3), 2**22, 3)
        with pytest.raises(PathTooShortError):
            evaluate_point(9.5e6, 1e-3, base_params(),
                           SimSettings(n_samples=2**22, seed=3))

    def test_evaluate_point_peak_grows_by_one_sample_per_sample(self):
        # the trace is built where its variates are drawn: from 2**21 to
        # 2**22 samples the peak grows by one float64 per added sample
        # (two while the path and the trace were separate arrays)
        evaluate_point(9.5e6, 2.5e-9, base_params(),
                       SimSettings(n_samples=2**18, seed=3))  # warm caches
        peaks = []
        for n in (2**21, 2**22):
            tracemalloc.start()
            try:
                evaluate_point(9.5e6, 2.5e-9, base_params(),
                               SimSettings(n_samples=n, seed=3))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        growth = (peaks[1] - peaks[0]) / (8 * 2**21)
        assert growth <= 1.1, growth
        assert peaks[1] <= 45 * 2**20, peaks[1] / 2**20


class TestElectronicNoise:
    def test_zero_sigma_is_identity(self):
        q = quantum_trace(9.5e6, 25, 1024, seed=1)
        m = add_electronic_noise(q, 0.0, seed=5)
        assert np.array_equal(m.samples, q.samples)
        assert m.label == "measured"

    @pytest.mark.parametrize("seed", [5, -1])
    def test_zero_sigma_shares_the_quantum_samples(self, seed):
        # no stream is drawn, so the seed is not checked, and no copy
        # of the frozen samples is made
        q = quantum_trace(9.5e6, 25, 2**16, seed=1)
        tracemalloc.start()
        try:
            m = add_electronic_noise(q, 0.0, seed=seed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert m.samples.tobytes() == q.samples.tobytes()
        assert peak < 8 * len(q) // 4, peak
        with pytest.raises(ValueError):
            m.samples[0] = 1.0

    def test_added_component_variance(self):
        n = 2**20
        q = AnalogTrace(np.zeros(n), 1e-10, "quantum")
        m = add_electronic_noise(q, 0.01, seed=11)
        diff = m.samples - q.samples
        se = 1e-4 * math.sqrt(2.0 / n)
        assert abs(diff.var() - 1e-4) < 5 * se

    def test_determinism(self):
        q = quantum_trace(9.5e6, 25, 4096, seed=1)
        m1 = add_electronic_noise(q, 0.02, seed=6)
        m2 = add_electronic_noise(q, 0.02, seed=6)
        assert np.array_equal(m1.samples, m2.samples)


class TestQuantize:
    def test_center_of_center_bin(self, adc8):
        t = AnalogTrace(np.array([0.0]), 1.0, "measured")
        assert quantize(t, adc8).codes[0] == 0

    def test_upper_edge_belongs_to_bin(self, adc8):
        d = adc8.delta
        for i in (-5, -1, 0, 1, 7, 100):
            t = AnalogTrace(np.array([i * d + d / 2]), 1.0, "measured")
            assert quantize(t, adc8).codes[0] == i

    def test_saturation(self, adc8):
        t = AnalogTrace(np.array([10.0, -10.0]), 1.0, "measured")
        codes = quantize(t, adc8).codes
        assert codes[0] == 127 and codes[1] == -128

    def test_infinities_saturate(self, adc8):
        t = AnalogTrace(np.array([0.1, math.inf, -math.inf]), 1.0, "quantum")
        assert quantize(t, adc8).codes.tolist() == [13, 127, -128]

    @pytest.mark.parametrize("at", [0, 1, 4095])
    def test_nan_has_no_code(self, adc8, at):
        x = np.zeros(4096)
        x[at] = math.nan
        with pytest.raises(InvalidParameterError, match="NaN"):
            quantize(AnalogTrace(x, 1.0, "quantum"), adc8)

    def test_empty_trace(self, adc8):
        assert len(quantize(AnalogTrace(np.zeros(0), 1.0, "quantum"), adc8)) == 0

    def test_runs_on_the_calling_thread(self, monkeypatch, adc8):
        # a second thread made it slower, so it starts none at any
        # worker count
        monkeypatch.setattr(_parallel, "workers", lambda: 3)
        started, runs = [], []
        monkeypatch.setattr(threading.Thread, "start",
                            lambda self: started.append(self))
        monkeypatch.setattr(_parallel, "run",
                            lambda *args: runs.append(args))
        x = np.linspace(-1.2, 1.2, 3 * 2**16 + 77)
        codes = quantize(AnalogTrace(x, 1.0, "measured"), adc8).codes
        assert not started and not runs
        want = np.clip(np.ceil(x / adc8.delta - 0.5), -128, 127)
        assert codes.tobytes() == want.astype(np.int16).tobytes()

    def test_matches_scalar_form(self, adc8):
        x = np.linspace(-1.2, 1.2, 1001)
        codes = quantize(AnalogTrace(x, 1.0, "measured"), adc8).codes
        assert all(int(c) == quantize_value(v, adc8) for c, v in zip(codes, x))

    @given(st.floats(min_value=-4.0, max_value=4.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_every_input_gets_exactly_one_valid_code(self, x):
        adc = AdcSpec(bits=8, range=1.0)
        c = quantize_value(x, adc)
        assert adc.code_min <= c <= adc.code_max

    @given(st.integers(min_value=-126 * 8, max_value=125 * 8))
    @settings(max_examples=200, deadline=None)
    def test_shift_by_delta_moves_one_code(self, eighths):
        # dyadic grid keeps x and x + delta exact in binary
        adc = AdcSpec(bits=8, range=1.0)
        x = eighths * (adc.delta / 8.0)
        a = quantize_value(x, adc)
        b = quantize_value(x + adc.delta, adc)
        if adc.code_min < a < adc.code_max and adc.code_min < b < adc.code_max:
            assert b - a == 1


class TestQuantizedTrace:
    @pytest.mark.parametrize("codes", [
        np.array([65541]), np.array([-129]), np.array([128], np.uint8),
        np.array([2**63], np.uint64)],
        ids=["wraps-to-5", "below", "uint8-above", "uint64-above"])
    def test_out_of_range_codes_rejected_before_the_cast(self, adc8, codes):
        with pytest.raises(InvalidParameterError, match="ADC code range"):
            QuantizedTrace(codes, adc8, 1e-10)

    @pytest.mark.parametrize("codes", [[1.7], [-0.9], [1.0], [True]],
                             ids=["1.7", "-0.9", "1.0", "bool"])
    def test_codes_without_an_integer_dtype_rejected(self, adc8, codes):
        with pytest.raises(InvalidParameterError, match="integer dtype"):
            QuantizedTrace(np.array(codes), adc8, 1e-10)

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int64, np.uint8])
    def test_integer_codes_in_range_are_kept_as_int16(self, adc8, dtype):
        codes = np.array([0, 5, 127], dtype=dtype)
        qt = QuantizedTrace(codes, adc8, 1e-10)
        assert qt.codes.dtype == np.int16
        assert np.array_equal(qt.codes, [0, 5, 127])
