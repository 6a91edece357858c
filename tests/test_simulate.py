import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpnqrng import (
    AdcSpec,
    add_electronic_noise,
    delay_index,
    forward_variance,
    quantize,
    quantum_noise,
    sample_phase_path,
)
from lpnqrng.errors import (
    DelayTooSmallError,
    InvalidParameterError,
    PathTooShortError,
)
from lpnqrng.simulate import AnalogTrace, quantize_value

from conftest import chunk_se_of_variance, quantum_trace

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


class TestElectronicNoise:
    def test_zero_sigma_is_identity(self):
        q = quantum_trace(9.5e6, 25, 1024, seed=1)
        m = add_electronic_noise(q, 0.0, seed=5)
        assert np.array_equal(m.samples, q.samples)
        assert m.label == "measured"

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
