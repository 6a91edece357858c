import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpnqrng import (
    AdcSpec,
    AnalogTrace,
    QuantizedTrace,
    analytic_min_entropy,
    code_probabilities,
    empirical_min_entropy,
    gaussian_stream,
    invert_variance,
    phase_variance,
    quantize,
    quantum_variance_from_measurement,
)
from lpnqrng.entropy import forward_variance
from lpnqrng.errors import (
    ClassicalExceedsMeasuredError,
    EmptyTraceError,
    InvalidParameterError,
    VarianceOutOfRangeError,
)
from lpnqrng.rng import raw_stream
from lpnqrng.simulate import quantize_value

from conftest import monte_carlo_code_histogram

TWO_PI = 2.0 * math.pi

# brute-force Monte Carlo oracle, 2^24 i.i.d. draws, frozen before the
# analytic implementation existed; amplitude = range - delta
MC_SIGMA2 = TWO_PI * 9.5e6 * 6.5e-9
MC_AMPLITUDE = 127.0 / 128.0
MC_P_CENTER = 0.00504154
MC_P_CENTER_SE = 1.73e-5
MC_P_BOUNDARY = 0.00480956
MC_P_BOUNDARY_SE = 1.69e-5


class TestPhaseVariance:
    def test_values(self):
        assert phase_variance(9.5e6, 6.5e-9) == pytest.approx(0.38798, abs=1e-5)
        assert phase_variance(9.5e6, 2.5e-9) == pytest.approx(0.14923, abs=1e-5)

    def test_zero_linewidth(self):
        assert phase_variance(0.0, 123.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(InvalidParameterError):
            phase_variance(-1.0, 1.0)


class TestBinProbability:
    @pytest.mark.parametrize("sigma2", [0.05, 0.4, 3.0])
    def test_total_probability(self, sigma2, adc8, default_amplitude):
        total = math.fsum(code_probabilities(sigma2, default_amplitude, adc8))
        assert abs(total - 1.0) < 1e-9

    def test_matches_vectorized_form(self, adc8, default_amplitude):
        # P_C and P_R are the probabilities of codes 0 and top, bit for bit
        top = quantize_value(default_amplitude, adc8)
        for sigma2 in (1e-3, 0.4, 3.0, 100.0):
            probs = code_probabilities(sigma2, default_amplitude, adc8)
            rep = analytic_min_entropy(sigma2, default_amplitude, adc8)
            assert rep.p_c == probs[-adc8.code_min]
            assert rep.p_r == probs[top - adc8.code_min]

    def test_interior_symmetry(self, adc8, default_amplitude):
        probs = code_probabilities(0.4, default_amplitude, adc8)
        for i in range(1, 84):
            assert abs(probs[128 + i] - probs[128 - i]) < 1e-12

    def test_center_arcsine_limit(self, adc8):
        # variance far above (2*pi)^2: the wrapped phase is uniform and
        # Q follows the arcsine law
        a = 1.0 - adc8.delta
        want = (2.0 / math.pi) * math.asin(adc8.delta / (2.0 * a))
        assert abs(analytic_min_entropy(100.0, a, adc8).p_c - want) < 1e-3
        assert want == pytest.approx(2.51e-3, abs=1e-5)

    def test_unreachable_bin_has_zero_mass(self, adc8, default_amplitude):
        assert code_probabilities(0.4, default_amplitude, adc8)[0] == 0.0

    def test_non_positive_variance(self, adc8, default_amplitude):
        # zero variance is a point mass at code 0; below zero is no variance
        probs = code_probabilities(0.0, default_amplitude, adc8)
        assert probs[-adc8.code_min] == 1.0 and probs.sum() == 1.0
        with pytest.raises(InvalidParameterError):
            code_probabilities(-1e-9, default_amplitude, adc8)

    @pytest.mark.parametrize("bits", [5, 12, 16])
    def test_bins_partition_a_range_with_rounded_edges(self, bits):
        # 0.37 V bins have edges that round; neighbouring codes share one
        # float edge, so no sliver near the sine's turning point at +-A
        # falls between two bins
        adc = AdcSpec(bits, 0.37)
        for amplitude in (adc.range - adc.delta / 2,
                          0.5 * adc.range + adc.delta / 2, 1.2 * adc.range):
            for sigma2 in (0.39, 3.0):
                probs = code_probabilities(sigma2, amplitude, adc)
                assert abs(math.fsum(probs) - 1.0) < 1e-12

    @pytest.mark.parametrize("sigma2", [0.05, 0.39, 3.0])
    @pytest.mark.parametrize("scale", [1.0, 1.5, 4.0])
    @pytest.mark.parametrize("bits", [6, 8])
    def test_clipping_amplitude_matches_monte_carlo(self, bits, scale, sigma2):
        # the end codes take every value beyond them, as quantize does
        adc = AdcSpec(bits, 1.0)
        amplitude = scale * adc.range
        probs = code_probabilities(sigma2, amplitude, adc)
        assert abs(math.fsum(probs) - 1.0) < 1e-12
        n = 2**22
        counts = monte_carlo_code_histogram(sigma2, amplitude, adc, n,
                                            seed=bits * 1000 + int(scale * 10))
        expected = n * probs
        tested = expected > 20
        z = (counts[tested] - expected[tested]) / np.sqrt(
            expected[tested] * (1.0 - probs[tested]))
        assert np.abs(z).max() <= 5.0


class TestPCenterPBoundary:
    def test_small_variance_limits(self, adc8, default_amplitude):
        rep = analytic_min_entropy(1e-6, default_amplitude, adc8)
        assert rep.p_c > 1.0 - 1e-6
        assert rep.p_r < 1e-12

    def test_center_against_frozen_monte_carlo(self, adc8):
        pc = analytic_min_entropy(MC_SIGMA2, MC_AMPLITUDE, adc8).p_c
        assert abs(pc - MC_P_CENTER) < 3 * MC_P_CENTER_SE

    def test_boundary_against_frozen_monte_carlo(self, adc8):
        pr = analytic_min_entropy(MC_SIGMA2, MC_AMPLITUDE, adc8).p_r
        assert abs(pr - MC_P_BOUNDARY) < 3 * MC_P_BOUNDARY_SE

    def test_boundary_arcsine_limit(self, adc8):
        a = 1.0 - adc8.delta
        chi = quantize_value(a, adc8) * adc8.delta
        want = 0.5 - math.asin((chi - adc8.delta / 2.0) / a) / math.pi
        assert abs(analytic_min_entropy(100.0, a, adc8).p_r - want) < 1e-3
        assert want == pytest.approx(2.82e-2, abs=1e-4)

    def test_boundary_is_topmost_bin(self, adc8, default_amplitude):
        i_star = quantize_value(default_amplitude, adc8)
        assert i_star == 84
        probs = code_probabilities(0.4, default_amplitude, adc8)
        assert probs[i_star + 1 - adc8.code_min:].max() == 0.0
        assert analytic_min_entropy(0.4, default_amplitude, adc8).p_r == (
            pytest.approx(probs[i_star - adc8.code_min], abs=1e-15))

    def test_boundary_code_clamps_at_code_max(self, adc8):
        # amplitude at the very top of the interval is the upper edge of
        # the highest code's bin, which the ADC rule keeps in that bin
        a = adc8.range - adc8.delta / 2.0
        assert quantize_value(a, adc8) == adc8.code_max
        assert analytic_min_entropy(0.4, a, adc8).p_r > 0.0


class TestAnalyticMinEntropy:
    def test_operating_points(self, adc8, default_amplitude):
        h1 = analytic_min_entropy(phase_variance(9.5e6, 2.5e-9),
                                  default_amplitude, adc8).h_min
        h2 = analytic_min_entropy(phase_variance(9.5e6, 6.5e-9),
                                  default_amplitude, adc8).h_min
        assert h1 == pytest.approx(6.345898, abs=1e-5)
        assert h2 == pytest.approx(7.035110, abs=1e-5)

    def test_report_consistency(self, adc8, default_amplitude):
        rep = analytic_min_entropy(0.4, default_amplitude, adc8)
        assert rep.p_max == max(rep.p_c, rep.p_r)
        assert rep.h_min == -math.log2(rep.p_max)
        assert 0.0 <= rep.h_min <= adc8.bits
        assert rep.method == "analytic"

    def test_vanishing_variance_limit(self, adc8, default_amplitude):
        assert analytic_min_entropy(1e-6, default_amplitude, adc8).h_min < 1e-6

    def test_zero_variance_is_degenerate(self, adc8, default_amplitude):
        rep = analytic_min_entropy(0.0, default_amplitude, adc8)
        assert (rep.p_c, rep.p_r, rep.p_max) == (1.0, 0.0, 1.0)
        assert math.copysign(1.0, rep.h_min) == 1.0 and rep.h_min == 0.0
        assert rep.sigma2 == 0.0 and rep.method == "analytic"
        for sigma2 in (-1e-9, -1.0, math.nan):
            with pytest.raises(InvalidParameterError):
                analytic_min_entropy(sigma2, default_amplitude, adc8)

    def test_zero_variance_below_half_a_code_puts_p_r_in_code_0(self, adc8):
        # A < delta/2: the ADC's code of A is code 0, so P_R is P_C
        rep = analytic_min_entropy(0.0, 0.001, adc8)
        assert (rep.p_c, rep.p_r, rep.p_max, rep.h_min) == (1.0, 1.0, 1.0, 0.0)
        assert analytic_min_entropy(1e-3, 0.001, adc8).p_r == 1.0

    def test_product_invariance_exact(self, adc8, default_amplitude):
        for dv, tl in [(9.5e6, 6.5e-9), (9.5e6, 2.5e-9)]:
            h0 = analytic_min_entropy(phase_variance(dv, tl),
                                      default_amplitude, adc8).h_min
            for c in (2.0, 5.0, 10.0):
                h = analytic_min_entropy(phase_variance(dv * c, tl / c),
                                         default_amplitude, adc8).h_min
                assert h == h0

    def test_scale_invariance_in_amplitude_and_range(self, default_amplitude):
        # only delta/A enters, and powers of two rescale exactly
        base = analytic_min_entropy(0.4, default_amplitude, AdcSpec(8, 1.0))
        for scale in (2.0, 0.5):
            scaled = analytic_min_entropy(0.4, default_amplitude * scale,
                                          AdcSpec(8, scale))
            assert scaled.h_min == base.h_min

    def test_unimodal_in_variance(self, adc8, default_amplitude):
        grid = np.logspace(-3, 2, 200)
        h = np.array([analytic_min_entropy(s2, default_amplitude, adc8).h_min
                      for s2 in grid])
        d = np.diff(h)
        signs = np.sign(np.where(np.abs(d) < 1e-9, 0.0, d))
        nz = signs[signs != 0]
        assert int(np.sum(nz[1:] != nz[:-1])) == 1
        peak = int(np.argmax(h))
        assert 0 < peak < len(grid) - 1


    # (bits, amplitude, sigma2, h_min) where the most probable code is
    # neither code 0 nor round(A/delta) with ties away from zero
    MISSED_PEAK = [(8, 0.77, 2.0, 4.864053871581463),
                     (5, 21.0 / 32.0, 3.0, 2.842277427278788),
                     (10, 0.9, 1.0, 6.780770469740783),
                     (3, 21.0 / 32.0, 2.0, 2.281520718077276)]

    @pytest.mark.parametrize("bits,amplitude,sigma2,want", MISSED_PEAK)
    def test_most_probable_code_against_monte_carlo(self, bits, amplitude,
                                                    sigma2, want):
        adc = AdcSpec(bits, 1.0)
        rep = analytic_min_entropy(sigma2, amplitude, adc)
        counts = monte_carlo_code_histogram(sigma2, amplitude, adc, 2**22,
                                            seed=bits)
        assert abs(rep.h_min - -math.log2(counts.max() / counts.sum())) < 0.05
        assert abs(rep.h_min - want) < 1e-9

    def test_amplitude_on_a_bin_edge_keeps_the_top_code(self):
        # A = 10.5 delta: the ADC puts A in code 10's bin, and code 11 is empty
        adc = AdcSpec(5, 1.0)
        amplitude = adc.default_amplitude()
        assert amplitude / adc.delta == 10.5
        rep = analytic_min_entropy(3.0, amplitude, adc)
        assert rep.p_r > 0.0
        assert rep.p_r == code_probabilities(3.0, amplitude, adc)[10 - adc.code_min]

    @given(st.integers(2, 12), st.floats(0.0, 4.0, exclude_min=True),
           st.floats(1e-3, 100.0))
    @settings(max_examples=150, deadline=None)
    def test_p_max_is_the_most_probable_code(self, bits, fraction, sigma2):
        # fractions above 1 - delta/2 clip at the end codes
        adc = AdcSpec(bits, 1.0)
        amplitude = fraction * adc.range
        rep = analytic_min_entropy(sigma2, amplitude, adc)
        probs = code_probabilities(sigma2, amplitude, adc)
        assert rep.p_max >= probs.max() * (1.0 - 1e-12)


class TestEmpiricalMinEntropy:
    def test_constant_trace(self, adc8):
        qt = QuantizedTrace(np.full(1000, 17, dtype=np.int16), adc8, 1e-10)
        rep = empirical_min_entropy(qt)
        assert rep.h_min == 0.0 and math.copysign(1.0, rep.h_min) == 1.0
        assert rep.p_max == 1.0
        assert rep.method == "empirical"

    def test_uniform_codes(self, adc8):
        raw = raw_stream(4242, 2**22)
        codes = ((raw & np.uint64(255)).astype(np.int64) - 128).astype(np.int16)
        qt = QuantizedTrace(codes, adc8, 1e-10)
        assert empirical_min_entropy(qt).h_min == pytest.approx(8.0, abs=0.05)

    def test_against_analytic(self, adc8, default_amplitude):
        sigma2 = phase_variance(9.5e6, 6.5e-9)
        theta = gaussian_stream(777, 2**22) * math.sqrt(sigma2)
        trace = AnalogTrace(default_amplitude * np.sin(theta), 1e-10, "quantum")
        h_emp = empirical_min_entropy(quantize(trace, adc8)).h_min
        h_ana = analytic_min_entropy(sigma2, default_amplitude, adc8).h_min
        assert abs(h_emp - h_ana) <= 0.05

    def test_boundary_frequency_reported(self, adc8):
        codes = np.array([0, 0, 84, 84, 84, -84], dtype=np.int16)
        rep = empirical_min_entropy(QuantizedTrace(codes, adc8, 1e-10))
        assert rep.p_r == pytest.approx(0.5)  # topmost occupied code is 84
        assert rep.p_c == pytest.approx(2.0 / 6.0)

    def test_empty_trace(self, adc8):
        with pytest.raises(EmptyTraceError):
            empirical_min_entropy(QuantizedTrace(np.empty(0, np.int16), adc8, 1.0))


class TestMonteCarloHistogram:
    # sha256 prefixes of the counts' bytes at sigma2 = 0.4, A = 21/32 and
    # seed 3; 5 * 2**20 samples cross a 2**22-sample chunk
    @pytest.mark.parametrize("n,digest", [
        (10_000, "b3d65cddac90897a"), (5 * 2**20, "dda9c10021992472")])
    def test_pinned_bytes(self, n, digest):
        counts = monte_carlo_code_histogram(0.4, 21 / 32, AdcSpec(), n, 3)
        assert hashlib.sha256(counts.tobytes()).hexdigest()[:16] == digest

    def test_total_and_determinism(self, adc8, default_amplitude):
        c1 = monte_carlo_code_histogram(0.4, default_amplitude, adc8, 10_000, 3)
        c2 = monte_carlo_code_histogram(0.4, default_amplitude, adc8, 10_000, 3)
        assert c1.sum() == 10_000
        assert np.array_equal(c1, c2)

    def test_chunk_is_computed_in_its_variates(self, adc8, default_amplitude):
        # a chunk holds its variates, turned into A*sin in place, the
        # quantizer's float and int16 codes: 2.25 float64 per sample, where
        # a scaled copy and a sine array on top made 3.25
        n = 2**20
        monte_carlo_code_histogram(0.4, default_amplitude, adc8, 1000, 3)
        tracemalloc.start()
        try:
            monte_carlo_code_histogram(0.4, default_amplitude, adc8, n, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 8 * n, peak / (8 * n)

    def test_respects_support(self, adc8, default_amplitude):
        counts = monte_carlo_code_histogram(3.0, default_amplitude, adc8, 10_000, 9)
        occupied = np.flatnonzero(counts) + adc8.code_min
        top = quantize_value(default_amplitude, adc8)
        assert occupied.min() >= -top and occupied.max() <= top

    @pytest.mark.parametrize("amplitude", [0.001, 0.5, 127.0 / 128.0])
    def test_zero_variance_matches_the_analytic_point_mass(self, adc8,
                                                           amplitude):
        counts = monte_carlo_code_histogram(0.0, amplitude, adc8, 5_000, 4)
        assert np.array_equal(
            counts, 5_000 * code_probabilities(0.0, amplitude, adc8))


class TestVarianceRelations:
    def test_forward_values(self):
        assert forward_variance(0.5, 1.0) == pytest.approx(0.316060, abs=1e-6)
        assert forward_variance(0.0, 2.0) == 0.0
        assert forward_variance(400.0, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_invert_values(self):
        assert invert_variance(0.316060, 1.0) == pytest.approx(0.5, abs=1e-6)
        assert invert_variance(0.0, 2.0) == 0.0

    def test_invert_domain(self):
        with pytest.raises(VarianceOutOfRangeError):
            invert_variance(0.5, 1.0)

    # A * A is inf above about 1.34e154 V
    @pytest.mark.parametrize("amplitude", [1.5e154, 1e200])
    @pytest.mark.parametrize("relation", [forward_variance, invert_variance])
    def test_amplitude_whose_square_overflows(self, relation, amplitude):
        with pytest.raises(InvalidParameterError, match="amplitude"):
            relation(0.1, amplitude)

    def test_largest_amplitude_with_a_finite_square(self):
        a = 1.34e154
        assert forward_variance(0.5, a) == 0.5 * a * a * -math.expm1(-1.0)
        assert invert_variance(5e307, a) == -0.5 * math.log1p(
            -2.0 * 5e307 / (a * a))

    @given(st.floats(min_value=1e-4, max_value=5.0),
           st.sampled_from([0.5, 1.0, 2.0]))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, sigma2, amplitude):
        rt = invert_variance(forward_variance(sigma2, amplitude), amplitude)
        assert abs(rt - sigma2) < 1e-12

    def test_measurement_subtraction(self):
        assert quantum_variance_from_measurement(0.5, 0.1) == pytest.approx(0.4)
        assert quantum_variance_from_measurement(0.3, 0.3) == 0.0
        with pytest.raises(ClassicalExceedsMeasuredError):
            quantum_variance_from_measurement(0.1, 0.2)
