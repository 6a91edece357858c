import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from lpnqrng import (
    AdcSpec,
    AnalogTrace,
    QuantizedTrace,
    SimSettings,
    SweepGrid,
    SystemParams,
    ToeplitzSpec,
    add_electronic_noise,
    analytic_min_entropy,
    bandwidth_3db,
    code_probabilities,
    estimate_psd,
    extract_block,
    gaussian_stream,
    invert_variance,
    monobit_test,
    phase_variance,
    quantum_noise,
    quantum_variance_from_measurement,
    runs_test,
    sample_phase_path,
)
from lpnqrng.entropy import forward_variance
from lpnqrng.errors import DelayTooSmallError, InvalidParameterError
from lpnqrng.extractor import (codes_to_bits, output_bits_for,
                               pack_bits_to_bytes, pack_bits_to_words,
                               unpack_bytes_to_bits)
from lpnqrng.params import (check_bits, check_count, check_n_samples,
                            check_toeplitz_geometry, delay_index, one_of)

from conftest import monte_carlo_code_histogram


class TestAdcSpec:
    def test_delta_is_exact(self):
        assert AdcSpec(bits=8, range=1.0).delta == 1.0 / 128.0
        assert AdcSpec(bits=12, range=2.0).delta == 2.0 / 2048.0

    def test_code_range(self):
        adc = AdcSpec(bits=8, range=1.0)
        assert (adc.code_min, adc.code_max, adc.n_codes) == (-128, 127, 256)

    @pytest.mark.parametrize("bits", [1, 17, 0, -3])
    def test_bits_bounds(self, bits):
        with pytest.raises(InvalidParameterError):
            AdcSpec(bits=bits)

    @pytest.mark.parametrize("rng", [0.0, -1.0, float("inf"), float("nan")])
    def test_range_bounds(self, rng):
        with pytest.raises(InvalidParameterError):
            AdcSpec(range=rng)

    def test_default_amplitude_fraction(self):
        adc = AdcSpec(bits=8, range=1.0)
        assert adc.default_amplitude() == 21.0 / 32.0
        # an exact integer number of code widths for common resolutions
        for bits in (6, 8, 10, 12):
            a = AdcSpec(bits=bits, range=1.0)
            assert (a.default_amplitude() / a.delta).is_integer()

    def test_dict_round_trip(self):
        adc = AdcSpec(bits=10, range=0.5)
        assert AdcSpec.from_dict(adc.to_dict()) == adc


class TestSystemParams:
    def test_defaults(self):
        p = SystemParams(linewidth_hz=9.5e6, delay_s=6.5e-9)
        assert p.amplitude == 21.0 / 32.0
        assert p.sample_period_s == 1e-10
        assert p.delay_samples == 65

    @pytest.mark.parametrize("kwargs", [
        {"linewidth_hz": -1.0, "delay_s": 1e-9},
        {"linewidth_hz": 1e6, "delay_s": 0.0},
        {"linewidth_hz": 1e6, "delay_s": 1e-9, "amplitude": 0.0},
        {"linewidth_hz": 1e6, "delay_s": 1e-9, "sigma_ele": -0.1},
        {"linewidth_hz": 1e6, "delay_s": 1e-9, "sample_period_s": 0.0},
    ])
    def test_invalid_fields(self, kwargs):
        with pytest.raises(InvalidParameterError):
            SystemParams(**kwargs)

    def test_sub_sample_delay_rejected(self):
        with pytest.raises(DelayTooSmallError):
            SystemParams(linewidth_hz=1e6, delay_s=0.04e-9, sample_period_s=1e-10)


class TestRules:
    @pytest.mark.parametrize("n", [2, 2**60 - 1])
    def test_n_samples_accepted(self, n):
        check_n_samples(n)

    @pytest.mark.parametrize("n", [1, 2**60, 2**64])
    def test_n_samples_rejected_before_allocation(self, n):
        # 2**60 float64 samples are 2**63 bytes, more than NumPy can size
        with pytest.raises(InvalidParameterError):
            SimSettings(n_samples=n)
        with pytest.raises(InvalidParameterError):
            sample_phase_path(1e6, 1e-10, n, seed=0)

    @pytest.mark.parametrize("input_bits,output_bits,message", [
        (0, 1, "input_bits must be an integer >= 1, got 0"),
        (4, 5, "output_bits must be an integer in [1, 4], got 5")],
        ids=["input-bits-zero", "output-bits-above-input-bits"])
    def test_toeplitz_geometry_names_the_api_fields(self, input_bits,
                                                    output_bits, message):
        # the command line passes its flags' names instead
        with pytest.raises(InvalidParameterError) as exc:
            check_toeplitz_geometry(input_bits, output_bits)
        assert str(exc.value) == message


_PATH = sample_phase_path(1e6, 1e-10, 8, seed=0)
_TRACE = AnalogTrace(np.zeros(8), 1e-10, "quantum")

#: every public entry point that takes a physical real: a call feeding it
#: x, and one finite value out of its range
RANGE_SITES = {
    "SystemParams.linewidth_hz": (
        lambda x: SystemParams(linewidth_hz=x, delay_s=1e-9), -1.0),
    "SystemParams.delay_s": (
        lambda x: SystemParams(linewidth_hz=1e6, delay_s=x), 0.0),
    "SystemParams.amplitude": (
        lambda x: SystemParams(linewidth_hz=1e6, delay_s=1e-9, amplitude=x), 0.0),
    "SystemParams.sigma_ele": (
        lambda x: SystemParams(linewidth_hz=1e6, delay_s=1e-9, sigma_ele=x), -0.1),
    "SystemParams.sample_period_s": (
        lambda x: SystemParams(linewidth_hz=1e6, delay_s=1e-9,
                               sample_period_s=x), 0.0),
    "AdcSpec.range": (lambda x: AdcSpec(range=x), 0.0),
    "sample_phase_path.linewidth_hz": (
        lambda x: sample_phase_path(x, 1e-10, 8, seed=0), -1.0),
    "sample_phase_path.sample_period_s": (
        lambda x: sample_phase_path(1e6, x, 8, seed=0), 0.0),
    "delay_index.delay_s": (lambda x: delay_index(x, 1e-10), -1e-9),
    "delay_index.sample_period_s": (lambda x: delay_index(1e-9, x), 0.0),
    "quantum_noise.amplitude": (lambda x: quantum_noise(_PATH, 2, x), 0.0),
    "add_electronic_noise.sigma_ele": (
        lambda x: add_electronic_noise(_TRACE, x, seed=0), -0.1),
    "phase_variance.linewidth_hz": (lambda x: phase_variance(x, 1e-9), -1.0),
    "phase_variance.delay_s": (lambda x: phase_variance(1e6, x), 0.0),
    "forward_variance.sigma2": (lambda x: forward_variance(x, 1.0), -0.1),
    "forward_variance.amplitude": (lambda x: forward_variance(0.1, x), 0.0),
    "invert_variance.sigma_q2": (lambda x: invert_variance(x, 1.0), -0.1),
    "invert_variance.amplitude": (lambda x: invert_variance(0.1, x), 0.0),
    "quantum_variance_from_measurement.sigma_m2": (
        lambda x: quantum_variance_from_measurement(x, 0.0), -0.1),
    "quantum_variance_from_measurement.sigma_c2": (
        lambda x: quantum_variance_from_measurement(1.0, x), -0.1),
    "analytic_min_entropy.sigma2": (
        lambda x: analytic_min_entropy(x, 0.5, AdcSpec()), -0.1),
    "analytic_min_entropy.amplitude": (
        lambda x: analytic_min_entropy(0.3, x, AdcSpec()), 0.0),
    "code_probabilities.sigma2": (
        lambda x: code_probabilities(x, 0.5, AdcSpec()), -0.1),
    "code_probabilities.amplitude": (
        lambda x: code_probabilities(0.3, x, AdcSpec()), 0.0),
    "monte_carlo_code_histogram.sigma2": (
        lambda x: monte_carlo_code_histogram(x, 0.5, AdcSpec(), 10, seed=0),
        -0.1),
    "monte_carlo_code_histogram.amplitude": (
        lambda x: monte_carlo_code_histogram(0.3, x, AdcSpec(), 10, seed=0),
        0.0),
    "AnalogTrace.sample_period_s": (
        lambda x: AnalogTrace(np.zeros(4), x, "quantum"), 0.0),
    "QuantizedTrace.sample_period_s": (
        lambda x: QuantizedTrace(np.zeros(4, np.int16), AdcSpec(), x), 0.0),
    "SweepGrid.linewidths_hz": (
        lambda x: SweepGrid((x,), (2.5e-9,), SimSettings()), -1.0),
    "SweepGrid.delays_s": (
        lambda x: SweepGrid((9.5e6,), (x,), SimSettings()), 0.0),
    "SweepGrid.amplitude": (
        lambda x: SweepGrid((9.5e6,), (2.5e-9,), SimSettings(), amplitude=x),
        0.0),
    "SweepGrid.sample_period_s": (
        lambda x: SweepGrid((9.5e6,), (2.5e-9,), SimSettings(),
                            sample_period_s=x), 0.0),
    "SimSettings.overlap_fraction": (
        lambda x: SimSettings(overlap_fraction=x), 1.0),
}


@pytest.mark.parametrize("value", ["nan", "+inf", "-inf", "out-of-range"])
@pytest.mark.parametrize("site", list(RANGE_SITES))
def test_range_rules_at_every_entry_point(site, value):
    call, out_of_range = RANGE_SITES[site]
    x = {"nan": math.nan, "+inf": math.inf, "-inf": -math.inf,
         "out-of-range": out_of_range}[value]
    with pytest.raises(InvalidParameterError) as exc:
        call(x)
    assert type(exc.value) is InvalidParameterError


@pytest.mark.parametrize("site", [site for site in RANGE_SITES
                                  if site.endswith(".sigma2")])
def test_zero_phase_variance_is_in_range_at_every_sigma2_site(site):
    RANGE_SITES[site][0](0.0)


_LONG_TRACE = AnalogTrace(gaussian_stream(0, 64), 1e-10, "measured")
_PSD = estimate_psd(_LONG_TRACE, 16)

#: every public entry point that takes an integer: a call feeding it x,
#: and a value it accepts
INTEGER_SITES = {
    "SimSettings.n_samples": (lambda x: SimSettings(n_samples=x), 4096),
    "SimSettings.nfft": (lambda x: SimSettings(nfft=x), 8192),
    "SimSettings.plateau_bins": (lambda x: SimSettings(plateau_bins=x), 16),
    "sample_phase_path.n_samples": (
        lambda x: sample_phase_path(1e6, 1e-10, x, seed=0), 4),
    "quantum_noise.k": (lambda x: quantum_noise(_PATH, x, 0.5), 2),
    "estimate_psd.nfft": (lambda x: estimate_psd(_LONG_TRACE, x), 16),
    "bandwidth_3db.plateau_bins": (lambda x: bandwidth_3db(_PSD, x), 2),
    "ToeplitzSpec.input_bits": (
        lambda x: ToeplitzSpec(x, 4, np.zeros(11, np.uint8)), 8),
    "ToeplitzSpec.output_bits": (
        lambda x: ToeplitzSpec(8, x, np.zeros(11, np.uint8)), 4),
    "AdcSpec.bits": (lambda x: AdcSpec(bits=x), 8),
    "monte_carlo_code_histogram.n_samples": (
        lambda x: monte_carlo_code_histogram(0.3, 0.5, AdcSpec(), x, seed=0),
        10),
    "codes_to_bits.bits_per_code": (
        lambda x: codes_to_bits(np.zeros(2, np.int16), x), 8),
    "unpack_bytes_to_bits.n_bits": (
        lambda x: unpack_bytes_to_bits(b"\xff\x00", x), 13),
    "output_bits_for.adc_bits": (lambda x: output_bits_for(5.0, x, 2048), 8),
    "output_bits_for.input_bits": (
        lambda x: output_bits_for(5.0, 8, x), 2048),
}


@pytest.mark.parametrize("kind", ["integral-float", "fraction", "bool",
                                  "string", "numpy-float"])
@pytest.mark.parametrize("site", list(INTEGER_SITES))
def test_integer_rule_at_every_entry_point(site, kind):
    call, good = INTEGER_SITES[site]
    x = {"integral-float": float(good), "fraction": good + 0.5,
         "bool": True, "string": str(good),
         "numpy-float": np.float64(good)}[kind]
    with pytest.raises(InvalidParameterError) as exc:
        call(x)
    assert repr(x) in str(exc.value)


@pytest.mark.parametrize("kind", [np.int64, np.uint16])
@pytest.mark.parametrize("site", list(INTEGER_SITES))
def test_numpy_integers_are_integers_at_every_entry_point(site, kind):
    call, good = INTEGER_SITES[site]
    call(kind(good))


_SPEC = ToeplitzSpec(4, 2, np.array([1, 0, 1, 1, 0], np.uint8))

#: every public entry point that takes an array of bits: a call feeding
#: it x, and the number of bits it takes
BIT_SITES = {
    "ToeplitzSpec.seed_bits": (lambda x: ToeplitzSpec(4, 2, x), 5),
    "extract_block.block": (lambda x: extract_block(x, _SPEC), 4),
    "monobit_test.bits": (monobit_test, 200),
    "runs_test.bits": (runs_test, 200),
    "pack_bits_to_bytes.bits": (pack_bits_to_bytes, 8),
    "pack_bits_to_words.bits": (pack_bits_to_words, 64),
}


@pytest.mark.parametrize("kind", ["fraction", "integral-float", "two",
                                  "minus-one"])
@pytest.mark.parametrize("site", list(BIT_SITES))
def test_bit_rule_at_every_entry_point(site, kind):
    call, n = BIT_SITES[site]
    # a uint8 cast would read 0.7 as the bit 0, and -1 as 255
    x = {"fraction": np.r_[0.7, np.ones(n - 1)], "integral-float": np.ones(n),
         "two": np.full(n, 2), "minus-one": np.full(n, -1)}[kind]
    with pytest.raises(InvalidParameterError) as exc:
        call(x)
    assert "must be 0 or 1" in str(exc.value)


@pytest.mark.parametrize("kind", [bool, np.int8, np.int64, np.uint8])
@pytest.mark.parametrize("site", list(BIT_SITES))
def test_integer_and_bool_bits_are_bits_at_every_entry_point(site, kind):
    call, n = BIT_SITES[site]
    call((np.arange(n) % 2).astype(kind))


def test_bit_rule_returns_uint8_and_names_the_values():
    bits = check_bits("bits", [True, False, True])
    assert bits.dtype == np.uint8 and bits.tolist() == [1, 0, 1]
    assert check_bits("bits", np.zeros(0, np.int64)).dtype == np.uint8
    with pytest.raises(InvalidParameterError) as exc:
        check_bits("bits", np.array([0, 1, -1, 2]))
    assert str(exc.value) == "bits must be 0 or 1, got values in [-1, 2]"
    with pytest.raises(InvalidParameterError) as exc:
        check_bits("seed bits", [0.5, 1, 0, 1, 1])
    assert str(exc.value) == (
        "seed bits must be 0 or 1 in an integer or bool array, got float64")


def test_numpy_integer_adc_bits_are_stored_as_an_int():
    adc = AdcSpec(bits=np.int64(8))
    assert type(adc.bits) is int and adc == AdcSpec()
    assert adc.to_dict() == {"bits": 8, "range": 1.0}


@pytest.mark.parametrize("kind", [np.int64, np.uint16])
def test_numpy_integer_settings_are_stored_as_ints(kind):
    sim = SimSettings(n_samples=kind(4096), nfft=kind(1024),
                      plateau_bins=kind(8), seed=kind(3))
    spec = ToeplitzSpec(kind(8), kind(4), np.zeros(11, np.uint8))
    for name in ("n_samples", "nfft", "plateau_bins", "seed"):
        assert type(getattr(sim, name)) is int
    assert (type(spec.input_bits), type(spec.output_bits)) == (int, int)
    assert sim == SimSettings(n_samples=4096, nfft=1024, plateau_bins=8, seed=3)
    assert json.loads(json.dumps(asdict(sim)))["n_samples"] == 4096
    fields = asdict(spec)
    del fields["seed_bits"]  # an array, which no JSON holds
    assert json.dumps(fields) == '{"input_bits": 8, "output_bits": 4}'


@pytest.mark.parametrize("call,message", [
    (lambda: unpack_bytes_to_bits(b"\xff\x00", -3),
     "n_bits must be an integer >= 0, got -3"),
    (lambda: output_bits_for(5.0, 8, -2048),
     "input_bits must be an integer >= 1, got -2048"),
    (lambda: output_bits_for(0.0, 0, 2048),
     "adc_bits must be an integer in [2, 16], got 0"),
    (lambda: output_bits_for(5.0, 17, 2048),
     "adc_bits must be an integer in [2, 16], got 17"),
], ids=["n_bits-negative", "input_bits-negative", "adc_bits-zero",
        "adc_bits-above-16"])
def test_extractor_integer_ranges(call, message):
    with pytest.raises(InvalidParameterError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("kind", [np.float32, np.float64])
def test_numpy_real_settings_are_stored_as_floats(kind):
    params = SystemParams(np.int64(9_500_000), kind(2.5e-9),
                          amplitude=kind(0.5), sigma_ele=np.int64(0),
                          sample_period_s=kind(1e-10),
                          adc=AdcSpec(range=kind(1)))
    grid = SweepGrid((np.int64(9_500_000),), (kind(2.5e-9),),
                     SimSettings(overlap_fraction=kind(0.25)), adc=params.adc,
                     amplitude=kind(0.5), sample_period_s=kind(1e-10))
    traces = (AnalogTrace(np.zeros(4), kind(1e-10), "quantum"),
              QuantizedTrace(np.zeros(4, np.int16), AdcSpec(), kind(1e-10)))
    fields = params.to_dict()
    reals = [v for k, v in fields.items() if k != "adc"]
    reals += [fields["adc"]["range"], *grid.linewidths_hz, *grid.delays_s,
              grid.amplitude, grid.sample_period_s, grid.sim.overlap_fraction,
              *(t.sample_period_s for t in traces)]
    assert all(type(v) is float for v in reals)
    json.dumps(fields)
    json.dumps(asdict(grid))


def test_integer_range_ends_are_accepted_as_ints():
    for value in (1, 4, np.uint16(4)):
        assert type(check_count("n", value, 1, 4)) is int
    assert check_count("n", 2**70) == 2**70


@pytest.mark.parametrize("args,message", [
    (("n", -1), "n must be an integer >= 0, got -1"),
    (("n", 0, 1), "n must be an integer >= 1, got 0"),
    (("n", 5, 1, 4), "n must be an integer in [1, 4], got 5"),
    (("n", np.int64(0), 1, 4), "n must be an integer in [1, 4], got np.int64(0)"),
    (("n", 2.0, 1, 4), "n must be an integer in [1, 4], got 2.0"),
])
def test_one_integer_range_rule(args, message):
    with pytest.raises(InvalidParameterError) as exc:
        check_count(*args)
    assert str(exc.value) == message


class TestOneOf:
    def test_returns_a_choice(self):
        assert one_of("mode", "b", ("a", "b")) == "b"

    @pytest.mark.parametrize("value", ["c", 5, None, ["a"]])
    def test_message(self, value):
        with pytest.raises(InvalidParameterError) as exc:
            one_of("mode", value, ("a", "b"))
        assert str(exc.value) == f"mode must be 'a' or 'b', got {value!r}"

    @pytest.mark.parametrize("call,message", [
        (lambda: AnalogTrace(np.zeros(4), 1e-10, "other"),
         "trace label must be 'quantum' or 'measured', got 'other'"),
    ], ids=["trace-label"])
    def test_sites(self, call, message):
        with pytest.raises(InvalidParameterError) as exc:
            call()
        assert str(exc.value) == message
