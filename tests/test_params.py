import math

import numpy as np
import pytest

from lpnqrng import (
    AdcSpec,
    AnalogTrace,
    QuantizedTrace,
    SimSettings,
    SweepGrid,
    SystemParams,
    add_electronic_noise,
    analytic_min_entropy,
    delay_index,
    forward_variance,
    invert_variance,
    phase_variance,
    quantum_noise,
    quantum_variance_from_measurement,
    sample_phase_path,
)
from lpnqrng.errors import (
    DelayTooSmallError,
    InvalidParameterError,
    NonPositiveVarianceError,
)


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

    def test_dict_round_trip(self):
        p = SystemParams(linewidth_hz=5e6, delay_s=4.5e-9, amplitude=0.8,
                         sigma_ele=0.02, sample_period_s=2e-10,
                         adc=AdcSpec(bits=10, range=2.0))
        assert SystemParams.from_dict(p.to_dict()) == p

    def test_with_design_keeps_rest(self):
        p = SystemParams(linewidth_hz=5e6, delay_s=4.5e-9, sigma_ele=0.02)
        q = p.with_design(9.5e6, 2.5e-9)
        assert (q.linewidth_hz, q.delay_s) == (9.5e6, 2.5e-9)
        assert q.sigma_ele == p.sigma_ele and q.adc == p.adc


_PATH = sample_phase_path(1e6, 1e-10, 8, seed=0)
_TRACE = AnalogTrace(np.zeros(8), 1e-10, "quantum")
_BASE = SystemParams(linewidth_hz=9.5e6, delay_s=2.5e-9)

#: every public entry point that takes a physical real: a call feeding it
#: x, the error that site raises, and one finite value out of its range
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
    "phase_variance.delay_s": (lambda x: phase_variance(1e6, x), -1e-9),
    "forward_variance.sigma2": (lambda x: forward_variance(x, 1.0), -0.1),
    "forward_variance.amplitude": (lambda x: forward_variance(0.1, x), 0.0),
    "invert_variance.sigma_q2": (lambda x: invert_variance(x, 1.0), -0.1),
    "invert_variance.amplitude": (lambda x: invert_variance(0.1, x), 0.0),
    "quantum_variance_from_measurement.sigma_m2": (
        lambda x: quantum_variance_from_measurement(x, 0.0), -0.1),
    "quantum_variance_from_measurement.sigma_c2": (
        lambda x: quantum_variance_from_measurement(1.0, x), -0.1),
    "analytic_min_entropy.sigma2": (
        lambda x: analytic_min_entropy(x, 0.5, AdcSpec()), -0.1,
        NonPositiveVarianceError),
    "AnalogTrace.sample_period_s": (
        lambda x: AnalogTrace(np.zeros(4), x, "quantum"), 0.0),
    "QuantizedTrace.sample_period_s": (
        lambda x: QuantizedTrace(np.zeros(4, np.int16), AdcSpec(), x), 0.0),
    "SweepGrid.linewidths_hz": (
        lambda x: SweepGrid((x,), (2.5e-9,), _BASE, SimSettings()), 0.0),
    "SweepGrid.delays_s": (
        lambda x: SweepGrid((9.5e6,), (x,), _BASE, SimSettings()), 0.0),
    "SimSettings.overlap_fraction": (
        lambda x: SimSettings(overlap_fraction=x), 1.0),
}


@pytest.mark.parametrize("value", ["nan", "+inf", "-inf", "out-of-range"])
@pytest.mark.parametrize("site", list(RANGE_SITES))
def test_range_rules_at_every_entry_point(site, value):
    call, out_of_range, *error = RANGE_SITES[site]
    error = error[0] if error else InvalidParameterError
    x = {"nan": math.nan, "+inf": math.inf, "-inf": -math.inf,
         "out-of-range": out_of_range}[value]
    with pytest.raises(error) as exc:
        call(x)
    assert type(exc.value) is error
