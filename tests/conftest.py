import numpy as np
import pytest

from lpnqrng import AdcSpec, SystemParams, quantum_noise, sample_phase_path
from lpnqrng.simulate import AnalogTrace

TAU_S = 1e-10


@pytest.fixture(scope="session")
def adc8() -> AdcSpec:
    return AdcSpec(bits=8, range=1.0)


@pytest.fixture(scope="session")
def default_amplitude(adc8) -> float:
    return adc8.default_amplitude()


def base_params(tau_s: float = TAU_S) -> SystemParams:
    """The ``base`` of an evaluate_point call, which takes the design
    point from its own arguments; a SweepGrid takes no SystemParams."""
    return SystemParams(linewidth_hz=9.5e6, delay_s=2.5e-9, sample_period_s=tau_s)


def quantum_trace(linewidth_hz: float, delay_samples: int, n_samples: int,
                  seed: int, tau_s: float = TAU_S,
                  amplitude: float | None = None) -> AnalogTrace:
    """Simulated interferometer output for test scenarios."""
    if amplitude is None:
        amplitude = AdcSpec().default_amplitude()
    path = sample_phase_path(linewidth_hz, tau_s, n_samples, seed)
    return quantum_noise(path, delay_samples, amplitude)


def white_trace(sigma: float, n_samples: int, seed: int,
                tau_s: float = TAU_S) -> AnalogTrace:
    from lpnqrng import gaussian_stream

    return AnalogTrace(sigma * gaussian_stream(seed, n_samples), tau_s, "measured")


def chunk_se_of_variance(x: np.ndarray, n_chunks: int = 64) -> float:
    """Standard error of the variance estimate for serially correlated data."""
    chunks = np.array_split(np.asarray(x), n_chunks)
    v = np.array([c.var() for c in chunks])
    return float(v.std(ddof=1) / np.sqrt(n_chunks))
