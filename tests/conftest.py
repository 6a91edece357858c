import math

import numpy as np
import pytest

from lpnqrng import (AdcSpec, SystemParams, _parallel, derive_seed,
                     extractor, gaussian_stream, quantize, quantum_noise,
                     sample_phase_path)
from lpnqrng.entropy import code_histogram
from lpnqrng.params import check_count, non_negative, positive
from lpnqrng.simulate import LABEL_QUANTUM, AnalogTrace

TAU_S = 1e-10

#: samples per monte_carlo_code_histogram chunk; each chunk draws from its
#: own derived seed, so this size is part of the histogram's stream
_MC_CHUNK = 2**22

#: worker counts a threaded layer must give the same bytes at
WORKER_COUNTS = (1, 2, 3)


@pytest.fixture(scope="session")
def adc8() -> AdcSpec:
    return AdcSpec(bits=8, range=1.0)


@pytest.fixture(scope="session")
def default_amplitude(adc8) -> float:
    return adc8.default_amplitude()


def set_workers(monkeypatch, n):
    monkeypatch.setattr(_parallel, "workers", lambda: n)


def per_worker_count(monkeypatch, fn):
    """fn() once for each of WORKER_COUNTS."""
    results = []
    for n in WORKER_COUNTS:
        set_workers(monkeypatch, n)
        results.append(fn())
    return results


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
    return AnalogTrace(sigma * gaussian_stream(seed, n_samples), tau_s, "measured")


def chunk_se_of_variance(x: np.ndarray, n_chunks: int = 64) -> float:
    """Standard error of the variance estimate for serially correlated data."""
    chunks = np.array_split(np.asarray(x), n_chunks)
    v = np.array([c.var() for c in chunks])
    return float(v.std(ddof=1) / np.sqrt(n_chunks))


def monte_carlo_code_histogram(sigma2: float, amplitude: float, adc: AdcSpec,
                               n_samples: int, seed: int) -> np.ndarray:
    """Histogram of quantized A*sin(dtheta) for i.i.d. dtheta ~ N(0, sigma2).

    Brute-force sampler used as an independent check of the analytic
    bin probabilities: it quantizes with the simulator's own ADC. It
    processes in chunks to bound memory, each in the array its variates
    are drawn into. Chunk p draws from
    derive_seed(seed, p), so runs with nearby seeds share no chunk.
    """
    non_negative("sigma2", sigma2)
    positive("amplitude", amplitude)
    n_samples = check_count("n_samples", n_samples, 1)
    sigma = math.sqrt(sigma2)
    counts = np.zeros(adc.n_codes, dtype=np.int64)
    for part, start in enumerate(range(0, n_samples, _MC_CHUNK)):
        m = min(_MC_CHUNK, n_samples - start)
        theta = gaussian_stream(derive_seed(seed, part), m)
        theta *= sigma
        np.sin(theta, out=theta)
        theta *= amplitude
        trace = AnalogTrace(theta, 1.0, LABEL_QUANTUM)
        counts += code_histogram(quantize(trace, adc))
    return counts


def dense_product(spec, blocks: np.ndarray) -> np.ndarray:
    """T·x mod 2 by the dense matrix, for one block or a row per block.

    float64 is exact here, since every sum is an integer of at most
    n_in, and BLAS keeps the 2048 -> 1800 products fast.
    """
    product = blocks @ spec.matrix().T.astype(np.float64)
    return (product.astype(np.int64) & 1).astype(np.uint8)


def kernel_product(kernel: str, spec, blocks: np.ndarray) -> np.ndarray:
    """T·x mod 2 by the extractor's kernel named ``kernel`` ("_hash",
    "_table_hash" or "_fft_hash"), for a row of 0/1 bits per block: the
    blocks go in packed MSB first, a row of ceil(n_in / 8) bytes each,
    and come out one uint8 per bit."""
    out = np.empty((len(blocks), spec.output_bits), dtype=np.uint8)
    getattr(extractor, kernel)(spec, np.packbits(blocks, axis=1), out)
    return out
