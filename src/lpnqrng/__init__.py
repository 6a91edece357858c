"""Simulator and design optimizer for laser-phase-noise quantum RNGs.

The package models the full chain from phase diffusion to random bits:
a Wiener phase path, delayed self-interference, electronic noise, ADC
quantization, spectral bandwidth estimation, analytic and empirical
min-entropy, a (linewidth, delay) design sweep maximizing the
generation rate, and Toeplitz randomness extraction over GF(2).
"""

__version__ = "0.1.0"

from .entropy import (
    EntropyReport,
    analytic_min_entropy,
    bin_probability,
    code_probabilities,
    empirical_min_entropy,
    forward_variance,
    invert_variance,
    monte_carlo_code_histogram,
    p_boundary,
    p_center,
    phase_variance,
    quantum_variance_from_measurement,
)
from .errors import LpnError
from .extractor import (
    GF2_BACKEND,
    ToeplitzSpec,
    extract_block,
    extract_stream,
    extraction_ratio,
    monobit_test,
    output_bits_for,
    runs_test,
)
from .optimizer import (
    SimSettings,
    SweepGrid,
    SweepPoint,
    SweepResult,
    evaluate_point,
    sweep,
)
from .params import AdcSpec, SystemParams, delay_index
from .rng import derive_seed, gaussian_stream
from .simulate import (
    AnalogTrace,
    PhasePath,
    QuantizedTrace,
    add_electronic_noise,
    quantize,
    quantum_noise,
    sample_phase_path,
)
from .spectral import BandwidthEstimate, PsdEstimate, bandwidth_3db, estimate_psd

__all__ = [
    "AdcSpec",
    "AnalogTrace",
    "BandwidthEstimate",
    "EntropyReport",
    "GF2_BACKEND",
    "LpnError",
    "PhasePath",
    "PsdEstimate",
    "QuantizedTrace",
    "SimSettings",
    "SweepGrid",
    "SweepPoint",
    "SweepResult",
    "SystemParams",
    "ToeplitzSpec",
    "__version__",
    "add_electronic_noise",
    "analytic_min_entropy",
    "bandwidth_3db",
    "bin_probability",
    "code_probabilities",
    "delay_index",
    "derive_seed",
    "empirical_min_entropy",
    "estimate_psd",
    "evaluate_point",
    "extract_block",
    "extract_stream",
    "extraction_ratio",
    "forward_variance",
    "gaussian_stream",
    "invert_variance",
    "monobit_test",
    "monte_carlo_code_histogram",
    "output_bits_for",
    "p_boundary",
    "p_center",
    "phase_variance",
    "quantize",
    "quantum_noise",
    "quantum_variance_from_measurement",
    "runs_test",
    "sample_phase_path",
    "sweep",
]
