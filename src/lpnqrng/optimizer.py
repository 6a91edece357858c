"""Grid search for the maximum random-number generation rate.

Each (linewidth, delay) candidate is simulated, its entropy-source
bandwidth estimated from the spectrum, its min-entropy computed either
analytically or from the quantized trace, and the achievable rate
scored as K = 2 * B_ES * H_min. Every grid point gets its own seed
derived from the master seed and the point's indices, so results do
not depend on evaluation order and single points can be reproduced in
isolation.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .entropy import (
    METHOD_ANALYTIC,
    METHOD_EMPIRICAL,
    analytic_min_entropy,
    empirical_min_entropy,
    phase_variance,
    validate_amplitude,
)
from .errors import InvalidParameterError, LpnError
from .params import (DEFAULT_N_SAMPLES, SystemParams, check_n_samples,
                     check_plateau_bins, check_welch, positive)
from .rng import derive_seed
from .simulate import quantize, quantum_noise, sample_phase_path
from .spectral import (
    DEFAULT_NFFT,
    DEFAULT_OVERLAP,
    DEFAULT_PLATEAU_BINS,
    bandwidth_3db,
    estimate_psd,
)

#: relative slack within which two rates count as tied
TIE_RTOL = 1e-12


@dataclass(frozen=True)
class SimSettings:
    """Per-evaluation simulation controls.

    ``seed`` is the stream seed of a single evaluation; in a sweep it
    acts as the master seed from which per-point seeds are derived. The
    rest is checked here, by the simulator's and the estimator's rules.
    """

    n_samples: int = DEFAULT_N_SAMPLES
    nfft: int = DEFAULT_NFFT
    overlap_fraction: float = DEFAULT_OVERLAP
    plateau_bins: int = DEFAULT_PLATEAU_BINS
    seed: int = 0

    def __post_init__(self) -> None:
        check_n_samples(self.n_samples)
        check_welch(self.nfft, self.overlap_fraction)
        check_plateau_bins(self.plateau_bins, self.nfft // 2 + 1)


def _check_method(entropy_method: str) -> None:
    if entropy_method not in (METHOD_ANALYTIC, METHOD_EMPIRICAL):
        raise InvalidParameterError(
            f"entropy_method must be 'analytic' or 'empirical', "
            f"got {entropy_method!r}")


@dataclass(frozen=True)
class SweepGrid:
    linewidths_hz: tuple[float, ...]
    delays_s: tuple[float, ...]
    base: SystemParams
    sim: SimSettings
    entropy_method: str = METHOD_ANALYTIC

    def __post_init__(self) -> None:
        object.__setattr__(self, "linewidths_hz", tuple(self.linewidths_hz))
        object.__setattr__(self, "delays_s", tuple(self.delays_s))
        for name, values in (("linewidths_hz", self.linewidths_hz),
                             ("delays_s", self.delays_s)):
            if not values:
                raise InvalidParameterError(f"{name} must be nonempty")
            for v in values:
                positive(name, v)
            if any(b <= a for a, b in zip(values, values[1:])):
                raise InvalidParameterError(f"{name} must be strictly increasing")
        _check_method(self.entropy_method)
        if self.entropy_method == METHOD_ANALYTIC:
            # every point would fail the model's amplitude rule
            validate_amplitude(self.base.amplitude, self.base.adc)


@dataclass(frozen=True)
class SweepPoint:
    linewidth_hz: float
    delay_s: float
    b_es_hz: float
    h_min_bits: float
    k_bits_per_s: float
    f_s_hz: float
    saturated: bool

    def to_dict(self) -> dict:
        return {
            "linewidth_hz": self.linewidth_hz,
            "delay_s": self.delay_s,
            "b_es_hz": self.b_es_hz,
            "h_min_bits": self.h_min_bits,
            "k_bits_per_s": self.k_bits_per_s,
            "f_s_hz": self.f_s_hz,
            "saturated": self.saturated,
        }


@dataclass(frozen=True)
class PointFailure:
    linewidth_hz: float
    delay_s: float
    error_code: str
    message: str


@dataclass(frozen=True)
class SweepResult:
    points: tuple[SweepPoint, ...]
    failures: tuple[PointFailure, ...]
    best: SweepPoint | None
    ties: tuple[SweepPoint, ...]


def evaluate_point(linewidth_hz: float, delay_s: float, base: SystemParams,
                   sim: SimSettings,
                   entropy_method: str = METHOD_ANALYTIC) -> SweepPoint:
    """Simulate one design point and score its generation rate.

    The spectrum (and hence the bandwidth estimate) always comes from
    the simulated quantum trace. Min-entropy uses the exact delay, not
    the sample-rounded one, in analytic mode; in empirical mode it is
    measured from the quantized quantum trace itself.
    """
    _check_method(entropy_method)
    params = base.with_design(linewidth_hz, delay_s)
    path = sample_phase_path(linewidth_hz, params.sample_period_s,
                             sim.n_samples, sim.seed)
    q = quantum_noise(path, params.delay_samples, params.amplitude)
    bw = bandwidth_3db(estimate_psd(q, sim.nfft, sim.overlap_fraction),
                       sim.plateau_bins)
    if entropy_method == METHOD_ANALYTIC:
        h = analytic_min_entropy(phase_variance(linewidth_hz, delay_s),
                                 params.amplitude, params.adc).h_min
    else:
        h = empirical_min_entropy(quantize(q, params.adc)).h_min
    b = bw.b_es_hz
    return SweepPoint(linewidth_hz=linewidth_hz, delay_s=delay_s, b_es_hz=b,
                      h_min_bits=h, k_bits_per_s=2.0 * b * h, f_s_hz=2.0 * b,
                      saturated=bw.saturated)


def _pick_best(points: list[SweepPoint]) -> tuple[SweepPoint | None,
                                                  tuple[SweepPoint, ...]]:
    # saturated points are kept in the grid but only win if nothing else can:
    # their bandwidth is a Nyquist-limited lower bound, not an estimate
    eligible = [p for p in points if not p.saturated] or points
    if not eligible:
        return None, ()
    best = min(eligible, key=lambda p: (-p.k_bits_per_s, p.delay_s, p.linewidth_hz))
    ties = tuple(p for p in eligible if p is not best
                 and abs(p.k_bits_per_s - best.k_bits_per_s)
                 <= TIE_RTOL * max(abs(best.k_bits_per_s), 1.0))
    return best, ties


def sweep(grid: SweepGrid) -> SweepResult:
    """Evaluate the full grid and record the optimum.

    Each point (i, j) uses seed derive_seed(master, i, j). Failures of
    individual points are collected, not raised; the best point is the
    maximum rate with ties broken toward the smallest delay, then the
    smallest linewidth.
    """
    points: list[SweepPoint] = []
    failures: list[PointFailure] = []
    for i, lw in enumerate(grid.linewidths_hz):
        for j, d in enumerate(grid.delays_s):
            sim_ij = replace(grid.sim, seed=derive_seed(grid.sim.seed, i, j))
            try:
                points.append(evaluate_point(lw, d, grid.base, sim_ij,
                                             grid.entropy_method))
            except LpnError as exc:
                failures.append(PointFailure(lw, d, exc.code, str(exc)))
    best, ties = _pick_best(points)
    return SweepResult(points=tuple(points), failures=tuple(failures),
                       best=best, ties=ties)
