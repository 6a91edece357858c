"""Grid search for the maximum random-number generation rate.

Each (linewidth, delay) candidate is simulated, its entropy-source
bandwidth estimated from the spectrum, its min-entropy computed from
the analytic model at the exact delay, and the achievable rate
scored as K = 2 * B_ES * H_min. Every grid point gets its own seed
derived from the master seed and the point's indices, so results do
not depend on evaluation order and single points can be reproduced in
isolation.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import asdict, dataclass, field, replace
from functools import partial

from .entropy import analytic_min_entropy, phase_variance
from .errors import InvalidParameterError, LpnError
from .params import (DEFAULT_MASTER_SEED, DEFAULT_N_SAMPLES,
                     DEFAULT_SAMPLE_PERIOD_S, AdcSpec, SystemParams,
                     check_amplitude, check_n_samples, check_seed,
                     check_spectral, non_negative, positive)
from .rng import derive_seed
from .simulate import _quantum_trace
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
    """Per-evaluation simulation controls, checked by the simulator's and
    the estimator's rules.

    ``seed`` is the stream seed of a single evaluation; in a sweep it
    acts as the master seed from which per-point seeds are derived. It
    defaults to the master seed of ``lpnqrng sweep``.
    """

    n_samples: int = DEFAULT_N_SAMPLES
    nfft: int = DEFAULT_NFFT
    overlap_fraction: float = DEFAULT_OVERLAP
    plateau_bins: int = DEFAULT_PLATEAU_BINS
    seed: int = DEFAULT_MASTER_SEED

    def __post_init__(self) -> None:
        keep = partial(object.__setattr__, self)  # a NumPy scalar is not JSON
        keep("n_samples", check_n_samples(self.n_samples))
        nfft, plateau_bins = check_spectral(self.nfft, self.overlap_fraction,
                                            self.plateau_bins)
        keep("nfft", nfft)
        keep("overlap_fraction", float(self.overlap_fraction))
        keep("plateau_bins", plateau_bins)
        keep("seed", check_seed("seed", self.seed))


@dataclass(frozen=True)
class SweepGrid:
    """A (linewidth, delay) grid of designs that share a converter, a
    signal amplitude and a sample period; ``amplitude=None`` means the
    converter's default, as in SystemParams. Each grid is a nonempty set,
    kept as a sorted tuple, so the order it is given in changes neither
    the points nor their seeds; linewidths are >= 0 and delays > 0, as
    in SystemParams. A delay that rounds below one sample fails at its
    points, in ``sweep``, not here."""

    linewidths_hz: tuple[float, ...]
    delays_s: tuple[float, ...]
    sim: SimSettings
    adc: AdcSpec = field(default_factory=AdcSpec)
    amplitude: float | None = None
    sample_period_s: float = DEFAULT_SAMPLE_PERIOD_S

    def __post_init__(self) -> None:
        keep = partial(object.__setattr__, self)
        for name, rule in (("linewidths_hz", non_negative),
                           ("delays_s", positive)):
            values = tuple(sorted(rule(name, v) for v in getattr(self, name)))
            if not values or len(set(values)) < len(values):
                raise InvalidParameterError(
                    f"{name} must be a nonempty set, got {getattr(self, name)}")
            keep(name, values)
        keep("amplitude", check_amplitude(self.amplitude, self.adc))
        keep("sample_period_s",
             positive("sample_period_s", self.sample_period_s))

    def point_seeds(self) -> Iterator[tuple[float, float, int]]:
        """(linewidth, delay, seed) of every point in grid order, linewidth
        major: point (i, j) takes seed derive_seed(sim.seed, i, j)."""
        for i, lw in enumerate(self.linewidths_hz):
            for j, d in enumerate(self.delays_s):
                yield lw, d, derive_seed(self.sim.seed, i, j)


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
        return asdict(self)


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
                   sim: SimSettings) -> SweepPoint:
    """Simulate one design point and score its generation rate.

    The spectrum (and hence the bandwidth estimate) comes from the
    simulated quantum trace. Min-entropy has one route: the analytic
    model at the exact delay, not the sample-rounded one.
    """
    params = replace(base, linewidth_hz=linewidth_hz, delay_s=delay_s)
    q = _quantum_trace(params, sim.n_samples, sim.seed)
    bw = bandwidth_3db(estimate_psd(q, sim.nfft, sim.overlap_fraction),
                       sim.plateau_bins)
    h = analytic_min_entropy(phase_variance(linewidth_hz, delay_s),
                             params.amplitude, params.adc).h_min
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

    Points run in ``grid.point_seeds()`` order, each with its own seed.
    Each point's SystemParams is built inside the point's evaluation, so
    a failure of one point, such as a delay that rounds below one
    sample, is collected, not raised; the best point is the maximum rate
    with ties broken toward the smallest delay, then the smallest
    linewidth.
    """
    points: list[SweepPoint] = []
    failures: list[PointFailure] = []
    for lw, d, seed in grid.point_seeds():
        try:
            design = SystemParams(lw, d, amplitude=grid.amplitude, adc=grid.adc,
                                  sample_period_s=grid.sample_period_s)
            points.append(evaluate_point(lw, d, design,
                                         replace(grid.sim, seed=seed)))
        except LpnError as exc:
            failures.append(PointFailure(lw, d, exc.code, str(exc)))
    best, ties = _pick_best(points)
    return SweepResult(points=tuple(points), failures=tuple(failures),
                       best=best, ties=ties)
