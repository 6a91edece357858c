import numpy as np
import pytest

from lpnqrng import (
    SimSettings,
    SweepGrid,
    SweepPoint,
    derive_seed,
    evaluate_point,
    sweep,
)
from lpnqrng.errors import InvalidParameterError
from lpnqrng.optimizer import _pick_best

from conftest import base_params

# small but valid scale: welch needs >= 2 * nfft samples after the delay trim
FAST_SIM = SimSettings(n_samples=2**15, nfft=1024, seed=99)


def fast_grid(**overrides):
    kwargs = dict(linewidths_hz=(9.5e6,), delays_s=(2.5e-9, 6.5e-9),
                  base=base_params(), sim=FAST_SIM)
    kwargs.update(overrides)
    return SweepGrid(**kwargs)


class TestEvaluatePoint:
    def test_zero_linewidth_means_zero_rate(self):
        p = evaluate_point(0.0, 6.5e-9, base_params(), FAST_SIM)
        assert p.h_min_bits == 0.0
        assert p.k_bits_per_s == 0.0
        assert p.saturated  # an all-zero trace has no 3-dB crossing

    def test_bookkeeping_is_exact(self):
        p = evaluate_point(9.5e6, 2.5e-9, base_params(), FAST_SIM)
        assert p.k_bits_per_s == 2.0 * p.b_es_hz * p.h_min_bits
        assert p.f_s_hz == 2.0 * p.b_es_hz

    def test_empirical_route(self):
        p = evaluate_point(9.5e6, 2.5e-9, base_params(), FAST_SIM,
                           entropy_method="empirical")
        assert 0.0 < p.h_min_bits <= 8.0

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidParameterError):
            evaluate_point(9.5e6, 2.5e-9, base_params(), FAST_SIM,
                           entropy_method="wrong")

    def test_deterministic(self):
        a = evaluate_point(9.5e6, 6.5e-9, base_params(), FAST_SIM)
        b = evaluate_point(9.5e6, 6.5e-9, base_params(), FAST_SIM)
        assert a == b


class TestSweep:
    def test_single_point_grid(self):
        grid = fast_grid(delays_s=(2.5e-9,))
        res = sweep(grid)
        assert len(res.points) == 1
        assert res.best == res.points[0]
        assert res.ties == ()
        assert res.failures == ()

    def test_order_independence(self):
        grid = fast_grid(delays_s=(2.5e-9, 4.5e-9, 6.5e-9))
        res = sweep(grid)
        # rebuild every point by hand in reversed order
        reversed_points = []
        for j in reversed(range(3)):
            sim_ij = SimSettings(n_samples=grid.sim.n_samples, nfft=grid.sim.nfft,
                                 overlap_fraction=grid.sim.overlap_fraction,
                                 plateau_bins=grid.sim.plateau_bins,
                                 seed=derive_seed(grid.sim.seed, 0, j))
            reversed_points.append(
                evaluate_point(grid.linewidths_hz[0], grid.delays_s[j],
                               grid.base, sim_ij))
        assert tuple(reversed(reversed_points)) == res.points

    def test_best_matches_max(self):
        res = sweep(fast_grid(delays_s=(2.5e-9, 4.5e-9, 6.5e-9)))
        assert res.best.k_bits_per_s == max(p.k_bits_per_s for p in res.points)

    def test_grid_validation(self):
        with pytest.raises(InvalidParameterError):
            fast_grid(delays_s=())
        with pytest.raises(InvalidParameterError):
            fast_grid(delays_s=(6.5e-9, 2.5e-9))
        with pytest.raises(InvalidParameterError):
            fast_grid(linewidths_hz=(0.0, 9.5e6))
        with pytest.raises(InvalidParameterError):
            fast_grid(entropy_method="nope")
        with pytest.raises(InvalidParameterError):
            fast_grid(linewidths_hz=(9.5e6, float("nan")))
        with pytest.raises(InvalidParameterError):
            fast_grid(delays_s=(2.5e-9, float("inf")))

    def test_failures_are_recorded_not_raised(self):
        # a delay below half a sample period fails at that point only
        grid = fast_grid(delays_s=(0.04e-9, 2.5e-9))
        res = sweep(grid)
        assert len(res.points) == 1
        assert len(res.failures) == 1
        assert res.failures[0].error_code == "delay-too-small"
        assert res.best is not None


def mk_point(k, delay, linewidth=9.5e6, saturated=False):
    b = k / 2.0 / 7.0
    return SweepPoint(linewidth_hz=linewidth, delay_s=delay, b_es_hz=b,
                      h_min_bits=7.0, k_bits_per_s=k, f_s_hz=2 * b,
                      saturated=saturated)


class TestPickBest:
    def test_tie_breaks_toward_smaller_delay_then_linewidth(self):
        pts = [mk_point(1e9, 6.5e-9), mk_point(1e9, 2.5e-9),
               mk_point(1e9, 2.5e-9, linewidth=5e6)]
        best, ties = _pick_best(pts)
        assert best.delay_s == 2.5e-9 and best.linewidth_hz == 5e6
        assert len(ties) == 2

    def test_saturated_points_lose_to_estimates(self):
        pts = [mk_point(9e9, 2.5e-9, saturated=True), mk_point(1e9, 6.5e-9)]
        best, _ = _pick_best(pts)
        assert not best.saturated

    def test_all_saturated_still_produces_a_best(self):
        pts = [mk_point(2e9, 2.5e-9, saturated=True),
               mk_point(1e9, 6.5e-9, saturated=True)]
        best, _ = _pick_best(pts)
        assert best.k_bits_per_s == 2e9


class TestEntropyTrendAlongScenarioAxes:
    @pytest.mark.parametrize("axis", [
        [(9.5e6, d * 1e-9) for d in (2.5, 4.5, 6.5, 8.5, 10.5, 12.5)],
        [(dv * 1e6, 6.5e-9) for dv in (2.0, 5.0, 9.5, 14.0, 19.5)],
    ])
    def test_h_min_rises_then_falls(self, axis):
        from lpnqrng import AdcSpec, analytic_min_entropy, phase_variance

        adc = AdcSpec()
        a = adc.default_amplitude()
        h = [analytic_min_entropy(phase_variance(dv, tl), a, adc).h_min
             for dv, tl in axis]
        d = np.diff(h)
        signs = np.sign(np.where(np.abs(d) < 1e-9, 0.0, d))
        nz = signs[signs != 0]
        changes = int(np.sum(nz[1:] != nz[:-1]))
        assert changes == 1 and nz[0] > 0 and nz[-1] < 0
        assert max(h) > h[0] and max(h) > h[-1]

