"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. All checks are deterministic: every stochastic
stage is seeded, so a pass here is reproducible bit for bit.
"""
import math
import time

import numpy as np

from lpnqrng import (
    AdcSpec,
    SimSettings,
    SweepGrid,
    ToeplitzSpec,
    analytic_min_entropy,
    code_probabilities,
    derive_seed,
    evaluate_point,
    extract_block,
    extract_stream,
    invert_variance,
    monobit_test,
    phase_variance,
    quantize,
    quantum_noise,
    runs_test,
    sample_phase_path,
    sweep,
)
from lpnqrng import extractor
from lpnqrng.entropy import forward_variance
from lpnqrng.rng import bit_stream
from lpnqrng.simulate import quantize_value

from conftest import (base_params, chunk_se_of_variance, dense_product,
                      kernel_product, monte_carlo_code_histogram,
                      quantum_trace)

TWO_PI = 2.0 * math.pi
DELAY_GRID = (2.5e-9, 4.5e-9, 6.5e-9, 8.5e-9, 10.5e-9, 12.5e-9)
LINEWIDTH_GRID = (5e6, 9.5e6, 14e6, 19.5e6)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_operating_point_optimal_rate():
    t0 = time.perf_counter()
    point = evaluate_point(9.5e6, 2.5e-9, base_params(),
                           SimSettings(seed=derive_seed(1, 0, 0)))
    elapsed = time.perf_counter() - t0
    ok = (148.144e6 <= point.b_es_hz <= 222.216e6
          and abs(point.h_min_bits - 6.35) <= 0.3
          and 0.75 * 2.35e9 <= point.k_bits_per_s <= 1.25 * 2.35e9
          and elapsed < 30.0)
    report(1, ok, f"B={point.b_es_hz/1e6:.2f} MHz (185.18 +-20%), "
                  f"H={point.h_min_bits:.3f} (6.35 +-0.3), "
                  f"K={point.k_bits_per_s/1e9:.3f} Gbps (2.35 +-25%), "
                  f"runtime {elapsed:.1f}s (<30s)")


def test_criterion_2_operating_point_optimal_entropy():
    point = evaluate_point(9.5e6, 6.5e-9, base_params(),
                           SimSettings(seed=derive_seed(1, 0, 2)))
    f_s = point.f_s_hz
    ok = (54.592e6 <= point.b_es_hz <= 81.888e6
          and abs(point.h_min_bits - 7.03) <= 0.3
          and f_s == 2.0 * point.b_es_hz)
    report(2, ok, f"B={point.b_es_hz/1e6:.2f} MHz (68.24 +-20%), "
                  f"H={point.h_min_bits:.3f} (7.03 +-0.3), "
                  f"f_s=2B={f_s/1e6:.2f} MSa/s")


def test_criterion_3_sweep_reproduction():
    t0 = time.perf_counter()
    bests = []
    k_curves = []
    for master in (1, 2, 3):
        grid = SweepGrid(linewidths_hz=(9.5e6,), delays_s=DELAY_GRID,
                         sim=SimSettings(seed=master))
        res = sweep(grid)
        assert not res.failures
        bests.append((res.best.linewidth_hz, res.best.delay_s))
        k_curves.append([p.k_bits_per_s for p in res.points])
    elapsed = time.perf_counter() - t0
    trend_ok = True
    for ks in k_curves:
        trend_ok &= all(ks[j + 1] <= 1.25 * ks[j] for j in range(len(ks) - 1))
        trend_ok &= all(ks[j + 2] < ks[j] for j in range(len(ks) - 2))
        trend_ok &= ks[-1] < ks[0]
    ok = (all(b == (9.5e6, 2.5e-9) for b in bests)
          and trend_ok and elapsed < 180.0)
    report(3, ok, f"best at tau_l=2.5ns for masters (1,2,3); K decreasing "
                  f"within 25% noise; runtime {elapsed:.1f}s (<180s)")


def test_criterion_4_bandwidth_trends():
    masters = (1, 2)
    # per-point seeds mirror the sweep layout: derive(master, i, j)
    tau_curves = {m: [
        evaluate_point(9.5e6, d, base_params(),
                       SimSettings(seed=derive_seed(m, 0, j))).b_es_hz
        for j, d in enumerate(DELAY_GRID)] for m in masters}
    lw_curves = {m: [
        evaluate_point(lw, 6.5e-9, base_params(),
                       SimSettings(seed=derive_seed(m, i, 0))).b_es_hz
        for i, lw in enumerate(LINEWIDTH_GRID)] for m in masters}

    ok = True
    for m in masters:
        bs = tau_curves[m]
        inversions = [j for j in range(len(bs) - 1) if bs[j + 1] >= bs[j]]
        ok &= len(inversions) <= 1
        ok &= all(bs[j + 1] <= 1.05 * bs[j] for j in inversions)
        ok &= all(bs[j + 1] < bs[j] for j in range(len(bs) - 1)
                  if j not in inversions)
        ls = lw_curves[m]
        ok &= all(ls[i + 1] >= 0.95 * ls[i] for i in range(len(ls) - 1))
    for j in range(len(DELAY_GRID)):
        a, b = tau_curves[1][j], tau_curves[2][j]
        ok &= abs(a - b) <= 0.05 * min(a, b)
    for i in range(len(LINEWIDTH_GRID)):
        a, b = lw_curves[1][i], lw_curves[2][i]
        ok &= abs(a - b) <= 0.05 * min(a, b)
    report(4, ok, "B_ES decreasing in tau_l, non-decreasing in linewidth, "
                  "two seeds agree within 5% at every grid point")


def test_criterion_5_analytic_vs_empirical_entropy():
    sigma2s = np.logspace(math.log10(0.05), math.log10(10.0), 10)
    bit_cycle = (6, 8, 10)
    worst_dh, worst_z = 0.0, 0.0
    for idx, sigma2 in enumerate(sigma2s):
        adc = AdcSpec(bits=bit_cycle[idx % 3], range=1.0)
        amplitude = adc.default_amplitude()
        counts = monte_carlo_code_histogram(sigma2, amplitude, adc, 2**24,
                                            seed=910_000 + idx)
        n = counts.sum()
        freq = counts / n
        h_emp = -math.log2(freq.max())
        pc_mc = freq[-adc.code_min]
        # the ADC's code of A, which a small sigma2 may leave empty
        pr_mc = freq[quantize_value(amplitude, adc) - adc.code_min]
        rep = analytic_min_entropy(sigma2, amplitude, adc)
        worst_dh = max(worst_dh, abs(rep.h_min - h_emp))
        for p_an, p_mc in ((rep.p_c, pc_mc), (rep.p_r, pr_mc)):
            # standard error under the null hypothesis p = p_an
            se = math.sqrt(p_an * (1.0 - p_an) / n)
            worst_z = max(worst_z, abs(p_an - p_mc) / se)
    ok = worst_dh <= 0.05 and worst_z <= 3.0
    report(5, ok, f"10 configs, 2^24-sample MC: max |dH|={worst_dh:.4f} "
                  f"(<=0.05), max |z|={worst_z:.2f} (<=3)")


def test_criterion_6_normalization_and_symmetry():
    adc = AdcSpec(bits=8, range=1.0)
    # range and 1.5 * range clip: the end codes take the mass beyond them
    amplitudes = {"default": adc.default_amplitude(),
                  "range-delta": adc.range - adc.delta,
                  "range": adc.range, "1.5 range": 1.5 * adc.range}
    worst_norm = 0.0
    for amplitude in amplitudes.values():
        for sigma2 in np.logspace(-2, 2, 9):
            total = code_probabilities(sigma2, amplitude, adc).sum()
            worst_norm = max(worst_norm, abs(total - 1.0))
    worst_sym = 0.0
    for sigma2 in (0.05, 0.4, 3.0):
        probs = code_probabilities(sigma2, amplitudes["default"], adc)
        for i in range(1, 84):
            worst_sym = max(worst_sym, abs(probs[128 + i] - probs[128 - i]))
    a = amplitudes["range-delta"]
    pc = code_probabilities(100.0, a, adc)[128]
    pc_oracle = (2.0 / math.pi) * math.asin(adc.delta / (2.0 * a))
    chi = quantize_value(a, adc) * adc.delta
    pr = code_probabilities(100.0, a, adc)[128 + quantize_value(a, adc)]
    pr_oracle = 0.5 - math.asin((chi - adc.delta / 2.0) / a) / math.pi
    arcsine_err = max(abs(pc - pc_oracle), abs(pr - pr_oracle))
    ok = worst_norm < 1e-9 and worst_sym < 1e-12 and arcsine_err < 1e-3
    report(6, ok, f"normalization err {worst_norm:.2e} (<1e-9), symmetry err "
                  f"{worst_sym:.2e} (<1e-12), arcsine oracle err "
                  f"{arcsine_err:.2e} (<1e-3)")


def test_criterion_7_variance_relations():
    worst_rt = 0.0
    for sigma2 in np.logspace(-4, math.log10(5.0), 60):
        for amplitude in (0.5, 1.0, 2.0):
            rt = invert_variance(forward_variance(sigma2, amplitude), amplitude)
            worst_rt = max(worst_rt, abs(rt - sigma2))
    amplitude = AdcSpec().default_amplitude()
    worst_z = 0.0
    pairs = [(9.5e6, 65), (9.5e6, 25), (5e6, 65), (14e6, 45), (19.5e6, 105)]
    for i, (lw, k) in enumerate(pairs):
        q = quantum_trace(lw, k, 2**22, seed=100 + i)
        sigma2 = phase_variance(lw, k * 1e-10)
        target = forward_variance(sigma2, amplitude)
        se = chunk_se_of_variance(q.samples)
        worst_z = max(worst_z, abs(q.samples.var() - target) / se)
    ok = worst_rt < 1e-12 and worst_z <= 3.0
    report(7, ok, f"round-trip err {worst_rt:.2e} (<1e-12); Var(Q) law max "
                  f"|z|={worst_z:.2f} (<=3) over 5 design points")


def test_criterion_8_product_invariance_and_unimodality():
    adc = AdcSpec()
    amplitude = adc.default_amplitude()
    exact = True
    for lw, delay in ((9.5e6, 6.5e-9), (9.5e6, 2.5e-9), (8e6, 4e-9)):
        h0 = analytic_min_entropy(phase_variance(lw, delay), amplitude, adc).h_min
        for c in (2.0, 5.0, 10.0):
            h = analytic_min_entropy(phase_variance(lw * c, delay / c),
                                     amplitude, adc).h_min
            exact &= (h == h0)
    grid = np.logspace(-3, 2, 200)
    h = np.array([analytic_min_entropy(s2, amplitude, adc).h_min for s2 in grid])
    d = np.diff(h)
    signs = np.sign(np.where(np.abs(d) < 1e-9, 0.0, d))
    nz = signs[signs != 0]
    changes = int(np.sum(nz[1:] != nz[:-1]))
    ok = exact and changes == 1 and nz[0] > 0 and nz[-1] < 0
    report(8, ok, f"H identical under (c*linewidth, delay/c) for c in (2,5,10); "
                  f"200-point variance scan rises then falls "
                  f"({changes} sign change)")


def test_criterion_9_extractor_correctness():
    rng = np.random.default_rng(2718)
    oracle_ok = True
    for _ in range(1000):
        n_in = int(rng.integers(1, 65))
        n_out = int(rng.integers(1, n_in + 1))
        spec = ToeplitzSpec(n_in, n_out,
                            rng.integers(0, 2, n_in + n_out - 1).astype(np.uint8))
        x = rng.integers(0, 2, n_in).astype(np.uint8)
        oracle_ok &= np.array_equal(extract_block(x, spec),
                                    dense_product(spec, x))
        if not oracle_ok:
            break
    kernel_ok = True
    for i in range(200):
        n_in = int(rng.integers(1, 65))
        n_out = int(rng.integers(1, n_in + 1))
        spec = ToeplitzSpec(n_in, n_out,
                            rng.integers(0, 2, n_in + n_out - 1).astype(np.uint8))
        # block counts on both sides of the kernel's chunk edge
        chunk = extractor._BATCH_SAMPLES // spec._fft_length
        n_blocks = (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1)[i % 5]
        x = rng.integers(0, 2, (n_blocks, n_in)).astype(np.uint8)
        got = kernel_product("_hash", spec, x)
        kernel_ok &= np.array_equal(got, dense_product(spec, x))
        if not kernel_ok:
            break
    linear_ok = True
    for _ in range(200):
        n_in = int(rng.integers(2, 97))
        n_out = int(rng.integers(1, n_in + 1))
        spec = ToeplitzSpec(n_in, n_out,
                            rng.integers(0, 2, n_in + n_out - 1).astype(np.uint8))
        x = rng.integers(0, 2, n_in).astype(np.uint8)
        y = rng.integers(0, 2, n_in).astype(np.uint8)
        linear_ok &= np.array_equal(
            extract_block(x ^ y, spec),
            extract_block(x, spec) ^ extract_block(y, spec))
        if not linear_ok:
            break
    spec = ToeplitzSpec(2048, 1800, bit_stream(55, 2048 + 1800 - 1))
    block_out = extract_block(bit_stream(56, 2048), spec).size
    ok = oracle_ok and kernel_ok and linear_ok and block_out == 1800
    report(9, ok, f"dense-oracle equivalence on 1000 instances "
                  f"(+200 multi-block across the kernel's chunk edge), "
                  f"GF(2) linearity exact, "
                  f"2048x1800 block yields {block_out} bits")


def test_criterion_10_end_to_end_statistical_sanity():
    # operating point B sampled at the interferometer delay itself, so
    # consecutive samples use disjoint phase increments
    from lpnqrng import SystemParams

    base = SystemParams(linewidth_hz=9.5e6, delay_s=6.5e-9,
                        sample_period_s=6.5e-9)
    path = sample_phase_path(base.linewidth_hz, base.sample_period_s,
                             2**18, seed=11)
    q = quantum_noise(path, 1, base.amplitude)
    codes = quantize(q, base.adc)
    spec = ToeplitzSpec(2048, 1800, bit_stream(5, 2048 + 1800 - 1))
    bits = extract_stream(codes, spec)
    p_mono = monobit_test(bits)
    p_runs = runs_test(bits)
    ok = bits.size >= 1_000_000 and p_mono > 0.01 and p_runs > 0.01
    report(10, ok, f"{bits.size} extracted bits; monobit p={p_mono:.3f}, "
                   f"runs p={p_runs:.3f} (both > 0.01)")
