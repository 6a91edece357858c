"""The three benchmark workloads, their correctness oracles and digests.

Each workload builds its inputs from the workload seed in ``__init__``
(that is the set-up ``setup_s`` times), then runs one operation per
``op`` call. Every stream seed comes from ``derive_seed``. Calls into
the package go through module attributes (``simulate.quantize``, ...)
so the traced run sees them; see ``spans.py``.

An operation's outputs depend only on the seed, so every repeat of an
operation must reproduce the first one bit for bit; ``digest`` hashes
what an operation produced and ``checks`` holds the oracles that are
run once on the first result of each distinct operation.
"""
from __future__ import annotations

import hashlib
import json
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import signal
from scipy.special import ndtri

from lpnqrng import (AdcSpec, SimSettings, SystemParams, entropy, extractor,
                     optimizer, rng, simulate, spectral, traceio)

#: the command line's default master seed; its digests are pinned below
DEFAULT_SEED = 1

N_IN, N_OUT = 2048, 1800

#: SHA-256 of ``op(0)`` at DEFAULT_SEED. The README promises identical
#: output for the same seed, platform and library versions, so the pins
#: apply only on the platform recorded in PINNED_PLATFORM.
PINNED_DIGESTS = {
    "sweep": "bdc07a7dfc79b7d128177557c6bb0e5a57483993428b931f5180329c2a81ba15",
    "bitgen": "171ab99adceb8515b0866eb727d4a2e3646ec6d3a7e69641c84468a1421d44b8",
    "lab_trace": "ee024db948a9cb401f59dcfe7bde940d00567cb0c9a5d626beaa61fe0d707f35",
}
PINNED_PLATFORM = {
    "machine": "x86_64", "python": "3.11.7", "numpy": "2.4.6",
    "scipy": "1.17.1", "simd": ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"],
}

WORK_DIR = Path(__file__).resolve().parent / ".work"


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p).tobytes())
        else:
            h.update(json.dumps(p).encode())
    return h.hexdigest()


def _rel_err(got: float, want: float) -> float:
    return abs(got / want - 1.0)


class Workload:
    """Interface of a workload; subclasses set the class attributes.

    ``op(n)`` runs the n-th operation and returns (key, result, items):
    ops with equal keys must produce identical results, and ``items``
    is what the throughput counts. ``digest(result)`` hashes a result,
    ``checks(key, result)`` runs the oracles on the first result of a
    key, and ``final_checks(digests)`` runs once after the loop.
    """

    name: str
    #: the workload's throughput under its own name: (name, scale, unit)
    THROUGHPUT: tuple[str, float, str]
    #: reference work timed between ops: (kind, size), see Reference
    REFERENCE: tuple[str, int]

    def final_checks(self, digests):
        return []


class Sweep(Workload):
    """The design-optimizer path: evaluate_point over a 5x5 grid."""

    name = "sweep"
    THROUGHPUT = ("sweep_points_per_s", 1.0, "points/s")
    REFERENCE = ("spectral", 2**20)
    LINEWIDTHS_HZ = (5e6, 9.5e6, 20e6, 40e6, 80e6)
    DELAYS_S = (1.5e-9, 2.5e-9, 4.5e-9, 6.5e-9, 10e-9)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.base = SystemParams(self.LINEWIDTHS_HZ[0], self.DELAYS_S[0])
        self.grid = [(i, j, lw, d)
                     for i, lw in enumerate(self.LINEWIDTHS_HZ)
                     for j, d in enumerate(self.DELAYS_S)]
        self.sims = [SimSettings(seed=rng.derive_seed(seed, i, j))
                     for i, j, _, _ in self.grid]

    def op(self, n: int):
        """Evaluate grid point n (cycling); returns (key, result, items)."""
        u = n % len(self.grid)
        _, _, lw, d = self.grid[u]
        return u, optimizer.evaluate_point(lw, d, self.base, self.sims[u]), 1

    @staticmethod
    def digest(point) -> str:
        return _sha(point.to_dict())

    def checks(self, u, point):
        _, _, lw, d = self.grid[u]
        want = entropy.analytic_min_entropy(
            entropy.phase_variance(lw, d), self.base.amplitude,
            self.base.adc).h_min
        return [("sweep.h_min_equals_analytic", point.h_min_bits == want),
                ("sweep.not_saturated", not point.saturated)]

    def final_checks(self, digests):
        """Re-evaluate one point alone from its derived seed."""
        keys = sorted(digests)
        u = keys[self.seed % len(keys)]
        i, j, lw, d = self.grid[u]
        alone = optimizer.evaluate_point(
            lw, d, self.base, SimSettings(seed=rng.derive_seed(self.seed, i, j)))
        return [("sweep.point_reproduces_alone",
                 self.digest(alone) == digests[u])]


@dataclass
class BitgenOut:
    measured: np.ndarray
    codes: np.ndarray
    h_min: float
    bits: np.ndarray
    p_monobit: float
    p_runs: float


class Bitgen(Workload):
    """The bit-production path: simulate at tau_s = delay, then extract."""

    name = "bitgen"
    THROUGHPUT = ("bitgen_mbit_per_s", 1e-6, "Mbit/s")
    REFERENCE = ("gf2", 4)
    LINEWIDTH_HZ = 9.5e6
    DELAY_S = 6.5e-9
    N_CODES = 2**20
    #: plug-in H_min sits slightly below the analytic value (the max of
    #: several near-equal bin frequencies is biased up); at 2**20 codes
    #: its spread is ~0.02 bits
    H_MIN_TOL_BITS = 0.12
    #: the sanity tests must not reject the output outright
    P_FLOOR = 1e-6

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.params = SystemParams(self.LINEWIDTH_HZ, self.DELAY_S,
                                   sample_period_s=self.DELAY_S)
        self.k = self.params.delay_samples
        self.phase_seed = rng.derive_seed(seed, rng.STREAM_PHASE)
        self.ele_seed = rng.derive_seed(seed, rng.STREAM_ELECTRONIC)
        seed_bits = rng.bit_stream(rng.derive_seed(seed, rng.STREAM_TOEPLITZ),
                                   N_IN + N_OUT - 1)
        self.spec = extractor.ToeplitzSpec(N_IN, N_OUT, seed_bits)
        # hashing one block builds and caches the packed matrix
        extractor.extract_block(np.zeros(N_IN, dtype=np.uint8), self.spec)

    def op(self, n: int):
        p = self.params
        path = simulate.sample_phase_path(p.linewidth_hz, p.sample_period_s,
                                          self.N_CODES + self.k, self.phase_seed)
        q = simulate.quantum_noise(path, self.k, p.amplitude)
        m = simulate.add_electronic_noise(q, p.sigma_ele, self.ele_seed)
        codes = simulate.quantize(q, p.adc)
        h_min = entropy.empirical_min_entropy(codes).h_min
        bits = extractor.extract_stream(codes, self.spec)
        out = BitgenOut(m.samples, codes.codes, h_min, bits,
                        extractor.monobit_test(bits), extractor.runs_test(bits))
        return 0, out, bits.size

    @staticmethod
    def digest(out: BitgenOut) -> str:
        return _sha(out.measured, out.codes, np.packbits(out.bits),
                    [out.h_min, out.p_monobit, out.p_runs])

    def checks(self, _, out: BitgenOut):
        p = self.params
        analytic = entropy.analytic_min_entropy(
            entropy.phase_variance(p.linewidth_hz, p.delay_s), p.amplitude,
            p.adc).h_min
        n_blocks = self.N_CODES * p.adc.bits // N_IN
        return [
            ("bitgen.output_length", out.bits.size == n_blocks * N_OUT),
            ("bitgen.dense_matrix_oracle", self._dense_oracle(out, n_blocks)),
            ("bitgen.h_min_near_analytic",
             abs(out.h_min - analytic) <= self.H_MIN_TOL_BITS),
            ("bitgen.monobit_p", out.p_monobit >= self.P_FLOOR),
            ("bitgen.runs_p", out.p_runs >= self.P_FLOOR),
        ]

    def _dense_oracle(self, out: BitgenOut, n_blocks: int,
                      n_sample: int = 8) -> bool:
        """Sampled blocks must equal the dense matrix product mod 2.

        The first and last blocks are always sampled: chunked kernels
        go wrong at chunk edges first.
        """
        pick = {0, n_blocks - 1, *np.random.default_rng(
            rng.derive_seed(self.seed, 0xD3)).choice(n_blocks, size=n_sample,
                                                      replace=False)}
        dense = self.spec.matrix().astype(np.int32)
        # 8-bit two's-complement codes, serialized MSB first by NumPy alone
        raw = np.unpackbits(out.codes.astype(np.int8).view(np.uint8))
        for b in pick:
            block = raw[b * N_IN:(b + 1) * N_IN].astype(np.int32)
            if not np.array_equal((dense @ block) & 1,
                                  out.bits[b * N_OUT:(b + 1) * N_OUT]):
                return False
        return True


@dataclass
class LabOut:
    written: tuple
    read: tuple
    psd_quantum: object
    psd_measured: object
    b_es_hz: tuple
    h_min: float
    sigma2: float


class LabTrace(Workload):
    """One long oversampled trace: simulate, store, reload and analyze."""

    name = "lab_trace"
    THROUGHPUT = ("lab_msamples_per_s", 1e-6, "Msample/s")
    #: arrays as large as the sweep's ops: the 2**23-sample op is bound
    #: by memory traffic more than the cache-sized 2**20 reference is
    REFERENCE = ("spectral", 2**22)
    LINEWIDTH_HZ = 9.5e6
    DELAY_S = 2.5e-9
    N_SAMPLES = 2**23
    #: Welch density integrates to the variance up to leakage (~1e-3 seen)
    PSD_VAR_RTOL = 0.01
    #: the sample variance of 2**23 correlated samples (correlation
    #: length k = 25) scatters sigma^2 by ~0.3%
    SIGMA2_RTOL = 0.02

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.params = SystemParams(self.LINEWIDTH_HZ, self.DELAY_S)
        self.k = self.params.delay_samples
        self.phase_seed = rng.derive_seed(seed, rng.STREAM_PHASE)
        self.ele_seed = rng.derive_seed(seed, rng.STREAM_ELECTRONIC)
        WORK_DIR.mkdir(exist_ok=True)

    def op(self, n: int):
        p = self.params
        path = simulate.sample_phase_path(p.linewidth_hz, p.sample_period_s,
                                          self.N_SAMPLES + self.k,
                                          self.phase_seed)
        q = simulate.quantum_noise(path, self.k, p.amplitude)
        del path
        m = simulate.add_electronic_noise(q, p.sigma_ele, self.ele_seed)
        codes = simulate.quantize(q, p.adc)
        with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
            files = [Path(tmp) / name
                     for name in ("quantum.f64", "measured.f64", "codes.i16")]
            traceio.write_analog_trace(files[0], q, p, self.seed)
            traceio.write_analog_trace(files[1], m, p, self.seed)
            traceio.write_quantized_trace(files[2], codes, p, self.seed)
            q2, _ = traceio.read_analog_trace(files[0])
            m2, _ = traceio.read_analog_trace(files[1])
            c2, _ = traceio.read_quantized_trace(files[2])
        psd_q = spectral.estimate_psd(q2)
        psd_m = spectral.estimate_psd(m2)
        b_es = (spectral.bandwidth_3db(psd_q).b_es_hz,
                spectral.bandwidth_3db(psd_m).b_es_hz)
        h_min = entropy.empirical_min_entropy(c2).h_min
        sigma_q2 = entropy.quantum_variance_from_measurement(
            float(np.var(m2.samples)), p.sigma_ele ** 2)
        sigma2 = entropy.invert_variance(sigma_q2, p.amplitude)
        out = LabOut((q, m, codes), (q2, m2, c2), psd_q, psd_m, b_es, h_min,
                     sigma2)
        return 0, out, len(q2)

    @staticmethod
    def digest(out: LabOut) -> str:
        q, m, c = out.read
        return _sha(q.samples, m.samples, c.codes, out.psd_quantum.power,
                    out.psd_measured.power, [*out.b_es_hz, out.h_min, out.sigma2])

    def checks(self, _, out: LabOut):
        p = self.params
        (q, m, c), (q2, m2, c2) = out.written, out.read
        round_trip = (np.array_equal(q.samples, q2.samples)
                      and np.array_equal(m.samples, m2.samples)
                      and np.array_equal(c.codes, c2.codes)
                      and (q.label, m.label, c.adc) == (q2.label, m2.label, c2.adc)
                      and q2.sample_period_s == p.sample_period_s)
        result = [("lab_trace.round_trip_identical", round_trip)]
        for label, psd, trace in (("quantum", out.psd_quantum, q2),
                                  ("measured", out.psd_measured, m2)):
            integral = float(np.sum(psd.power)) * psd.df_hz
            result.append((f"lab_trace.psd_integral_{label}",
                           _rel_err(integral, float(np.var(trace.samples)))
                           <= self.PSD_VAR_RTOL))
        want = entropy.phase_variance(p.linewidth_hz, p.delay_s)
        result.append(("lab_trace.sigma2_recovered",
                       _rel_err(out.sigma2, want) <= self.SIGMA2_RTOL))
        return result


WORKLOADS = {w.name: w for w in (Sweep, Bitgen, LabTrace)}


class Reference:
    """Fixed NumPy/SciPy work timed between ops to track machine speed.

    Other tenants of a shared machine slow every op by up to ~40% for
    tens of seconds at a time, and different kinds of work slow by
    different amounts. So each workload's reference repeats the kind of
    work its ops spend their time on, and op latency over reference
    time cancels most of that drift: ``spectral`` is inverse-CDF
    variates, cumsum, sin and a Welch FFT; ``gf2`` is the AND +
    popcount of the Toeplitz product. The reference calls NumPy and
    SciPy only, never lpnqrng.
    """

    def __init__(self, kind: str, size: int) -> None:
        g = np.random.default_rng(0x5EED)
        self.kind, self.size = kind, size
        if kind == "spectral":
            self.u = g.random(size)
        else:
            self.rows = g.integers(0, 2**63, (1, N_OUT, N_IN // 64),
                                   dtype=np.uint64)
            self.blocks = g.integers(0, 2**63, (64, 1, N_IN // 64),
                                     dtype=np.uint64)

    def __call__(self) -> float:
        """Time one round: ``size`` samples, or ``size`` 64-block chunks."""
        t0 = time.perf_counter()
        if self.kind == "spectral":
            signal.welch(np.sin(np.cumsum(ndtri(self.u))), nperseg=8192)
        else:
            for _ in range(self.size):
                np.bitwise_count(self.blocks & self.rows).sum(axis=2,
                                                              dtype=np.uint32)
        return time.perf_counter() - t0


def platform_key() -> dict:
    """What bit-identical output is promised over: platform and libraries.

    NumPy picks SIMD kernels (sin among them) at run time, so the CPU
    features it dispatches to are part of the platform.
    """
    import platform

    import scipy

    try:
        from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                                   __cpu_features__)
        simd = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    except ImportError:
        simd = None
    return {"machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "simd": simd}


def pinned_digest_check(cls, seed: int, digest0: str | None):
    """Compare op(0) at DEFAULT_SEED with its pinned digest.

    Reuses the run's own op(0) digest when the run used DEFAULT_SEED and
    replays op(0) otherwise. Returns None off the pinned platform.
    """
    if platform_key() != PINNED_PLATFORM:
        return None
    if seed != DEFAULT_SEED or digest0 is None:
        digest0 = cls.digest(cls(DEFAULT_SEED).op(0)[1])
    return (f"{cls.name}.pinned_digest", digest0 == PINNED_DIGESTS[cls.name])


def kernel_only(tracer, repeats: int = 3, n_blocks: int = 512):
    """Extractor-only throughput on the production 2048x1800 geometry.

    Same inputs as benchmarks/bench_toeplitz.py (seeds 0xB0B and
    0xCAFE, 512 blocks), fed through the public ``extract_stream`` as
    8-bit codes whose two's-complement serialization is exactly the
    random input bits. Each repeat is one traced op, so the kernel time
    is ``extract_stream``'s self time. Returns output Mbit/s over the
    best repeat and whether sampled blocks match the dense product.
    """
    spec = extractor.ToeplitzSpec(N_IN, N_OUT,
                                  rng.bit_stream(0xB0B, N_IN + N_OUT - 1))
    bits = rng.bit_stream(0xCAFE, n_blocks * N_IN)
    codes = simulate.QuantizedTrace(np.packbits(bits).view(np.int8),
                                    AdcSpec(bits=8), 1.0)
    extractor.extract_block(np.zeros(N_IN, dtype=np.uint8), spec)
    with tracer.installed():
        for r in range(repeats):
            tracer.op = r
            out = extractor.extract_stream(codes, spec)
    best = min(tracer.self_times(op=r)["extractor.extract_stream"]
               for r in range(repeats))
    dense = spec.matrix().astype(np.int32)
    ok = all(np.array_equal(
        (dense @ bits[b * N_IN:(b + 1) * N_IN].astype(np.int32)) & 1,
        out[b * N_OUT:(b + 1) * N_OUT]) for b in (0, n_blocks // 2, n_blocks - 1))
    return out.size / best / 1e6, ok
