"""The threaded layers give the same bytes whatever the worker count.

``gaussian_stream``, ``quantum_noise``, the one-buffer quantum trace
of a design point, ``code_histogram`` (above 2**22 codes),
``estimate_psd`` and the Toeplitz extractor split their work into one
part per CPU the process may run on (``_parallel``); ``quantize`` runs
on the calling thread.
Each test here sets the worker count to 1, 2 and 3 (and 5 for Welch)
and compares every result with an independent serial oracle or with
the one-worker result. The
extractor's parts share the caller's buffers, so its memory peak must
not grow with the part count either (Welch's: ``TestPsdMemory``).
"""
import importlib.util
import math
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import signal
from scipy.special import ndtri

from lpnqrng import (AdcSpec, SimSettings, SystemParams, ToeplitzSpec,
                     _parallel, entropy, extractor, estimate_psd,
                     evaluate_point, extract_block, extract_stream,
                     gaussian_stream, quantum_noise, spectral)
from lpnqrng.entropy import _HISTOGRAM_CHUNK, code_histogram
from lpnqrng.errors import InvalidParameterError
from lpnqrng.extractor import (_BATCH_SAMPLES, _TABLE_BYTES,
                               _TABLE_MAX_LENGTH, codes_to_bits)
from lpnqrng.rng import _GAUSS_BLOCK, raw_stream
from lpnqrng.simulate import (_PART_QUANTUM, AnalogTrace, PhasePath,
                              QuantizedTrace, _quantum_trace, quantize)
from lpnqrng.spectral import _subtrees

from conftest import TAU_S, base_params, dense_product

B = _GAUSS_BLOCK
WORKER_COUNTS = (1, 2, 3)
ROOT = Path(__file__).resolve().parents[1]
PIPELINE = ROOT / "perfbench" / "pipeline.py"


def set_workers(monkeypatch, n):
    monkeypatch.setattr(_parallel, "workers", lambda: n)


def per_worker_count(monkeypatch, fn):
    """fn() once for each worker count."""
    results = []
    for n in WORKER_COUNTS:
        set_workers(monkeypatch, n)
        results.append(fn())
    return results


@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 2 * B, 3 * B + 7])
def test_gaussian_stream_matches_formula_at_every_worker_count(monkeypatch, n):
    expected = ndtri(((raw_stream(11, n) >> np.uint64(11)) + 0.5) * 2.0**-53)
    for z in per_worker_count(monkeypatch, lambda: gaussian_stream(11, n)):
        assert z.shape == (n,)
        assert np.array_equal(z, expected)


# k = 1 with n = 2 is a one-sample trace; at 2**17 + 3 and 3 * 2**15 + 2
# samples the parts are longer, equal to and shorter than the heads
# min(k, part) that each part computes before the part below writes
QUANTUM_TRACE_CASES = [(k, k + 1) for k in (1, 25, B - 1, B, B + 5)] + [
    (k, n) for n in (2**17 + 3, 3 * B + 2)
    for k in (1, 25, B - 1, B, B + 5, n - 1)]


def drawn_theta(n_samples, seed):
    """The Wiener path at 9.5 MHz: the cumulative sum of scaled variates."""
    steps = gaussian_stream(seed, n_samples - 1) * math.sqrt(
        2 * math.pi * 9.5e6 * TAU_S)
    return np.concatenate(([0.0], np.cumsum(steps)))


@pytest.mark.parametrize("k,n_samples", [
    (k, n) for n in (1001, 2 * B + 1, 3 * B + 7) for k in (1, 25)]
    + QUANTUM_TRACE_CASES)
def test_quantum_noise_matches_formula_at_every_worker_count(monkeypatch,
                                                            k, n_samples):
    # the public call and the one-buffer route of a design point
    design = SystemParams(9.5e6, k * TAU_S, sample_period_s=TAU_S)
    assert design.delay_samples == k
    theta = drawn_theta(n_samples, 4)
    amplitude = design.amplitude
    expected = amplitude * np.sin(theta[k:] - theta[:-k])
    path = PhasePath(theta, TAU_S)
    for q, route in per_worker_count(monkeypatch, lambda: (
            quantum_noise(path, k, amplitude),
            _quantum_trace(design, n_samples, 4))):
        assert np.array_equal(q.samples, expected)
        assert route.samples.tobytes() == expected.tobytes()


@pytest.mark.parametrize("k", [1, B + 5])
def test_quantum_noise_reads_the_paths_own_origin(monkeypatch, k):
    # a path is any array: theta[0] need not be the drawn origin 0
    theta = drawn_theta(3 * B + 2, 6) + 1.7
    expected = 0.5 * np.sin(theta[k:] - theta[:-k])
    path = PhasePath(theta, TAU_S)
    for q in per_worker_count(monkeypatch,
                              lambda: quantum_noise(path, k, 0.5)):
        assert np.array_equal(q.samples, expected)


def welch_oracle(n_segments, nfft, overlap):
    """A trace of n_segments segments and scipy's Welch power of it."""
    noverlap = int(overlap * nfft)
    step = nfft - noverlap
    n = noverlap + n_segments * step + step // 3
    x = 0.3 * gaussian_stream(n_segments + nfft, n) + 0.05
    _, power = signal.welch(
        x - x.mean(), 1 / TAU_S, "hann", nperseg=nfft, noverlap=noverlap,
        nfft=nfft, detrend=False, return_onesided=True, scaling="density")
    return AnalogTrace(x, TAU_S, "measured"), power


# at nfft 4096 a block is 32 segments, so a leaf of 128 spans four
# blocks; at nfft 256 and 1024 a leaf is one block, and only the split
# into subtrees spreads the segments over parts. The counts lie at the
# edges of a leaf, of two leaves, and of the subtrees of the sweep's
# 1023 and lab_trace's 2047 segments; two half-overlapped segments are
# too short a trace, so 2 runs at overlap 0
@pytest.mark.parametrize("nfft,n_segments,overlap", [(4096, 2, 0.0)] + [
    (4096, n, overlap) for n in (127, 128, 129, 257, 1023)
    for overlap in (0.0, 0.5)] + [
    (nfft, n, 0.5) for nfft in (256, 1024)
    for n in (127, 128, 129, 255, 256, 257, 1023, 2047, 4094)] + [
    (nfft, n, 0.0) for nfft in (256, 1024) for n in (257, 2047)])
def test_estimate_psd_matches_welch_at_every_worker_count(monkeypatch, nfft,
                                                          n_segments, overlap):
    trace, expected = welch_oracle(n_segments, nfft, overlap)
    for n in (1, 2, 3, 5):
        set_workers(monkeypatch, n)
        psd = estimate_psd(trace, nfft, overlap)
        assert psd.n_segments == n_segments
        assert np.array_equal(psd.power, expected), n


def test_welch_parts_sum_whole_subtrees():
    # the sweep's 1023 segments, split a level at a time from the root
    assert _subtrees(1023, 4) == ([(0, 248), (248, 256), (504, 256),
                                   (760, 263)], {(0, 1023), (0, 504),
                                                 (504, 1023)})
    assert _subtrees(1023, 8)[0] == [(0, 120), (120, 128), (248, 128),
                                     (376, 128), (504, 128), (632, 128),
                                     (760, 128), (888, 135)]
    assert _subtrees(100, 8) == ([(0, 100)], set())  # a leaf does not split


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
@pytest.mark.parametrize("n_segments", [1023, 2047])
def test_welch_parts_sum_each_node(monkeypatch, workers, n_segments):
    trace, expected = welch_oracle(n_segments, 256, 0.5)
    set_workers(monkeypatch, workers)
    origin = trace.samples.ctypes.data
    power, calls = spectral._pairwise_power, []

    def record(segments, *args):
        # half-overlapped segments of 256 start 128 float64 apart
        start = (segments.ctypes.data - origin) // (128 * 8)
        calls.append((start, len(segments)))
        return power(segments, *args)

    monkeypatch.setattr(spectral, "_pairwise_power", record)
    assert np.array_equal(estimate_psd(trace, 256, 0.5).power, expected)
    # a recursive call sums a run inside its caller's; the rest are the
    # parts' own calls, one per node
    top = [(s, n) for s, n in calls if not any(
        a <= s and s + n <= a + m and (a, m) != (s, n) for a, m in calls)]
    assert sorted(top) == _subtrees(n_segments, 4 * workers)[0]


# at nfft 2048 and three workers a part's 64 // 3 rows round down to 16
@pytest.mark.parametrize("workers", [1, 2, 3, 5])
@pytest.mark.parametrize("n_segments,nfft,overlap", [
    (2, 16, 0.0), (127, 256, 0.5), (1023, 1024, 0.5), (1023, 2048, 0.5),
    (4094, 256, 0.5), (1023, 8192, 0.5)])
def test_estimate_psd_makes_one_parallel_call(monkeypatch, workers,
                                              n_segments, nfft, overlap):
    trace, expected = welch_oracle(n_segments, nfft, overlap)
    set_workers(monkeypatch, workers)
    calls, run = [], _parallel.run  # the part count of each call
    monkeypatch.setattr(_parallel, "run", lambda part, args: (
        calls.append(len(args)), run(part, args)))
    psd = estimate_psd(trace, nfft, overlap)
    assert np.array_equal(psd.power, expected)
    # a single leaf is one part; these longer traces have a node per worker
    assert calls == [1 if n_segments <= 128 else workers]


@pytest.mark.parametrize("workers,n_segments", [(1, 1023), (3, 127)])
def test_one_part_welch_starts_no_thread(monkeypatch, workers, n_segments):
    trace, expected = welch_oracle(n_segments, 256, 0.5)
    set_workers(monkeypatch, workers)
    started = []
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self))
    assert np.array_equal(estimate_psd(trace, 256, 0.5).power, expected)
    assert not started


# parts of code_histogram split at multiples of 2**16 samples: this
# trace makes three, and many of quantize's 2**13-sample chunks
N_CODED = 3 * 2 * _PART_QUANTUM + 77


def coded_samples(adc):
    """Samples over the whole code range and past it, +-inf included."""
    x = 1.3 * adc.range * gaussian_stream(adc.bits, N_CODED)
    x[[5, 2 * _PART_QUANTUM + 1]] = np.inf
    x[[6, N_CODED - 2]] = -np.inf
    return x


def serial_codes(x, adc):
    """The ADC's formula on the whole trace at once."""
    codes = np.clip(np.ceil(x / adc.delta - 0.5), adc.code_min, adc.code_max)
    return codes.astype(np.int16)


@pytest.mark.parametrize("bits", [2, 8, 12, 16])
def test_quantize_and_code_histogram_at_every_worker_count(monkeypatch,
                                                           bits):
    adc = AdcSpec(bits=bits)
    x = coded_samples(adc)
    codes = serial_codes(x, adc)
    assert codes.min() == adc.code_min and codes.max() == adc.code_max
    counts = np.bincount(codes.astype(np.int64) - adc.code_min,
                         minlength=adc.n_codes)
    trace = AnalogTrace(x, TAU_S, "measured")
    # parts of one chunk each, where a trace this short is one part
    monkeypatch.setattr(entropy, "_HISTOGRAM_PART", _HISTOGRAM_CHUNK)
    for q, hist in per_worker_count(monkeypatch, lambda: (
            quantize(trace, adc),
            code_histogram(QuantizedTrace(codes, adc, TAU_S)))):
        assert q.codes.dtype == np.int16
        assert q.codes.tobytes() == codes.tobytes()
        assert np.array_equal(hist, counts)


def test_code_histogram_of_2_20_codes_starts_no_thread(monkeypatch):
    # bitgen's trace length; a second worker was no faster there
    set_workers(monkeypatch, 2)
    adc = AdcSpec(bits=8)
    codes = np.random.default_rng(14).integers(
        adc.code_min, adc.code_max + 1, 2**20).astype(np.int16)
    started = []
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self))
    hist = code_histogram(QuantizedTrace(codes, adc, TAU_S))
    assert not started
    assert np.array_equal(hist, np.bincount(codes + 128, minlength=256))


# a NaN in one chunk, and one in the first, a middle and the last
@pytest.mark.parametrize("nan_at", [[2 * _PART_QUANTUM + 3],
                                    [0, 2 * _PART_QUANTUM, N_CODED - 1]])
def test_quantize_nan_raises_one_error_at_every_worker_count(monkeypatch,
                                                             nan_at):
    adc = AdcSpec(bits=8)
    x = coded_samples(adc)
    x[nan_at] = np.nan
    trace = AnalogTrace(x, TAU_S, "measured")
    for n in WORKER_COUNTS:
        set_workers(monkeypatch, n)
        with pytest.raises(InvalidParameterError) as info:
            quantize(trace, adc)
        assert str(info.value) == "a sample is NaN; it has no ADC code"


def test_evaluate_point_is_the_same_at_every_worker_count(monkeypatch):
    sim = SimSettings(n_samples=2**18, nfft=1024, seed=12)
    points = per_worker_count(monkeypatch, lambda: evaluate_point(
        40e6, 4.5e-9, base_params(), sim).to_dict())
    assert points[1] == points[0] and points[2] == points[0]


def random_codes(adc_bits, n_in, n_blocks, seed, stride=1):
    """Codes holding n_blocks whole blocks and a partial one, with both
    end codes first and last; with a stride, a strided view of the
    codes."""
    rng = np.random.default_rng(seed)
    adc = AdcSpec(bits=adc_bits)
    n_codes = -(-(n_blocks * n_in + 1) // adc_bits)
    codes = rng.integers(adc.code_min, adc.code_max + 1,
                         n_codes * stride).astype(np.int16)[::stride]
    codes[[0, 1, -2, -1]] = [adc.code_min, adc.code_max, adc.code_max,
                             adc.code_min]
    trace = QuantizedTrace(codes, adc, TAU_S)
    assert trace.codes.strides == (2 * stride,)
    return trace


def random_spec(n_in, n_out, seed):
    rng = np.random.default_rng(seed)
    return ToeplitzSpec(n_in, n_out, rng.integers(0, 2, n_in + n_out - 1))


def dense_extract(codes, spec):
    """extract_stream's bits by the dense matrix product, block by block."""
    bits = codes_to_bits(codes.codes, codes.adc.bits)
    n_blocks = bits.size // spec.input_bits
    blocks = bits[:n_blocks * spec.input_bits].reshape(n_blocks, -1)
    return dense_product(spec, blocks).reshape(-1)


def part_quantum(spec, workers):
    """Blocks per batch of one part at full batches, in the kernel that
    runs: the table's rows, or rows * lanes of the FFT."""
    if spec._fft_length <= _TABLE_MAX_LENGTH:
        return max(_TABLE_BYTES // -(-spec.output_bits // 8), 1)
    rows = max(_BATCH_SAMPLES // spec._fft_length, 1)
    return -(-rows // workers) * spec._lanes


def check_extract_stream(monkeypatch, workers, codes, spec):
    expected = dense_extract(codes, spec)
    set_workers(monkeypatch, workers)
    assert np.array_equal(extract_stream(codes, spec), expected)


# 1 and 2 blocks are fewer than the parts at 2 and 3 workers; q blocks
# fill every row of one part's batch
@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("q_times,plus", [
    (0, 1), (0, 2), (1, -1), (1, 0), (1, 1), (2, 1)])
def test_extract_stream_matches_dense_product_at_every_worker_count(
        monkeypatch, workers, q_times, plus):
    spec = random_spec(2048, 1800, 21)
    n_blocks = q_times * part_quantum(spec, workers) + plus
    check_extract_stream(monkeypatch, workers,
                         random_codes(8, 2048, n_blocks, 22), spec)


# each call makes one part per worker; at 16384 -> 100 (the FFT kernel)
# each part also runs several batches. 8- and 16-bit codes hash their
# code bytes when n_in is a multiple of 8 (2048, 2056: a 16-bit code
# straddles two blocks) and their bits otherwise (2047)
@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("adc_bits,n_in,n_out,n_blocks", [
    (6, 100, 60, 1001),
    (12, 2047, 1000, 301),
    (16, 33, 33, 2000),
    (16, 16384, 100, 61),
    (8, 2048, 1800, 301),
    (8, 2056, 1000, 301),
    (8, 2047, 1000, 301),
    (16, 2048, 1800, 301),
    (16, 2056, 1000, 301),
    (16, 2047, 1000, 301),
])
@pytest.mark.parametrize("stride", [1, 3])
def test_extract_stream_geometries_at_every_worker_count(
        monkeypatch, workers, adc_bits, n_in, n_out, n_blocks, stride):
    spec = random_spec(n_in, n_out, n_in)
    check_extract_stream(
        monkeypatch, workers,
        random_codes(adc_bits, n_in, n_blocks, n_out, stride), spec)


# batches of 3 blocks of 8 packed output bytes give each part of the
# table kernel many batches
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_table_batches_at_every_worker_count(monkeypatch, workers):
    monkeypatch.setattr(extractor, "_TABLE_BYTES", 3 * 8)
    spec = random_spec(100, 60, 23)
    check_extract_stream(monkeypatch, workers, random_codes(6, 100, 1001, 24),
                         spec)


def record_table_parts(monkeypatch):
    """The block count of each part the table kernel runs."""
    counts = []
    part = extractor._table_part
    monkeypatch.setattr(extractor, "_table_part", lambda packed, *args: (
        counts.append(len(packed)), part(packed, *args)))
    return counts


def test_table_parts_are_near_equal(monkeypatch):
    # 4096 blocks are two batches of 2330 at 2048 -> 1800
    set_workers(monkeypatch, 2)
    counts = record_table_parts(monkeypatch)
    spec = random_spec(2048, 1800, 10)
    codes = random_codes(8, 2048, 4096, 11)
    assert np.array_equal(extract_stream(codes, spec),
                          dense_extract(codes, spec))
    assert counts == [2048, 2048]


def test_extract_stream_of_one_table_batch_starts_no_thread(monkeypatch):
    set_workers(monkeypatch, 3)
    spec = random_spec(2048, 1800, 12)
    n_blocks = part_quantum(spec, 3)
    codes = random_codes(8, 2048, n_blocks, 13)
    extract_block(np.zeros(2048, dtype=np.uint8), spec)  # fills the caches
    counts = record_table_parts(monkeypatch)
    started = []
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self))
    bits = extract_stream(codes, spec).reshape(n_blocks, -1)
    assert not started
    assert counts == [n_blocks]
    blocks = codes_to_bits(codes.codes, 8)[:n_blocks * 2048].reshape(
        n_blocks, -1)
    ends = [0, n_blocks - 1]
    assert np.array_equal(bits[ends], dense_product(spec, blocks[ends]))


def test_extract_stream_peak_memory_does_not_grow_with_parts(monkeypatch):
    # a part that allocated its own working arrays would add a serial
    # batch's worth of them per part
    spec = random_spec(2048, 1800, 5)
    codes = random_codes(8, 2048, 4096, 6)
    extract_block(np.zeros(2048, dtype=np.uint8), spec)  # fills the caches
    peaks = []
    for n in WORKER_COUNTS:
        set_workers(monkeypatch, n)
        tracemalloc.start()
        try:
            extract_stream(codes, spec)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks[1:]) <= 1.05 * peaks[0], peaks


def test_extract_block_starts_no_thread(monkeypatch):
    set_workers(monkeypatch, 3)
    spec = random_spec(2048, 1800, 7)
    block = np.random.default_rng(8).integers(0, 2, 2048).astype(np.uint8)
    started = []
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self))
    bits = extract_block(block, spec)
    assert not started
    assert np.array_equal(bits, dense_product(spec, block))


@pytest.fixture(scope="module")
def pipeline():
    spec = importlib.util.spec_from_file_location("perfbench_pipeline",
                                                  PIPELINE)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class builds
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("workload", ["sweep", "bitgen"])
def test_benchmark_op_digest_is_the_same_at_every_worker_count(
        monkeypatch, pipeline, workload):
    cls = pipeline.WORKLOADS[workload]
    seed = pipeline.DEFAULT_SEED
    digests = per_worker_count(monkeypatch,
                               lambda: cls.digest(cls(seed).op(0)[1]))
    assert digests[1] == digests[0] and digests[2] == digests[0]
    if pipeline.platform_key() == pipeline.PINNED_PLATFORM:
        assert digests[0] == pipeline.PINNED_DIGESTS[workload]


def run_concurrently(calls):
    """Every call on its own thread at once, with short switch intervals."""
    got = [None] * len(calls)

    def call(i):
        got[i] = calls[i]()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call, args=(i,))
                   for i in range(len(calls))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return got


# more workers than cores, callers on several threads at once, and short
# switch intervals: a part written to the wrong slice, or to another
# caller's array, changes the bytes
def test_concurrent_callers_draw_their_own_bytes(monkeypatch):
    n = 3 * B + 7
    expected = [gaussian_stream(seed, n) for seed in range(6)]
    set_workers(monkeypatch, 3)
    got = run_concurrently([lambda seed=seed: gaussian_stream(seed, n)
                            for seed in range(6)])
    for g, e in zip(got, expected):
        assert np.array_equal(g, e)


def test_concurrent_callers_extract_their_own_bits(monkeypatch):
    spec = random_spec(2048, 1800, 9)
    traces = [random_codes(8, 2048, 40 + 7 * i, i) for i in range(6)]
    expected = [dense_extract(codes, spec) for codes in traces]
    set_workers(monkeypatch, 3)
    got = run_concurrently([lambda codes=codes: extract_stream(codes, spec)
                            for codes in traces])
    for g, e in zip(got, expected):
        assert np.array_equal(g, e)


@pytest.mark.parametrize("failing", [0, 1], ids=["first-part", "worker-part"])
def test_a_part_error_reaches_the_caller_after_every_part(monkeypatch,
                                                          failing):
    # the raising part waits until the other has started, and the other
    # then sleeps: its mark is set only if the call joined it
    set_workers(monkeypatch, 2)
    started, finished = threading.Event(), threading.Event()
    threads = threading.active_count()

    def part(a, b):
        if a == failing:
            assert started.wait(timeout=60)
            raise ValueError(f"part {a}")
        started.set()
        time.sleep(0.2)
        finished.set()

    with pytest.raises(ValueError, match=f"^part {failing}$"):
        _parallel.run(part, _parallel.split(2, 1))
    assert finished.is_set()
    assert threading.active_count() == threads


def run_python(code: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], capture_output=True,
        text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_and_one_part_calls_start_no_thread():
    out = run_python("""
        import threading
        import lpnqrng
        from lpnqrng import _parallel, simulate, spectral
        _parallel.workers = lambda: 2
        counts = [threading.active_count()]
        lpnqrng.gaussian_stream(1, 2**15)
        path = simulate.sample_phase_path(9.5e6, 1e-10, 2**15 + 1, 1)
        q = simulate.quantum_noise(path, 25, 0.5)
        spectral.estimate_psd(q, nfft=512)  # 126 segments: one block
        counts.append(threading.active_count())
        lpnqrng.gaussian_stream(1, 2**15 + 1)
        counts.append(threading.active_count())
        print(counts)
    """)
    assert out == "[1, 1, 1]"  # no thread outlives a two-part call


def test_call_from_a_worker_thread_draws_the_same_bytes():
    # a split inside a running part starts threads of its own; one that
    # waited on its caller's threads would hang until the timeout
    out = run_python("""
        import threading
        import numpy as np
        from lpnqrng import _parallel, gaussian_stream
        _parallel.workers = lambda: 2
        want = gaussian_stream(3, 5 * 2**15)
        got = {}

        def part(a, b):
            if a == 1:  # part [1, 2), on a thread the call started
                got[threading.current_thread().name] = gaussian_stream(
                    3, 5 * 2**15)

        _parallel.run(part, _parallel.split(2, 1))
        [(name, z)] = got.items()
        print(name != threading.main_thread().name, np.array_equal(z, want),
              threading.active_count())
    """)
    assert out == "True True 1"


def _child_stream(conn):
    conn.send_bytes(gaussian_stream(3, 5 * B).tobytes())
    conn.close()


# forking a process that has threads warns on newer Pythons, and the
# suite makes warnings errors: a thread left by the parent's call fails
def test_forked_child_draws_the_parents_bytes(monkeypatch):
    set_workers(monkeypatch, 2)
    want = gaussian_stream(3, 5 * B)  # a two-part call, joined
    ctx = multiprocessing.get_context("fork")
    parent, child = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child_stream, args=(child,))
    proc.start()
    child.close()
    try:
        assert parent.poll(60), "the forked child sent nothing"
        got = np.frombuffer(parent.recv_bytes(), dtype=np.float64)
        proc.join(timeout=60)
        assert not proc.is_alive() and proc.exitcode == 0
    finally:
        if proc.is_alive():  # hung: do not leave it for the exit-time join
            proc.kill()
            proc.join(timeout=60)
        parent.close()
    assert np.array_equal(got, want)
