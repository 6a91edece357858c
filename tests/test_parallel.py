"""The threaded layers give the same bytes whatever the worker count.

``gaussian_stream``, ``quantum_noise`` and ``estimate_psd`` split their
work into one part per CPU the process may run on (``_parallel``). Each
test here sets the worker count to 1, 2 and 3 and compares every result
with an independent serial oracle or with the one-worker result.
"""
import importlib.util
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy import signal
from scipy.special import ndtri

from lpnqrng import (AdcSpec, SimSettings, _parallel, estimate_psd,
                     evaluate_point, gaussian_stream, quantum_noise,
                     sample_phase_path)
from lpnqrng.rng import _GAUSS_BLOCK, raw_stream
from lpnqrng.simulate import AnalogTrace, PhasePath

from conftest import TAU_S, base_params

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


@pytest.mark.parametrize("n_samples", [1001, 2 * B + 1, 3 * B + 7])
@pytest.mark.parametrize("k", [1, 25])
def test_quantum_noise_matches_formula_at_every_worker_count(monkeypatch,
                                                            n_samples, k):
    theta = sample_phase_path(9.5e6, TAU_S, n_samples, seed=4).samples
    amplitude = AdcSpec().default_amplitude()
    expected = np.sin(theta[k:] - theta[:-k]) * amplitude
    path = PhasePath(theta, TAU_S)
    for q in per_worker_count(monkeypatch,
                              lambda: quantum_noise(path, k, amplitude)):
        assert np.array_equal(q.samples, expected)


# at nfft 4096 a block is 32 segments, so a full leaf of 128 splits
# into two or three parts; two half-overlapped segments are too short
# a trace, so 2 runs at overlap 0
@pytest.mark.parametrize("n_segments,overlap", [(2, 0.0)] + [
    (n, overlap) for n in (127, 128, 129, 257, 1023) for overlap in (0.0, 0.5)])
def test_estimate_psd_matches_welch_at_every_worker_count(monkeypatch,
                                                          n_segments, overlap):
    nfft = 4096
    noverlap = int(overlap * nfft)
    step = nfft - noverlap
    n = noverlap + n_segments * step + step // 3
    x = 0.3 * gaussian_stream(n_segments, n) + 0.05
    trace = AnalogTrace(x, TAU_S, "measured")
    _, expected = signal.welch(
        x - x.mean(), 1 / TAU_S, "hann", nperseg=nfft, noverlap=noverlap,
        nfft=nfft, detrend=False, return_onesided=True, scaling="density")
    for psd in per_worker_count(monkeypatch,
                                lambda: estimate_psd(trace, nfft, overlap)):
        assert psd.n_segments == n_segments
        assert np.array_equal(psd.power, expected)


@pytest.mark.parametrize("method", ["analytic", "empirical"])
def test_evaluate_point_is_the_same_at_every_worker_count(monkeypatch, method):
    sim = SimSettings(n_samples=2**18, nfft=1024, entropy_method=method,
                      seed=12)
    points = per_worker_count(monkeypatch, lambda: evaluate_point(
        40e6, 4.5e-9, base_params(), sim).to_dict())
    assert points[1] == points[0] and points[2] == points[0]


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


def test_concurrent_callers_share_the_pool(monkeypatch):
    # more workers than cores, callers on several threads at once, and
    # short switch intervals: a lost update to the lazily created pool
    # or a part written to the wrong slice changes the bytes
    n = 3 * B + 7
    expected = [gaussian_stream(seed, n) for seed in range(6)]
    set_workers(monkeypatch, 3)
    got = [None] * len(expected)

    def call(i):
        got[i] = gaussian_stream(i, n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call, args=(i,))
                   for i in range(len(expected))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for g, e in zip(got, expected):
        assert np.array_equal(g, e)


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
    assert out == "[1, 1, 2]"


def test_call_from_a_pool_thread_runs_inline():
    # with two workers the pool has one thread; a nested split would
    # wait on a part queued behind the task waiting for it
    out = run_python("""
        import numpy as np
        from lpnqrng import _parallel, gaussian_stream
        _parallel.workers = lambda: 2
        want = gaussian_stream(3, 5 * 2**15)
        got = _parallel._executor().submit(gaussian_stream, 3,
                                           5 * 2**15).result(timeout=60)
        print(np.array_equal(got, want))
    """)
    assert out == "True"


def _child_stream(conn):
    conn.send_bytes(gaussian_stream(3, 5 * B).tobytes())
    conn.close()


# forking a process that has threads warns on newer Pythons; the child
# here runs only this package's code, whose pool the fork hook drops
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded")
def test_forked_child_draws_the_parents_bytes(monkeypatch):
    set_workers(monkeypatch, 2)
    want = gaussian_stream(3, 5 * B)  # the parent's pool now exists
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
