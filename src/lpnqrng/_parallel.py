"""Independent parts of one computation, run at once on threads of the call.

A call splits its range into at most one part per CPU the process may
run on. The calling thread runs the first part and one thread started
by the call runs each other part. The call joins every thread before it
returns, even when a part raised, and then re-raises the first error in
part order. So no thread outlives a call: importing the package starts
none, a forked child inherits none, and a call from inside a part starts
threads of its own. Parts call only private helpers, so every public
function of the package is entered on the calling thread alone.

There is one protocol: a caller takes the ranges from ``split`` and
runs its parts with ``run``, as ``run(part, split(n, quantum))``. A
caller that hands each part buffers of its own passes the part's index
with its range.

A stage threads only where a second worker measured faster inside the
op that runs it. Median ms at one worker against two on a 2-core x86-64
machine, the stages alternated call by call:

    stage                                   size           1      2
    gaussian_stream                         2**22        149     97
    interference inside evaluate_point      2**22      48-58  31-32
    interference (quantum_noise)            2**23     106-118 69-81
    estimate_psd, nfft 8192                 2**23        196    111
    code_histogram inside lab_trace's op    2**23       19.2   14.2
    Toeplitz FFT kernel, 65536 -> 60000     2**20 codes 197-211 112-133
    extract_stream inside bitgen's op,      2**20 codes 34-35  22-23
    2048 -> 1800 (extractor module doc)

``code_histogram`` splits its codes only above 2**22 of them
(``entropy._HISTOGRAM_PART``): inside lab_trace's op (2**23 codes) two
workers won 8 of 8 alternated ops, but inside bitgen's op (2**20) they
won 16 of 30 and 13 of 20, with medians of 2.25 against 2.44 and 2.93
against 2.69 ms at one and two workers, so one thread counts those.

The FFT row times ``_fft_hash`` on the packed bytes of 2**20 8-bit
codes, three runs of 15 alternated calls; two workers were faster in
10, 15 and 15 of them.

The interference rows were measured with 2**15-sample chunks
(``simulate._CHUNK``), in two runs of 15 and 30 alternated calls; two
workers were faster in every call.

``quantize`` runs on the calling thread. With 2**13-sample chunks its
parts took 68.1 ms at two workers against 42.8 at one for 2**23
samples, slower in 12 of 12 calls. With 2**15-sample chunks they took
25.9 ms against 25.3 (30 alternated calls, two workers slower in 13)
and 28.3 against 28.8 (15 calls, slower in 8): no faster, so a second
thread is not worth its code.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def workers() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def split(n: int, quantum: int) -> list[tuple[int, int]]:
    """At most ``workers()`` near-equal ranges [a, b) that cover
    range(n), every inner bound a multiple of ``quantum``."""
    units = -(-n // quantum)
    count = max(1, min(workers(), units))
    bounds = [min(n, units * p // count * quantum) for p in range(count + 1)]
    return list(zip(bounds, bounds[1:]))


def run(part, calls: list[tuple]) -> None:
    """``part(*args)`` for every ``args`` of ``calls``, all at once."""
    first, *rest = calls
    # the pool starts at most one thread per submitted part, and leaving
    # the block joins them all, also when the first part raised
    with ThreadPoolExecutor(len(calls)) as pool:
        futures = [pool.submit(part, *args) for args in rest]
        part(*first)
    for f in futures:
        f.result()
