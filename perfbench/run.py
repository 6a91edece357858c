#!/usr/bin/env python3
"""Pipeline benchmark for lpnqrng: one workload, one process, one caller.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Workloads (see pipeline.py): ``sweep`` (evaluate_point over a 5x5
design grid), ``bitgen`` (simulate -> quantize -> Toeplitz extraction)
and ``lab_trace`` (one 2**23-sample trace simulated, stored, reloaded
and analyzed). Operations run back to back in a closed loop until
``--seconds`` of operation time have been measured; every repeat must
reproduce its first result bit for bit, and the correctness oracles run
outside the timed region.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the
loop once untraced and once with spans around every call into the
package, and reports per-layer self times and counters per operation.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record (environment,
digests, every check, latencies, spans) goes to
``perfbench/results/<workload>-seed<seed>-trace<t>.json``. The exit
code is 1 when any oracle or digest check fails.

The package is imported from ``src/`` of the checkout this file sits
in; nothing is installed or built.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
WORKLOADS = ("sweep", "bitgen", "lab_trace")

#: fresh interpreters timed before and again after the loop for setup_s;
#: the median of all of them is reported. Spreading them over the run
#: samples more than one phase of the machine's background load.
SETUP_PROBES = 3
#: the GF(2) backend the bounds in BENCHMARK.json were measured with;
#: bitgen runs about 6x apart between the two backends
REFERENCE_BACKEND = "numpy"

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1, help="workload seed")
    p.add_argument("--seconds", type=float, default=15.0,
                   help="operation time to measure per loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    """Import lpnqrng from this checkout's src/, never from elsewhere."""
    pkg = SRC / "lpnqrng"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no lpnqrng sources at {pkg}")
    sys.path.insert(0, str(SRC))
    import lpnqrng
    if Path(lpnqrng.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"perfbench: imported lpnqrng from {lpnqrng.__file__}, "
                         f"not {pkg}")
    return lpnqrng


def measure_setup(args) -> list[float]:
    """Wall time from spawning a fresh interpreter to its first timed call."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=120)
        samples.append(float(done.stdout.split()[-1]) - t0)
    return samples


def environment(lpnqrng, pipeline) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    backend = lpnqrng.GF2_BACKEND
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "gf2_backend": backend,
        # results measured with another GF(2) backend are not comparable
        "comparable": backend == REFERENCE_BACKEND,
        "platform_key": pipeline.platform_key(),
    }


@dataclass
class Loop:
    latencies: list[float] = field(default_factory=list)
    relative: list[float] = field(default_factory=list)
    items: int = 0
    busy: float = 0.0


class Run:
    """Closed loop over one workload plus the checks on its outputs."""

    def __init__(self, workload, tracer, ref) -> None:
        self.w = workload
        self.tracer = tracer
        self.ref = ref
        self.checks: list[tuple[str, bool]] = []
        self.digests: dict = {}
        self.errors: list[str] = []
        self.ops = 0

    def loop(self, seconds: float) -> Loop:
        """Run ops until ``seconds`` of op time have been measured.

        The reference work runs before the first op and after every op;
        each op's latency is also reported relative to the mean of the
        reference times on either side of it.
        """
        from lpnqrng import LpnError

        tr, res = self.tracer, Loop()
        ref_before = self.ref()
        while not res.busy or res.busy < seconds:
            tr.op = self.ops
            self.ops += 1
            t0 = time.perf_counter()
            try:
                with tr.span("bench.op"):
                    key, out, n_items = self.w.op(tr.op)
            except LpnError as exc:
                res.busy += time.perf_counter() - t0
                self.errors.append(f"op {tr.op}: {exc.code}: {exc}")
                ref_before = self.ref()
                continue
            dt = time.perf_counter() - t0
            ref_after = self.ref()
            res.busy += dt
            res.latencies.append(dt)
            res.relative.append(2.0 * dt / (ref_before + ref_after))
            res.items += n_items
            ref_before = ref_after
            with tr.paused():
                self._check(key, out)
            del out
        if not res.latencies:
            raise SystemExit(f"perfbench: every op failed, first: {self.errors[0]}")
        return res

    def _check(self, key, out) -> None:
        digest = self.w.digest(out)
        if key in self.digests:
            self.checks.append((f"{self.w.name}.repeat_identical",
                                digest == self.digests[key]))
        else:
            self.digests[key] = digest
            self.checks.extend(self.w.checks(key, out))

    def final_checks(self, pipeline) -> None:
        self.checks.extend(self.w.final_checks(self.digests))
        pin = pipeline.pinned_digest_check(type(self.w), self.w.seed,
                                           self.digests.get(0))
        if pin is not None:
            self.checks.append(pin)

    @property
    def failed(self) -> int:
        return len(self.errors) + sum(not ok for _, ok in self.checks)

    @property
    def attempted(self) -> int:
        return self.ops + len(self.checks)

    def run_digest(self) -> str:
        return hashlib.sha256(json.dumps(
            sorted(self.digests.items())).encode()).hexdigest()


def tail_percentile(latencies: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it."""
    n = len(latencies)
    if n <= 10:
        return None
    pct = math.floor(100 * (n - 10) / n)
    return pct, statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1]


def per_layer_metrics(tracer, spans, relative_untraced, relative_traced,
                      kernel) -> dict:
    """Per-op self times and counters, layer shares and trace overhead."""
    self_t = tracer.self_times()
    n_ops, _ = tracer.calls("bench.op")
    # the traced work: set-up plus every op, but not the checks between ops
    wall = sum(s.end - s.start for s in tracer.spans
               if s.name in ("bench.setup", "bench.op"))
    m = {}
    for stem in spans.STEMS:
        m[f"{stem}.self_s"] = (self_t[stem] / n_ops, "s/op")
    for name in spans.COUNTERS:
        unit = "B/op" if name.startswith("traceio.bytes") else "count/op"
        m[name] = (tracer.counts[name] / n_ops, unit)
    points, failed = tracer.calls("optimizer.evaluate_point")
    m["optimizer.points"] = (points, "count")
    m["optimizer.failed_points"] = (failed, "count")
    for layer in spans.LAYERS:
        busy = sum(self_t[s] for s in spans.STEMS if s.startswith(layer + "."))
        m[f"{layer}.share"] = (busy / wall, "ratio")
    glue = self_t["bench.setup"] + self_t["bench.op"]
    m["bench.share"] = (glue / wall, "ratio")
    m["trace.wall_s"] = (wall, "s")
    m["trace.ops"] = (n_ops, "count")
    m["trace_overhead_ratio"] = (
        statistics.median(relative_traced) / statistics.median(relative_untraced)
        - 1.0, "ratio")
    m["extractor.kernel_mbit_per_s"] = (kernel, "Mbit/s")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    lpnqrng = import_package()
    import pipeline
    import spans

    cls = pipeline.WORKLOADS[args.workload]
    if args.setup_probe:
        cls(args.seed)
        print(time.monotonic())
        return 0

    setup_samples = [] if args.trace else measure_setup(args)
    env = environment(lpnqrng, pipeline)
    quiet = spans.Tracer()
    quiet.recording = False
    run = Run(cls(args.seed), quiet, pipeline.Reference(*cls.REFERENCE))
    res = run.loop(args.seconds)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "latencies_s": res.latencies, "relative": res.relative}
    named = {}
    if args.trace:
        tracer = spans.Tracer()
        with tracer.installed():
            with tracer.span("bench.setup"):
                run.w = cls(args.seed)
            run.tracer = tracer
            traced = run.loop(args.seconds)
        kernel = 0.0
        if args.workload == "bitgen":
            kernel, ok = pipeline.kernel_only(spans.Tracer())
            run.checks.append(("extractor.kernel_only_dense_oracle", ok))
        metrics = per_layer_metrics(tracer, spans, res.relative,
                                    traced.relative, kernel)
        record["traced_latencies_s"] = traced.latencies
        record["spans"] = [vars(s) for s in tracer.spans]
    else:
        setup_samples += measure_setup(args)
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "latency_rel_p50": (statistics.median(res.relative), "ref"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
        }
        # wall-clock figures drift with other tenants' load, so they are
        # printed and recorded but not gated (see README.md)
        name, scale, unit = cls.THROUGHPUT
        named[name] = (res.items / res.busy * scale, unit)
        named["latency_ms_p50"] = (statistics.median(res.latencies) * 1e3, "ms")
        if args.workload == "sweep":
            named["point_latency_ms_p50"] = named["latency_ms_p50"]
        record["setup_samples_s"] = setup_samples

    run.final_checks(pipeline)
    named["failed_ops_ratio"] = (run.failed / run.attempted, "ratio")
    record.update(metrics={k: v[0] for k, v in metrics.items()},
                  named={k: v[0] for k, v in named.items()},
                  checks=run.checks, errors=run.errors,
                  digests=run.digests, run_digest=run.run_digest())

    print(f"env {json.dumps(env)}")
    for name, (value, unit) in {**metrics, **named}.items():
        print(f"{name} {value:.6g} {unit}")
    tail = tail_percentile(res.latencies)
    print(f"op latency n={len(res.latencies)} "
          f"p50={statistics.median(res.latencies) * 1e3:.1f} ms"
          + (f" p{tail[0]}={tail[1] * 1e3:.1f} ms" if tail else ""))
    print(f"checks {len(run.checks)}, ops {run.ops}, failed {run.failed}")
    for name, ok in run.checks:
        if not ok:
            print(f"FAILED {name}")
    for err in run.errors:
        print(f"FAILED {err}")
    print(f"run digest {record['run_digest']}")
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    correct = run.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
