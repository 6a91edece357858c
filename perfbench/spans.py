"""In-memory spans and counters around calls into the lpnqrng layers.

The package itself carries no instrumentation, so the benchmark wraps
the public functions at every ``lpnqrng`` module attribute that holds
them (``optimizer.estimate_psd``, ``simulate.gaussian_stream``, ...):
a call made through any of those names records one span. Spans nest,
so a layer's self time is its span duration minus its children's.
Wrappers are installed only for the traced run and removed afterwards.
"""
from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    parent: int | None
    op: int
    start: float
    end: float = 0.0
    error: bool = False


def _file_bytes(path) -> int:
    # a trace file plus its JSON sidecar
    return os.path.getsize(path) + os.path.getsize(f"{path}.meta.json")


def _count_extract(counts, out, args):
    spec = args["spec"]
    blocks = out.size // spec.output_bits
    counts["extractor.blocks"] += blocks
    counts["extractor.output_bits"] += out.size
    # computed, not observed: one AND+popcount per output bit and input word
    counts["extractor.kernel_word_ops"] += (
        blocks * spec.output_bits * math.ceil(spec.input_bits / 64))


def _count_bytes(key):
    def count(counts, out, args):
        counts[key] += _file_bytes(args["path"])
    return count


#: (module, function, span name, counter). The span name is the layer
#: followed by the metric stem; several functions may share one stem.
TRACED = (
    ("rng", "gaussian_stream", "rng.gaussian_stream",
     lambda c, out, a: c.update({"rng.variates": len(out)})),
    ("rng", "bit_stream", "rng.bit_stream", None),
    ("simulate", "sample_phase_path", "simulate.sample_phase_path",
     lambda c, out, a: c.update({"simulate.samples": len(out)})),
    ("simulate", "quantum_noise", "simulate.quantum_noise", None),
    ("simulate", "add_electronic_noise", "simulate.add_electronic_noise", None),
    ("simulate", "quantize", "simulate.quantize", None),
    ("spectral", "estimate_psd", "spectral.estimate_psd",
     lambda c, out, a: c.update({"spectral.segments": out.n_segments})),
    ("spectral", "bandwidth_3db", "spectral.bandwidth_3db",
     lambda c, out, a: c.update({"spectral.saturated": int(out.saturated)})),
    ("entropy", "analytic_min_entropy", "entropy.analytic_min_entropy", None),
    ("entropy", "empirical_min_entropy", "entropy.empirical_min_entropy",
     lambda c, out, a: c.update({"entropy.codes": len(a["qt"])})),
    ("optimizer", "evaluate_point", "optimizer.evaluate_point", None),
    ("extractor", "codes_to_bits", "extractor.codes_to_bits", None),
    ("extractor", "pack_bits_to_words", "extractor.pack_bits_to_words", None),
    ("extractor", "extract_stream", "extractor.extract_stream", _count_extract),
    ("extractor", "monobit_test", "extractor.sanity", None),
    ("extractor", "runs_test", "extractor.sanity", None),
    ("traceio", "write_analog_trace", "traceio.write",
     _count_bytes("traceio.bytes_written")),
    ("traceio", "write_quantized_trace", "traceio.write",
     _count_bytes("traceio.bytes_written")),
    ("traceio", "read_analog_trace", "traceio.read",
     _count_bytes("traceio.bytes_read")),
    ("traceio", "read_quantized_trace", "traceio.read",
     _count_bytes("traceio.bytes_read")),
)

LAYERS = ("rng", "simulate", "spectral", "entropy", "optimizer", "extractor",
          "traceio")
STEMS = tuple(dict.fromkeys(stem for _, _, stem, _ in TRACED))
COUNTERS = ("rng.variates", "simulate.samples", "spectral.segments",
            "spectral.saturated", "entropy.codes", "extractor.blocks",
            "extractor.output_bits", "extractor.kernel_word_ops",
            "traceio.bytes_written", "traceio.bytes_read")


class Tracer:
    """Records spans and counters while installed and recording."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op = -1
        self.recording = True
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.recording:
            yield
            return
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, parent, self.op, time.perf_counter()))
        self._open.append(idx)
        try:
            yield
        except BaseException:
            self.spans[idx].error = True
            raise
        finally:
            self._open.pop()
            self.spans[idx].end = time.perf_counter()

    @contextmanager
    def paused(self):
        """Run correctness checks without recording their calls."""
        was, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = was

    def self_times(self, op: int | None = None) -> Counter:
        """Total self time per span name, over all spans or one op's."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: Counter = Counter()
        for s, c in zip(self.spans, child):
            if op is None or s.op == op:
                out[s.name] += (s.end - s.start) - c
        return out

    def calls(self, name: str) -> tuple[int, int]:
        """Number of spans named ``name`` and how many of them raised."""
        spans = [s for s in self.spans if s.name == name]
        return len(spans), sum(s.error for s in spans)

    def _wrap(self, fn, stem, count):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            with self.span(stem):
                out = fn(*args, **kwargs)
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self.counts, out, bound.arguments)
            return out
        return traced

    @contextmanager
    def installed(self):
        """Wrap every lpnqrng module attribute that holds a traced function."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "lpnqrng" or name.startswith("lpnqrng.")]
        patched = []
        for mod_name, fn_name, stem, count in TRACED:
            fn = getattr(sys.modules[f"lpnqrng.{mod_name}"], fn_name)
            wrapper = self._wrap(fn, stem, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        patched.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, fn in reversed(patched):
                setattr(mod, attr, fn)
