"""Batch command-line front end.

Subcommands: simulate, psd, entropy, sweep, extract, invert-variance.
Each registers only the flags it reads, and a command that takes
--config reads exactly the config keys it has flags for, resolved in
one place (defaults, then --config JSON, then flags).
Commands compute and main reports: a command returns the body of its
report, and main times it, writes report.json and prints it. Every
report echoes the resolved configuration, and all stream seeds derive
from one master seed, so re-running a report's configuration
reproduces the primary outputs byte for byte.

Exit codes: 0 success, 2 validation error, 3 I/O error or out of memory,
4 domain error (model-inconsistent inputs such as an out-of-range variance).
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import __version__
from .entropy import (
    analytic_min_entropy,
    code_histogram,
    empirical_min_entropy,
    invert_variance,
    phase_variance,
    quantum_variance_from_measurement,
)
from .errors import (
    AllPointsFailedError,
    AmbiguousInputError,
    InvalidParameterError,
    LpnError,
    TraceTooShortError,
)
from .extractor import (
    GF2_BACKEND,
    ToeplitzSpec,
    extract_stream,
    monobit_test,
    output_bits_for,
    pack_bits_to_bytes,
    runs_test,
    unpack_bytes_to_bits,
)
from .optimizer import SimSettings, SweepGrid, sweep
from .params import (DEFAULT_MASTER_SEED, DEFAULT_N_SAMPLES, AdcSpec,
                     SystemParams, as_float, as_int, check_amplitude,
                     check_count, check_h_min, check_seed, check_spectral,
                     one_of)
from .rng import (
    STREAM_ELECTRONIC,
    STREAM_PHASE,
    STREAM_TOEPLITZ,
    bit_stream,
    derive_seed,
)
from .simulate import (
    LABELS,
    TWO_PI,
    _quantum_trace,
    add_electronic_noise,
    quantize,
)
from .spectral import (
    DEFAULT_NFFT,
    DEFAULT_OVERLAP,
    DEFAULT_PLATEAU_BINS,
    bandwidth_3db,
    estimate_psd,
)
from .traceio import (
    read_analog_trace,
    read_quantized_trace,
    write_analog_trace,
    write_quantized_trace,
)

# ---------------------------------------------------------------- config

#: Every config key a command can read, by dotted path: the flag that
#: overrides it (its argparse dest is the path), the type its value is
#: read as, its default, and the flag's help. A system or sweep key has
#: no default here: SystemParams and AdcSpec own those.
_KEYS = {
    "system.linewidth_hz": ("--linewidth-hz", float, None,
                            "laser linewidth (Hz)"),
    "system.delay_s": ("--delay-s", float, None, "interferometer delay (s)"),
    "system.amplitude": ("--amplitude", float, None, "signal peak (V)"),
    "system.sigma_ele": ("--sigma-ele", float, None,
                         "electronic noise std (V)"),
    "system.sample_period_s": ("--sample-period-s", float, None,
                               "sampling period (s)"),
    "system.adc.bits": ("--adc-bits", int, None, "ADC resolution (bits)"),
    "system.adc.range": ("--adc-range", float, None, "ADC range (V)"),
    "sim.n_samples": ("--n-samples", int, DEFAULT_N_SAMPLES,
                      "phase path length"),
    "sim.master_seed": ("--seed", int, DEFAULT_MASTER_SEED,
                        "master seed (64-bit)"),
    "spectral.nfft": ("--nfft", int, DEFAULT_NFFT, "Welch segment length"),
    "spectral.overlap_fraction": ("--overlap", float, DEFAULT_OVERLAP,
                                  "segment overlap fraction"),
    "spectral.plateau_bins": ("--plateau-bins", int, DEFAULT_PLATEAU_BINS,
                              "bins averaged for the plateau reference"),
    "sweep.linewidths_hz": ("--linewidths-hz", list, None,
                            "grid linewidths (Hz)"),
    "sweep.delays_s": ("--delays-s", list, None, "grid delays (s)"),
    "quantize_source": ("--quantize-source", str, "quantum",
                        "trace fed to the ADC model: quantum (default) "
                        "or measured"),
}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"config file {p} does not exist")
    try:
        cfg = json.loads(p.read_text())
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, too deep
        raise InvalidParameterError(f"config {p} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InvalidParameterError(f"config {p} must hold a JSON object")
    return cfg


def _lookup(cfg: dict, path: str):
    *sections, key = path.split(".")
    node = cfg
    for depth, name in enumerate(sections, 1):
        node = node.get(name, {})
        if not isinstance(node, dict):
            raise InvalidParameterError(
                f"config section {'.'.join(sections[:depth])} must be a "
                f"JSON object, got {node!r}")
    return node.get(key)


def _coerce(path: str, value):
    kind = _KEYS[path][1]
    try:
        if kind in (str, list) and not isinstance(value, kind):
            raise TypeError
        if kind is list:
            return [as_float(v) for v in value]
        return {int: as_int, float: as_float, str: str}[kind](value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidParameterError(
            f"{path} must be {kind.__name__}, got {value!r}") from None


def _resolve(args: argparse.Namespace) -> dict:
    """The configuration of one command run.

    A command reads exactly the keys it has flags for, and no other.
    Each takes its default, then its --config value, then its flag if
    the user gave it. A JSON null counts as absent. Config values are
    coerced to the key's type (flags already are), even where a flag
    overrides them; a section that is not a JSON object, or a value of
    the wrong type, raises InvalidParameterError naming the key.
    """
    cfg = _load_config(args.config)
    conf: dict = {}
    for path, (_, _, default, _) in _KEYS.items():
        if not hasattr(args, path):
            continue
        value = _lookup(cfg, path)
        value = default if value is None else _coerce(path, value)
        if getattr(args, path) is not None:
            value = getattr(args, path)
        if value is None:
            continue
        *parents, key = path.split(".")
        node = conf
        for name in parents:
            node = node.setdefault(name, {})
        node[key] = value
    return conf


def _system(system: dict) -> SystemParams:
    if "linewidth_hz" not in system or "delay_s" not in system:
        raise InvalidParameterError(
            "linewidth_hz and delay_s are required (flags or config)")
    return SystemParams(**{**system, "adc": AdcSpec(**system.get("adc", {}))})


# ---------------------------------------------------------------- output

def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):  # 17 digits round-trip every float64
        return f"{value:.17g}"
    return str(value)


def _csv(header, rows) -> str:
    """CSV text: the header line, then one line per row."""
    return "".join(",".join(map(_cell, row)) + "\n" for row in [header, *rows])


# ------------------------------------------------------------- commands

def cmd_simulate(args: argparse.Namespace) -> dict:
    conf = _resolve(args)
    system = _system(conf.get("system", {}))
    n_samples, master_seed = conf["sim"]["n_samples"], conf["sim"]["master_seed"]
    check_seed("sim.master_seed", master_seed)
    quantize_source = one_of("quantize_source", conf["quantize_source"],
                             LABELS)

    phase_seed = derive_seed(master_seed, STREAM_PHASE)
    ele_seed = derive_seed(master_seed, STREAM_ELECTRONIC)
    q = _quantum_trace(system, n_samples, phase_seed)
    m = add_electronic_noise(q, system.sigma_ele, ele_seed)
    source = q if quantize_source == "quantum" else m
    codes = quantize(source, system.adc)

    out = _out_dir(args)
    q_path = out / "quantum.f64"
    m_path = out / "measured.f64"
    c_path = out / "codes.i16"
    write_analog_trace(q_path, q, system=system, seed=master_seed)
    write_analog_trace(m_path, m, system=system, seed=master_seed)
    write_quantized_trace(c_path, codes, system=system, seed=master_seed)

    return {
        "resolved_config": {**conf, "system": system.to_dict()},
        "seeds": {"master": master_seed, "phase": phase_seed,
                  "electronic": ele_seed},
        "results": {
            "delay_samples": system.delay_samples,
            "trace_samples": len(q),
            "files": {"quantum": str(q_path), "measured": str(m_path),
                      "codes": str(c_path)},
        },
        "summary": f"wrote {q_path} {m_path} {c_path} ({len(q)} samples)",
    }


def cmd_psd(args: argparse.Namespace) -> dict:
    spectral_cfg = _resolve(args)["spectral"]
    # the settings fail before the trace is read and Welch runs over it
    check_spectral(spectral_cfg["nfft"], spectral_cfg["overlap_fraction"],
                   spectral_cfg["plateau_bins"])
    trace, meta = read_analog_trace(args.trace)
    psd = estimate_psd(trace, spectral_cfg["nfft"],
                       spectral_cfg["overlap_fraction"])
    bw = bandwidth_3db(psd, spectral_cfg["plateau_bins"])
    csv_path = _out_dir(args) / "psd.csv"
    csv_path.write_text(_csv(["freq_hz", "power_v2_per_hz"],
                             zip(psd.freqs, psd.power)))
    return {
        "resolved_config": {"trace": str(args.trace), "spectral": spectral_cfg},
        "results": {
            "n_segments": psd.n_segments,
            "nyquist_hz": psd.nyquist_hz,
            "bandwidth": {"b_es_hz": bw.b_es_hz,
                          "reference_level": bw.reference_level,
                          "saturated": bw.saturated},
            "trace_label": meta.get("label"),
            "files": {"psd_csv": str(csv_path)},
        },
        "summary": f"b_es_hz={_cell(bw.b_es_hz)} saturated={bw.saturated}; "
                   f"csv {csv_path}",
    }


def cmd_entropy(args: argparse.Namespace) -> dict:
    system = _resolve(args).get("system", {})
    # a design point in the config is the default mode; only flags can clash
    design_flags = (getattr(args, "system.linewidth_hz") is not None
                    or getattr(args, "system.delay_s") is not None)
    if (args.codes is not None) + (args.sigma_q2 is not None) + design_flags > 1:
        raise AmbiguousInputError(
            "give exactly one of: --codes, --sigma-q2, or --linewidth-hz/--delay-s")
    if args.codes is not None and any(getattr(args, path) is not None
                                      for path in _ADC):
        raise AmbiguousInputError(
            "--codes reads the converter from the code trace; it takes no "
            "--amplitude, --adc-bits or --adc-range")
    if args.codes is None and args.histogram_csv is not None:
        raise AmbiguousInputError(
            "--histogram-csv counts the codes of --codes; no other mode has any")

    histogram = None
    if args.codes is not None:
        qt, meta = read_quantized_trace(args.codes)
        rep = empirical_min_entropy(qt)
        resolved = {"mode": "empirical", "codes": str(args.codes),
                    "adc": qt.adc.to_dict()}
        if args.histogram_csv is not None:
            counts = code_histogram(qt).tolist()
            Path(args.histogram_csv).write_text(_csv(
                ["code", "count", "frequency"],
                [(code, n, n / len(qt)) for code, n in
                 zip(range(qt.adc.code_min, qt.adc.code_max + 1), counts)]))
            histogram = str(args.histogram_csv)
    else:
        adc = AdcSpec(**system.get("adc", {}))
        amplitude = check_amplitude(system.get("amplitude"), adc)
        if args.sigma_q2 is not None:
            sigma2 = invert_variance(args.sigma_q2, amplitude)
            resolved = {"mode": "variance", "sigma_q2": args.sigma_q2}
        elif "linewidth_hz" in system and "delay_s" in system:
            sigma2 = phase_variance(system["linewidth_hz"], system["delay_s"])
            resolved = {"mode": "design", "linewidth_hz": system["linewidth_hz"],
                        "delay_s": system["delay_s"]}
        else:
            raise InvalidParameterError(
                "one input mode is required: --codes, --sigma-q2, "
                "or --linewidth-hz with --delay-s")
        resolved.update({"amplitude": amplitude, "adc": adc.to_dict()})
        rep = analytic_min_entropy(sigma2, amplitude, adc)

    results = {"p_c": rep.p_c, "p_r": rep.p_r, "p_max": rep.p_max,
               "h_min_bits": rep.h_min, "sigma2_rad2": rep.sigma2,
               "method": rep.method}
    if histogram:
        results["files"] = {"histogram_csv": histogram}
    return {"resolved_config": resolved, "results": results}


def cmd_sweep(args: argparse.Namespace) -> dict:
    conf = _resolve(args)
    sim, system, grids = conf["sim"], conf.get("system", {}), conf.get("sweep", {})
    check_seed("sim.master_seed", sim["master_seed"])
    if not grids.get("linewidths_hz") or not grids.get("delays_s"):
        raise InvalidParameterError(
            "sweep needs linewidths_hz and delays_s (flags or config)")
    grid = SweepGrid(
        **grids, **{**system, "adc": AdcSpec(**system.get("adc", {}))},
        sim=SimSettings(n_samples=sim["n_samples"], seed=sim["master_seed"],
                        **conf["spectral"]))
    result = sweep(grid)
    if result.best is None:
        raise AllPointsFailedError(f"all {len(result.failures)} points failed")

    csv_path = _out_dir(args) / "sweep.csv"
    rows = [p.to_dict() for p in result.points]
    csv_path.write_text(_csv(list(rows[0]), [row.values() for row in rows]))
    b = result.best
    return {
        "resolved_config": {**conf, "system": {
            "amplitude": grid.amplitude, "sample_period_s": grid.sample_period_s,
            "adc": grid.adc.to_dict()}, "sweep": {
            "linewidths_hz": list(grid.linewidths_hz),
            "delays_s": list(grid.delays_s)}},
        "seeds": {"master": sim["master_seed"], "per_point": [
            {"linewidth_hz": lw, "delay_s": d, "seed": seed}
            for lw, d, seed in grid.point_seeds()]},
        "results": {
            "best": b.to_dict(),
            "ties": [p.to_dict() for p in result.ties],
            "n_points": len(result.points),
            "failures": [{"linewidth_hz": f.linewidth_hz, "delay_s": f.delay_s,
                          "error": f.error_code, "message": f.message}
                         for f in result.failures],
            "files": {"sweep_csv": str(csv_path)},
        },
        "summary": f"best: linewidth_hz={_cell(b.linewidth_hz)} "
                   f"delay_s={_cell(b.delay_s)} "
                   f"k_bits_per_s={_cell(b.k_bits_per_s)}; csv {csv_path}",
    }


def cmd_extract(args: argparse.Namespace) -> dict:
    if args.seed is not None and args.seed_file is not None:
        raise AmbiguousInputError("give at most one of --seed or --seed-file")
    master_seed = DEFAULT_MASTER_SEED if args.seed is None else args.seed
    check_seed("--seed", master_seed)
    qt, _ = read_quantized_trace(args.codes)
    if (args.n_out is None) == (args.h_min is None):
        raise AmbiguousInputError("give exactly one of --n-out or --h-min")
    n_in = check_count("--n-in", args.n_in, 1)
    n_out = (args.n_out if args.h_min is None else output_bits_for(
        check_h_min("--h-min", args.h_min, qt.adc.bits), qt.adc.bits, n_in))
    # the seed is drawn only for a geometry and a trace that can be hashed
    size = "--n-out" if args.h_min is None else "output bits from --h-min"
    check_count(size, n_out, 1, n_in)
    if len(qt) * qt.adc.bits < n_in:
        raise TraceTooShortError(
            f"{len(qt)} codes of {qt.adc.bits} bits hold "
            f"{len(qt) * qt.adc.bits} bits, fewer than one {n_in}-bit block")
    n_seed_bits = n_in + n_out - 1
    if args.seed_file is not None:
        seed_source = {"file": str(args.seed_file)}
        seed_bits = unpack_bytes_to_bits(Path(args.seed_file).read_bytes(),
                                         n_seed_bits)
    else:
        toeplitz_seed = derive_seed(master_seed, STREAM_TOEPLITZ)
        seed_source = {"derived_from_master": master_seed,
                       "toeplitz_seed": toeplitz_seed}
        seed_bits = bit_stream(toeplitz_seed, n_seed_bits)
    spec = ToeplitzSpec(input_bits=n_in, output_bits=n_out, seed_bits=seed_bits)

    zero_seed = not bool(seed_bits.any())
    if zero_seed:
        print("warning: all-zero extractor seed produces all-zero output",
              file=sys.stderr)

    bits = extract_stream(qt, spec)
    bits_path = _out_dir(args) / "random.bin"
    bits_path.write_bytes(pack_bits_to_bytes(bits))

    sanity = {"n_bits": int(bits.size)}
    if bits.size >= 100:
        sanity["monobit_p"] = monobit_test(bits)
        sanity["runs_p"] = runs_test(bits)
        sanity["passed_at_0.01"] = bool(min(sanity["monobit_p"],
                                            sanity["runs_p"]) > 0.01)
    return {
        "resolved_config": {"codes": str(args.codes), "n_in": n_in,
                            "n_out": n_out, "adc_bits": qt.adc.bits,
                            "seed_source": seed_source},
        "results": {
            "n_blocks": int(bits.size // n_out),
            "output_bits": int(bits.size),
            "bits_per_input_sample": n_out * qt.adc.bits / n_in,
            "zero_seed": zero_seed,
            "sanity": sanity,
            "files": {"random_bits": str(bits_path)},
        },
        "summary": f"extracted {bits.size} bits -> {bits_path}",
    }


def cmd_invert_variance(args: argparse.Namespace) -> dict:
    sigma_q2 = quantum_variance_from_measurement(args.sigma_m2, args.sigma_c2)
    sigma2 = invert_variance(sigma_q2, args.amplitude)
    return {
        "resolved_config": {"sigma_m2": args.sigma_m2, "sigma_c2": args.sigma_c2,
                            "amplitude": args.amplitude},
        "results": {"sigma_q2": sigma_q2, "sigma2_rad2": sigma2,
                    "linewidth_delay_product": sigma2 / TWO_PI},
    }


# --------------------------------------------------------------- parser

class _Parser(argparse.ArgumentParser):
    """Parser whose command-line errors end in one error line.

    A malformed, unknown or missing flag prints ``lpnqrng: error:
    invalid-parameter: ...`` and exits 2, as every other validation
    error does, instead of argparse's usage block.
    """

    def error(self, message: str):
        err = InvalidParameterError
        message = " ".join(message.splitlines())
        self.exit(err.exit_code, f"lpnqrng: error: {err.code}: {message}\n")


def _command(sub, name: str, text: str, func, *paths: str,
             prints: bool = False) -> argparse.ArgumentParser:
    """A subcommand's parser. Given config keys, it takes --config and
    each key's flag, whose dest is the key's path: the only keys the
    command reads. One that ``prints`` its report also takes --format."""
    p = sub.add_parser(name, help=text)
    p.set_defaults(func=func)
    if paths:
        p.add_argument("--config", help="JSON config file")
    if prints:
        p.add_argument("--out-dir", help="also write the report here")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="stdout format")
    else:
        p.add_argument("--out-dir", default=".", help="output directory")
    for path in paths:
        flag, kind, _, text = _KEYS[path]
        p.add_argument(flag, dest=path, type=float if kind is list else kind,
                       nargs="+" if kind is list else None, help=text)
    return p


_ADC = ("system.amplitude", "system.adc.bits", "system.adc.range")
_SPECTRAL = ("spectral.nfft", "spectral.overlap_fraction",
             "spectral.plateau_bins")


def build_parser() -> argparse.ArgumentParser:
    # subparsers are built with the parser's own class
    parser = _Parser(
        prog="lpnqrng",
        description="Simulate, analyze and optimize a laser-phase-noise "
                    "quantum random number generator design.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    _command(sub, "simulate", "generate and store one trace set", cmd_simulate,
             "system.linewidth_hz", "system.delay_s", *_ADC,
             "system.sigma_ele", "system.sample_period_s", "sim.n_samples",
             "sim.master_seed", "quantize_source")

    p = _command(sub, "psd", "spectrum and 3-dB bandwidth of a trace",
                 cmd_psd, *_SPECTRAL)
    p.add_argument("--trace", required=True, help="analog trace file")

    p = _command(sub, "entropy", "min-entropy, analytic or empirical",
                 cmd_entropy, "system.linewidth_hz", "system.delay_s", *_ADC,
                 prints=True)
    p.add_argument("--sigma-q2", type=float,
                   help="variance mode: measured quantum-noise variance (V^2)")
    p.add_argument("--codes", help="empirical mode: code trace file")
    p.add_argument("--histogram-csv", help="also write a code histogram CSV")

    _command(sub, "sweep", "grid search over (linewidth, delay)", cmd_sweep,
             *_ADC, "system.sample_period_s", *_SPECTRAL, "sim.n_samples",
             "sim.master_seed", "sweep.linewidths_hz", "sweep.delays_s")

    p = _command(sub, "extract", "Toeplitz-hash a code trace to bits",
                 cmd_extract)
    p.add_argument("--codes", required=True, help="code trace file")
    p.add_argument("--n-in", type=int, required=True, help="input block bits")
    p.add_argument("--n-out", type=int, help="output block bits")
    p.add_argument("--h-min", type=float,
                   help="derive output bits from this min-entropy")
    p.add_argument("--seed", type=int,
                   help="master seed of the extractor seed (64-bit)")
    p.add_argument("--seed-file", help="raw binary extractor seed")

    p = _command(sub, "invert-variance",
                 "phase-noise variance from measured variances",
                 cmd_invert_variance, prints=True)
    p.add_argument("--sigma-m2", type=float, required=True,
                   help="measured signal variance (V^2)")
    p.add_argument("--sigma-c2", type=float, required=True,
                   help="classical noise variance (V^2)")
    p.add_argument("--amplitude", type=float, required=True,
                   help="signal peak (V)")

    return parser


def _report(args: argparse.Namespace, body: dict, t0: float) -> None:
    """Complete a command's report, write it to --out-dir if there is
    one, and print the command's summary with the report's path, or else
    the report as JSON or, with --format csv, one row of its scalar results.
    """
    summary = body.pop("summary", None)
    report = {"tool": {"name": "lpnqrng", "version": __version__,
                       "gf2_backend": GF2_BACKEND},
              "command": args.command, **body,
              "timing_s": {"total": time.perf_counter() - t0}}
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out_dir is not None:
        path = _out_dir(args) / "report.json"
        path.write_text(text + "\n")
    if summary is not None:
        print(f"{summary}; report {path}")
    elif getattr(args, "format", "json") == "csv":
        scalars = {key: value for key, value in report["results"].items()
                   if not isinstance(value, (dict, list))}
        print(_csv(list(scalars), [scalars.values()]), end="")
    else:
        print(text)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        _report(args, args.func(args), t0)
    except LpnError as exc:
        print(f"lpnqrng: error: {exc.code}: {exc}", file=sys.stderr)
        return exc.exit_code
    except FileNotFoundError as exc:
        print(f"lpnqrng: error: file-not-found: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"lpnqrng: error: io: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"lpnqrng: error: out-of-memory: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
