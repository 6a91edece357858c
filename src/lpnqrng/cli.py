"""Batch command-line front end.

Subcommands: simulate, psd, entropy, sweep, extract, invert-variance.
Each registers only the flags it reads. The four that take --config
resolve it in one place (defaults, then --config JSON, then flags);
every run echoes its resolved form in a JSON report and derives all
stream seeds from one master seed, so re-running a report's
configuration reproduces the primary outputs byte for byte.

Exit codes: 0 success, 2 validation error, 3 I/O error, 4 domain error
(model-inconsistent inputs such as an out-of-range variance).
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .entropy import (
    EntropyReport,
    METHOD_ANALYTIC,
    METHOD_EMPIRICAL,
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
    DelayTooSmallError,
    InvalidParameterError,
    LpnError,
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
from .params import DEFAULT_N_SAMPLES, AdcSpec, SystemParams, as_float, as_int
from .rng import (
    STREAM_ELECTRONIC,
    STREAM_PHASE,
    STREAM_TOEPLITZ,
    bit_stream,
    derive_seed,
)
from .simulate import (
    TWO_PI,
    add_electronic_noise,
    quantize,
    quantum_noise,
    sample_phase_path,
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

#: Every config key a command reads, by dotted path: the flag that
#: overrides it (its argparse dest is the path), the type its value is
#: read as, and the flag's help.
_KEYS = {
    "system.linewidth_hz": ("--linewidth-hz", float, "laser linewidth (Hz)"),
    "system.delay_s": ("--delay-s", float, "interferometer delay (s)"),
    "system.amplitude": ("--amplitude", float, "signal peak (V)"),
    "system.sigma_ele": ("--sigma-ele", float, "electronic noise std (V)"),
    "system.sample_period_s": ("--sample-period-s", float,
                               "sampling period (s)"),
    "system.adc.bits": ("--adc-bits", int, "ADC resolution (bits)"),
    "system.adc.range": ("--adc-range", float, "ADC range (V)"),
    "sim.n_samples": ("--n-samples", int, "phase path length"),
    "sim.master_seed": ("--seed", int, "master seed (64-bit)"),
    "spectral.nfft": ("--nfft", int, "Welch segment length"),
    "spectral.overlap_fraction": ("--overlap", float,
                                  "segment overlap fraction"),
    "spectral.plateau_bins": ("--plateau-bins", int,
                              "bins averaged for the plateau reference"),
    "sweep.linewidths_hz": ("--linewidths-hz", list, "grid linewidths (Hz)"),
    "sweep.delays_s": ("--delays-s", list, "grid delays (s)"),
    "quantize_source": ("--quantize-source", str,
                        "trace fed to the ADC model: quantum (default) "
                        "or measured"),
    "entropy_method": ("--entropy-method", str,
                       f"min-entropy route: {METHOD_ANALYTIC} (default) "
                       f"or {METHOD_EMPIRICAL}"),
}


def _defaults() -> dict:
    # system defaults other than the converter live in SystemParams.from_dict
    return {
        "system": {"adc": AdcSpec().to_dict()},
        "sim": {"n_samples": DEFAULT_N_SAMPLES, "master_seed": 1},
        "spectral": {"nfft": DEFAULT_NFFT, "overlap_fraction": DEFAULT_OVERLAP,
                     "plateau_bins": DEFAULT_PLATEAU_BINS},
        "sweep": {},
        "quantize_source": "quantum",
        "entropy_method": METHOD_ANALYTIC,
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


def _resolve(args: argparse.Namespace, *sections: str) -> dict:
    """The configuration of one command run.

    For every key under ``sections``: the default, then the --config
    value, then the flag if the user gave it. A JSON null counts as
    absent. Config values are coerced to the key's type (flags already
    are); a section that is not a JSON object, or a value of the wrong
    type, raises InvalidParameterError naming the key.
    """
    cfg = _load_config(args.config)
    conf = {name: value for name, value in _defaults().items()
            if name in sections}
    for path in _KEYS:
        if path.split(".")[0] not in sections:
            continue
        *parents, key = path.split(".")
        value = _lookup(cfg, path)
        if value is not None:
            value = _coerce(path, value)
        if getattr(args, path, None) is not None:
            value = getattr(args, path)
        if value is None:
            continue
        node = conf
        for name in parents:
            node = node.setdefault(name, {})
        node[key] = value
    return conf


def _system(system: dict) -> SystemParams:
    if "linewidth_hz" not in system or "delay_s" not in system:
        raise InvalidParameterError(
            "linewidth_hz and delay_s are required (flags or config)")
    return SystemParams.from_dict(system)


# ---------------------------------------------------------------- output

def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def _write_report(out_dir: Path, report: dict, name: str = "report.json") -> Path:
    path = out_dir / name
    path.write_text(json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n")
    return path


def _report_skeleton(command: str, resolved_config: dict) -> dict:
    return {
        "tool": {"name": "lpnqrng", "version": __version__,
                 "gf2_backend": GF2_BACKEND},
        "command": command,
        "resolved_config": resolved_config,
    }


def _entropy_dict(rep: EntropyReport) -> dict:
    return {"p_c": rep.p_c, "p_r": rep.p_r, "p_max": rep.p_max,
            "h_min_bits": rep.h_min, "sigma2_rad2": rep.sigma2,
            "method": rep.method}


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# ------------------------------------------------------------- commands

def cmd_simulate(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    conf = _resolve(args, "system", "sim", "quantize_source")
    system = _system(conf["system"])
    n_samples, master_seed = conf["sim"]["n_samples"], conf["sim"]["master_seed"]
    quantize_source = conf["quantize_source"]
    if quantize_source not in ("quantum", "measured"):
        raise InvalidParameterError(
            f"quantize_source must be 'quantum' or 'measured', "
            f"got {quantize_source!r}")
    out = _out_dir(args)

    k = system.delay_samples
    phase_seed = derive_seed(master_seed, STREAM_PHASE)
    ele_seed = derive_seed(master_seed, STREAM_ELECTRONIC)
    path = sample_phase_path(system.linewidth_hz, system.sample_period_s,
                             n_samples, phase_seed)
    q = quantum_noise(path, k, system.amplitude)
    m = add_electronic_noise(q, system.sigma_ele, ele_seed)
    source = q if quantize_source == "quantum" else m
    codes = quantize(source, system.adc)

    q_path = out / "quantum.f64"
    m_path = out / "measured.f64"
    c_path = out / "codes.i16"
    write_analog_trace(q_path, q, system=system, seed=master_seed)
    write_analog_trace(m_path, m, system=system, seed=master_seed)
    write_quantized_trace(c_path, codes, system=system, seed=master_seed)

    resolved = {**conf, "system": system.to_dict()}
    report = _report_skeleton("simulate", resolved)
    report["seeds"] = {"master": master_seed, "phase": phase_seed,
                       "electronic": ele_seed}
    report["results"] = {
        "delay_samples": k,
        "trace_samples": len(q),
        "files": {"quantum": str(q_path), "measured": str(m_path),
                  "codes": str(c_path)},
    }
    report["timing_s"] = {"total": time.perf_counter() - t0}
    rp = _write_report(out, report)
    print(f"wrote {q_path} {m_path} {c_path} ({len(q)} samples); report {rp}")
    return 0


def cmd_psd(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    spectral_cfg = _resolve(args, "spectral")["spectral"]
    out = _out_dir(args)
    trace, meta = read_analog_trace(args.trace)
    psd = estimate_psd(trace, spectral_cfg["nfft"],
                       spectral_cfg["overlap_fraction"])
    bw = bandwidth_3db(psd, spectral_cfg["plateau_bins"])

    csv_path = out / "psd.csv"
    lines = ["freq_hz,power_v2_per_hz"]
    lines += [f"{_fmt(f)},{_fmt(p)}" for f, p in zip(psd.freqs, psd.power)]
    csv_path.write_text("\n".join(lines) + "\n")

    resolved = {"trace": str(args.trace), "spectral": spectral_cfg}
    report = _report_skeleton("psd", resolved)
    report["results"] = {
        "n_segments": psd.n_segments,
        "nyquist_hz": psd.nyquist_hz,
        "bandwidth": {"b_es_hz": bw.b_es_hz,
                      "reference_level": bw.reference_level,
                      "saturated": bw.saturated},
        "trace_label": meta.get("label"),
        "files": {"psd_csv": str(csv_path)},
    }
    report["timing_s"] = {"total": time.perf_counter() - t0}
    rp = _write_report(out, report)
    print(f"b_es_hz={_fmt(bw.b_es_hz)} saturated={bw.saturated}; "
          f"csv {csv_path}; report {rp}")
    return 0


def cmd_entropy(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    system = _resolve(args, "system")["system"]
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

    histogram = None
    if args.codes is not None:
        qt, meta = read_quantized_trace(args.codes)
        rep = empirical_min_entropy(qt)
        resolved = {"mode": "empirical", "codes": str(args.codes),
                    "adc": qt.adc.to_dict()}
        if args.histogram_csv:
            counts = code_histogram(qt)
            codes_axis = np.arange(qt.adc.code_min, qt.adc.code_max + 1)
            lines = ["code,count,frequency"]
            lines += [f"{c},{n},{_fmt(n / len(qt))}"
                      for c, n in zip(codes_axis, counts)]
            Path(args.histogram_csv).write_text("\n".join(lines) + "\n")
            histogram = str(args.histogram_csv)
    else:
        adc = AdcSpec.from_dict(system["adc"])
        amplitude = system.get("amplitude", adc.default_amplitude())
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

    report = _report_skeleton("entropy", resolved)
    report["results"] = _entropy_dict(rep)
    if histogram:
        report["results"]["files"] = {"histogram_csv": histogram}
    report["timing_s"] = {"total": time.perf_counter() - t0}
    if args.format == "csv":
        print("p_c,p_r,p_max,h_min_bits,sigma2_rad2,method")
        print(f"{_fmt(rep.p_c)},{_fmt(rep.p_r)},{_fmt(rep.p_max)},"
              f"{_fmt(rep.h_min)},"
              f"{'' if rep.sigma2 is None else _fmt(rep.sigma2)},{rep.method}")
    else:
        print(json.dumps(_jsonable(report), indent=2, sort_keys=True))
    if args.out_dir is not None:
        _write_report(_out_dir(args), report)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    conf = _resolve(args, "system", "sim", "spectral", "sweep",
                    "entropy_method")
    linewidths = conf["sweep"].get("linewidths_hz")
    delays = conf["sweep"].get("delays_s")
    if not linewidths or not delays:
        raise InvalidParameterError(
            "sweep needs linewidths_hz and delays_s (flags or config)")
    # grids are index sets, not sequences: accept any order, sort once
    linewidths = tuple(sorted(linewidths))
    delays = tuple(sorted(delays))

    # the base template carries everything but the design point; it is
    # instantiated with the most forgiving grid corner so that a single
    # too-small delay fails per point instead of failing the whole grid
    try:
        system = _system({**conf["system"], "linewidth_hz": linewidths[0],
                          "delay_s": delays[-1]})
    except DelayTooSmallError as exc:
        raise AllPointsFailedError(
            f"every grid delay rounds below one sample: {exc}") from exc
    sim, spectral_cfg = conf["sim"], conf["spectral"]
    grid = SweepGrid(
        linewidths_hz=linewidths, delays_s=delays, base=system,
        sim=SimSettings(n_samples=sim["n_samples"], seed=sim["master_seed"],
                        **spectral_cfg),
        entropy_method=conf["entropy_method"])
    result = sweep(grid)
    if result.best is None:
        raise AllPointsFailedError(
            f"all {len(grid.linewidths_hz) * len(grid.delays_s)} points failed")

    out = _out_dir(args)
    csv_path = out / "sweep.csv"
    lines = ["linewidth_hz,delay_s,b_es_hz,h_min_bits,k_bits_per_s,f_s_hz,saturated"]
    for p in result.points:
        lines.append(
            f"{_fmt(p.linewidth_hz)},{_fmt(p.delay_s)},{_fmt(p.b_es_hz)},"
            f"{_fmt(p.h_min_bits)},{_fmt(p.k_bits_per_s)},{_fmt(p.f_s_hz)},"
            f"{'true' if p.saturated else 'false'}")
    csv_path.write_text("\n".join(lines) + "\n")

    resolved = {
        **conf,
        "system": system.to_dict(),
        "sweep": {"linewidths_hz": list(linewidths), "delays_s": list(delays)},
    }
    report = _report_skeleton("sweep", resolved)
    report["seeds"] = {
        "master": sim["master_seed"],
        "per_point": [
            {"linewidth_hz": lw, "delay_s": d,
             "seed": derive_seed(sim["master_seed"], i, j)}
            for i, lw in enumerate(linewidths) for j, d in enumerate(delays)],
    }
    report["results"] = {
        "best": result.best.to_dict(),
        "ties": [p.to_dict() for p in result.ties],
        "n_points": len(result.points),
        "failures": [{"linewidth_hz": f.linewidth_hz, "delay_s": f.delay_s,
                      "error": f.error_code, "message": f.message}
                     for f in result.failures],
        "files": {"sweep_csv": str(csv_path)},
    }
    report["timing_s"] = {"total": time.perf_counter() - t0}
    rp = _write_report(out, report)
    b = result.best
    print(f"best: linewidth_hz={_fmt(b.linewidth_hz)} delay_s={_fmt(b.delay_s)} "
          f"k_bits_per_s={_fmt(b.k_bits_per_s)}; csv {csv_path}; report {rp}")
    return 0


def cmd_extract(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    out = _out_dir(args)
    qt, _ = read_quantized_trace(args.codes)
    n_in = args.n_in
    if (args.n_out is None) == (args.h_min is None):
        raise AmbiguousInputError("give exactly one of --n-out or --h-min")
    n_out = (args.n_out if args.n_out is not None
             else output_bits_for(args.h_min, qt.adc.bits, n_in))
    n_seed_bits = n_in + n_out - 1
    if args.seed_file is not None:
        seed_source = {"file": str(args.seed_file)}
        seed_bits = unpack_bytes_to_bits(Path(args.seed_file).read_bytes(),
                                         n_seed_bits)
    else:
        master = 1 if args.seed is None else args.seed
        toeplitz_seed = derive_seed(master, STREAM_TOEPLITZ)
        seed_source = {"derived_from_master": master,
                       "toeplitz_seed": toeplitz_seed}
        seed_bits = bit_stream(toeplitz_seed, n_seed_bits)
    spec = ToeplitzSpec(input_bits=n_in, output_bits=n_out, seed_bits=seed_bits)

    zero_seed = not bool(seed_bits.any())
    if zero_seed:
        print("warning: all-zero extractor seed produces all-zero output",
              file=sys.stderr)

    bits = extract_stream(qt, spec)
    bits_path = out / "random.bin"
    bits_path.write_bytes(pack_bits_to_bytes(bits))

    sanity = {"n_bits": int(bits.size)}
    if bits.size >= 100:
        sanity["monobit_p"] = monobit_test(bits)
        sanity["runs_p"] = runs_test(bits)
        sanity["passed_at_0.01"] = bool(min(sanity["monobit_p"],
                                            sanity["runs_p"]) > 0.01)
    resolved = {"codes": str(args.codes), "n_in": n_in, "n_out": n_out,
                "adc_bits": qt.adc.bits, "seed_source": seed_source}
    report = _report_skeleton("extract", resolved)
    report["results"] = {
        "n_blocks": int(bits.size // n_out) if n_out else 0,
        "output_bits": int(bits.size),
        "bits_per_input_sample": n_out * qt.adc.bits / n_in,
        "zero_seed": zero_seed,
        "sanity": sanity,
        "files": {"random_bits": str(bits_path)},
    }
    report["timing_s"] = {"total": time.perf_counter() - t0}
    rp = _write_report(out, report)
    print(f"extracted {bits.size} bits -> {bits_path}; report {rp}")
    return 0


def cmd_invert_variance(args: argparse.Namespace) -> int:
    sigma_q2 = quantum_variance_from_measurement(args.sigma_m2, args.sigma_c2)
    amplitude = args.amplitude
    sigma2 = invert_variance(sigma_q2, amplitude)
    product = sigma2 / TWO_PI
    resolved = {"sigma_m2": args.sigma_m2, "sigma_c2": args.sigma_c2,
                "amplitude": amplitude}
    report = _report_skeleton("invert-variance", resolved)
    report["results"] = {"sigma_q2": sigma_q2, "sigma2_rad2": sigma2,
                         "linewidth_delay_product": product}
    if args.format == "csv":
        print("sigma_q2,sigma2_rad2,linewidth_delay_product")
        print(f"{_fmt(sigma_q2)},{_fmt(sigma2)},{_fmt(product)}")
    else:
        print(json.dumps(_jsonable(report), indent=2, sort_keys=True))
    if args.out_dir is not None:
        _write_report(_out_dir(args), report)
    return 0


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


def _add_keys(p: argparse.ArgumentParser, *paths: str) -> None:
    """Register the flag of each config key; its dest is the key's path."""
    for path in paths:
        flag, kind, text = _KEYS[path]
        if kind is list:
            p.add_argument(flag, dest=path, type=float, nargs="+", help=text)
        else:
            p.add_argument(flag, dest=path, type=kind, help=text)


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

    p = sub.add_parser("simulate", help="generate and store one trace set")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out-dir", default=".", help="output directory")
    _add_keys(p, "system.linewidth_hz", "system.delay_s", *_ADC,
              "system.sigma_ele", "system.sample_period_s", "sim.n_samples",
              "sim.master_seed", "quantize_source")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("psd", help="spectrum and 3-dB bandwidth of a trace")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out-dir", default=".", help="output directory")
    _add_keys(p, *_SPECTRAL)
    p.add_argument("--trace", required=True, help="analog trace file")
    p.set_defaults(func=cmd_psd)

    p = sub.add_parser("entropy", help="min-entropy, analytic or empirical")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out-dir", help="also write the report here")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="stdout format")
    _add_keys(p, "system.linewidth_hz", "system.delay_s", *_ADC)
    p.add_argument("--sigma-q2", type=float,
                   help="variance mode: measured quantum-noise variance (V^2)")
    p.add_argument("--codes", help="empirical mode: code trace file")
    p.add_argument("--histogram-csv", help="also write a code histogram CSV")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("sweep", help="grid search over (linewidth, delay)")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out-dir", default=".", help="output directory")
    _add_keys(p, *_ADC, "system.sample_period_s", *_SPECTRAL, "sim.n_samples",
              "sim.master_seed", "sweep.linewidths_hz", "sweep.delays_s",
              "entropy_method")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("extract", help="Toeplitz-hash a code trace to bits")
    p.add_argument("--out-dir", default=".", help="output directory")
    p.add_argument("--codes", required=True, help="code trace file")
    p.add_argument("--n-in", type=int, required=True, help="input block bits")
    p.add_argument("--n-out", type=int, help="output block bits")
    p.add_argument("--h-min", type=float,
                   help="derive output bits from this min-entropy")
    p.add_argument("--seed", type=int,
                   help="master seed of the extractor seed (64-bit)")
    p.add_argument("--seed-file", help="raw binary extractor seed")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("invert-variance",
                       help="phase-noise variance from measured variances")
    p.add_argument("--out-dir", help="also write the report here")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="stdout format")
    p.add_argument("--sigma-m2", type=float, required=True,
                   help="measured signal variance (V^2)")
    p.add_argument("--sigma-c2", type=float, required=True,
                   help="classical noise variance (V^2)")
    p.add_argument("--amplitude", type=float, required=True,
                   help="signal peak (V)")
    p.set_defaults(func=cmd_invert_variance)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LpnError as exc:
        print(f"lpnqrng: error: {exc.code}: {exc}", file=sys.stderr)
        return exc.exit_code
    except FileNotFoundError as exc:
        print(f"lpnqrng: error: file-not-found: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"lpnqrng: error: io: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
