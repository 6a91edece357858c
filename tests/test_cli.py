import argparse
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import lpnqrng
from lpnqrng import (AdcSpec, QuantizedTrace, SystemParams,
                     add_electronic_noise, cli, code_probabilities,
                     derive_seed, gaussian_stream, optimizer, quantize,
                     quantum_noise, sample_phase_path)
from lpnqrng.cli import main
from lpnqrng.rng import STREAM_ELECTRONIC, STREAM_PHASE
from lpnqrng.simulate import AnalogTrace
from lpnqrng.traceio import (
    read_analog_trace,
    read_quantized_trace,
    write_analog_trace,
    write_quantized_trace,
)


def run(*argv):
    return main([str(a) for a in argv])


def one_error_line(capsys, code):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"lpnqrng: error: {code}:"), err
    return err[0]


class TestSimulate:
    def test_writes_consistent_files(self, tmp_path):
        out = tmp_path / "run"
        assert run("simulate", "--linewidth-hz", 9.5e6, "--delay-s", 6.5e-9,
                   "--n-samples", 4096, "--seed", 1, "--out-dir", out) == 0
        q, meta_q = read_analog_trace(out / "quantum.f64")
        m, _ = read_analog_trace(out / "measured.f64")
        c, _ = read_quantized_trace(out / "codes.i16")
        assert len(q) == len(m) == len(c) == 4096 - 65
        assert meta_q["system"]["linewidth_hz"] == 9.5e6
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["delay_samples"] == 65
        assert report["resolved_config"]["sim"]["master_seed"] == 1

    def test_zero_linewidth_gives_zero_trace(self, tmp_path):
        out = tmp_path / "run"
        assert run("simulate", "--linewidth-hz", 0, "--delay-s", 6.5e-9,
                   "--n-samples", 2048, "--out-dir", out) == 0
        q, _ = read_analog_trace(out / "quantum.f64")
        assert not q.samples.any()

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run("simulate", "--linewidth-hz", 9.5e6, "--delay-s", 2.5e-9,
                       "--n-samples", 4096, "--seed", 5, "--out-dir", out) == 0
            outs.append(out)
        for fname in ("quantum.f64", "measured.f64", "codes.i16"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "system": {"linewidth_hz": 9.5e6, "delay_s": 6.5e-9},
            "sim": {"n_samples": 2048, "master_seed": 9},
        }))
        out = tmp_path / "run"
        assert run("simulate", "--config", cfg, "--delay-s", 2.5e-9,
                   "--out-dir", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["resolved_config"]["system"]["delay_s"] == 2.5e-9
        assert report["resolved_config"]["sim"]["master_seed"] == 9

    def test_report_config_reproduces_run(self, tmp_path):
        # the echoed resolved config alone regenerates identical outputs
        first = tmp_path / "first"
        assert run("simulate", "--linewidth-hz", 9.5e6, "--delay-s", 6.5e-9,
                   "--n-samples", 4096, "--seed", 17, "--out-dir", first,
                   "--quantize-source", "measured") == 0
        report = json.loads((first / "report.json").read_text())
        cfg = tmp_path / "replay.json"
        cfg.write_text(json.dumps(report["resolved_config"]))
        second = tmp_path / "second"
        assert run("simulate", "--config", cfg, "--out-dir", second) == 0
        for fname in ("quantum.f64", "measured.f64", "codes.i16"):
            assert (first / fname).read_bytes() == (second / fname).read_bytes()

    def test_missing_design_is_validation_error(self, tmp_path):
        assert run("simulate", "--out-dir", tmp_path) == 2

    def test_delay_longer_than_the_path(self, tmp_path, capsys):
        # 2.5 ns at tau_s = 0.1 ns is k = 25, more than 20 samples hold
        out = tmp_path / "d"
        assert run("simulate", "--linewidth-hz", 9.5e6, "--delay-s", 2.5e-9,
                   "--n-samples", 20, "--out-dir", out) == 2
        assert one_error_line(capsys, "path-too-short").endswith(
            "path of 20 samples cannot support delay index 25")
        assert not out.exists()

    # tau_s = 1e-10 s, so the delays are k = 1 (tau_s = delay) and k = 65
    @pytest.mark.parametrize("source", ["quantum", "measured"])
    @pytest.mark.parametrize("seed", [1, 23])
    @pytest.mark.parametrize("delay_s", [1e-10, 6.5e-9], ids=["k1", "k65"])
    def test_files_equal_the_api_chain(self, tmp_path, delay_s, seed, source):
        n = 2**16 + 3
        out = tmp_path / "cli"
        assert run("simulate", "--linewidth-hz", 9.5e6, "--delay-s", delay_s,
                   "--sigma-ele", 0.01, "--n-samples", n, "--seed", seed,
                   "--quantize-source", source, "--out-dir", out) == 0
        system = SystemParams(9.5e6, delay_s, sigma_ele=0.01)
        path = sample_phase_path(9.5e6, system.sample_period_s, n,
                                 derive_seed(seed, STREAM_PHASE))
        q = quantum_noise(path, system.delay_samples, system.amplitude)
        m = add_electronic_noise(q, 0.01, derive_seed(seed, STREAM_ELECTRONIC))
        codes = quantize(q if source == "quantum" else m, system.adc)
        api = tmp_path / "api"
        api.mkdir()
        write_analog_trace(api / "quantum.f64", q, system=system, seed=seed)
        write_analog_trace(api / "measured.f64", m, system=system, seed=seed)
        write_quantized_trace(api / "codes.i16", codes, system=system,
                              seed=seed)
        for name in ("quantum.f64", "measured.f64", "codes.i16"):
            for f in (name, f"{name}.meta.json"):
                assert (out / f).read_bytes() == (api / f).read_bytes(), f

    def test_unknown_quantize_source(self, tmp_path, capsys):
        assert run("simulate", "--linewidth-hz", 9.5e6, "--delay-s", 6.5e-9,
                   "--quantize-source", "other", "--out-dir",
                   tmp_path / "out") == 2
        assert one_error_line(capsys, "invalid-parameter").endswith(
            "quantize_source must be 'quantum' or 'measured', got 'other'")
        assert not (tmp_path / "out").exists()

    def test_bad_config_json(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{nope")
        assert run("simulate", "--config", cfg, "--out-dir", tmp_path) == 2

    def test_missing_config_file(self, tmp_path, capsys):
        assert run("simulate", "--linewidth-hz", 9.5e6, "--delay-s", 6.5e-9,
                   "--config", tmp_path / "nope.json",
                   "--out-dir", tmp_path / "out") == 3
        assert "nope.json" in one_error_line(capsys, "file-not-found")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("raw", [b"\xff\xfe{", b"[" * 100_000, b"[1, 2]"],
                             ids=["not-utf8", "too-deep", "not-an-object"])
    def test_undecodable_config(self, tmp_path, capsys, raw):
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(raw)
        assert run("simulate", "--config", cfg, "--out-dir", tmp_path) == 2
        one_error_line(capsys, "invalid-parameter")

    @pytest.mark.parametrize("cfg,key", [
        ({"sim": {"n_samples": 4096.7}}, "sim.n_samples"),
        ({"sim": {"n_samples": True}}, "sim.n_samples"),
        ({"sim": {"master_seed": False}}, "sim.master_seed"),
        ({"system": {"adc": {"bits": 8.5}}}, "system.adc.bits"),
        ({"system": {"amplitude": True}}, "system.amplitude"),
        ({"system": {"sigma_ele": False}}, "system.sigma_ele"),
        ({"system": {"linewidth_hz": "9.5e6"}}, "system.linewidth_hz"),
        ({"quantize_source": 5}, "quantize_source"),
    ], ids=["fraction", "true", "false", "adc-bits-fraction", "amplitude-true",
            "sigma-ele-false", "linewidth-string", "quantize-source-number"])
    def test_non_integer_config_value(self, tmp_path, capsys, cfg, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run("simulate", "--linewidth-hz", 9.5e6, "--delay-s", 6.5e-9,
                   "--n-samples", 4096, "--config", path,
                   "--out-dir", tmp_path / "out") == 2
        assert key in one_error_line(capsys, "invalid-parameter")

    def test_integral_float_config_value(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sim": {"n_samples": 4096.0}}))
        out = tmp_path / "run"
        assert run("simulate", "--linewidth-hz", 9.5e6, "--delay-s", 6.5e-9,
                   "--config", path, "--out-dir", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["resolved_config"]["sim"]["n_samples"] == 4096
        assert report["results"]["trace_samples"] == 4096 - 65


class TestPsd:
    def test_on_simulated_trace(self, tmp_path):
        out = tmp_path / "run"
        run("simulate", "--linewidth-hz", 9.5e6, "--delay-s", 2.5e-9,
            "--n-samples", 2**20, "--seed", 3, "--out-dir", out)
        assert run("psd", "--trace", out / "quantum.f64", "--nfft", 4096,
                   "--out-dir", out) == 0
        csv = (out / "psd.csv").read_text().splitlines()
        assert csv[0] == "freq_hz,power_v2_per_hz"
        assert len(csv) == 4096 // 2 + 1 + 1
        report = json.loads((out / "report.json").read_text())
        b = report["results"]["bandwidth"]["b_es_hz"]
        assert b == pytest.approx(185.18e6, rel=0.25)
        assert not report["results"]["bandwidth"]["saturated"]

    def test_flat_noise_saturates(self, tmp_path):
        trace = AnalogTrace(0.1 * gaussian_stream(8, 2**16), 1e-10, "measured")
        path = tmp_path / "white.f64"
        write_analog_trace(path, trace)
        assert run("psd", "--trace", path, "--nfft", 1024,
                   "--out-dir", tmp_path) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["results"]["bandwidth"]["saturated"]

    @pytest.mark.parametrize("argv", [
        ["--nfft", 1000], ["--overlap", 1.5], ["--plateau-bins", 0],
        ["--nfft", 1024, "--plateau-bins", 513]],
        ids=["nfft", "overlap", "plateau-bins", "plateau-bins-above-nfft/2"])
    def test_bad_setting_fails_before_the_trace_is_read(self, tmp_path,
                                                         capsys, argv):
        # the trace is missing, which would exit 3 had it been read first
        assert run("psd", "--trace", tmp_path / "nope.f64",
                   "--out-dir", tmp_path / "out", *argv) == 2
        one_error_line(capsys, "invalid-parameter")
        assert not (tmp_path / "out").exists()

    def test_missing_metadata_exit_code(self, tmp_path):
        orphan = tmp_path / "orphan.f64"
        orphan.write_bytes(b"\x00" * 80)
        assert run("psd", "--trace", orphan, "--out-dir", tmp_path) == 3

    def test_missing_file_exit_code(self, tmp_path):
        assert run("psd", "--trace", tmp_path / "nope.f64",
                   "--out-dir", tmp_path) == 3

    def test_data_file_gone_with_its_sidecar_left(self, tmp_path, capsys):
        trace = tmp_path / "q.f64"
        write_analog_trace(trace, AnalogTrace(np.zeros(8), 1e-10, "quantum"))
        trace.unlink()
        assert run("psd", "--trace", trace, "--out-dir", tmp_path / "out") == 3
        one_error_line(capsys, "file-not-found")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("samples,code", [(None, 3), (100, 2)],
                             ids=["missing", "too-short"])
    def test_failed_run_writes_no_out_dir(self, tmp_path, samples, code):
        trace = tmp_path / "q.f64"
        if samples is not None:
            write_analog_trace(trace, AnalogTrace(
                0.1 * gaussian_stream(8, samples), 1e-10, "measured"))
        assert run("psd", "--trace", trace,
                   "--out-dir", tmp_path / "out") == code
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("corrupt", [b"{nope", b"\xff\xfe{", b"[" * 100_000,
                                         "no-n-samples"],
                             ids=["invalid-json", "not-utf8", "too-deep",
                                  "no-n-samples"])
    def test_malformed_sidecar_exit_code(self, tmp_path, capsys, corrupt):
        path = tmp_path / "q.f64"
        write_analog_trace(path, AnalogTrace(np.zeros(8), 1e-10, "quantum"))
        side = tmp_path / "q.f64.meta.json"
        if corrupt == "no-n-samples":
            meta = json.loads(side.read_text())
            del meta["n_samples"]
            side.write_text(json.dumps(meta))
        else:
            side.write_bytes(corrupt)
        assert run("psd", "--trace", path, "--out-dir", tmp_path) == 3
        one_error_line(capsys, "missing-metadata")

    @pytest.mark.parametrize("value", [8.7, True, -5],
                             ids=["fraction", "true", "negative"])
    def test_non_integer_sidecar_n_samples(self, tmp_path, capsys, value):
        path = tmp_path / "q.f64"
        write_analog_trace(path, AnalogTrace(np.zeros(8), 1e-10, "quantum"))
        side = tmp_path / "q.f64.meta.json"
        meta = json.loads(side.read_text())
        meta["n_samples"] = value
        side.write_text(json.dumps(meta))
        assert run("psd", "--trace", path, "--out-dir", tmp_path) == 3
        one_error_line(capsys, "missing-metadata")

    @pytest.mark.parametrize("value", [5, None, "bogus", ["quantum"]],
                             ids=["number", "null", "unknown", "list"])
    def test_bad_sidecar_label(self, tmp_path, capsys, value):
        path = tmp_path / "q.f64"
        write_analog_trace(path, AnalogTrace(np.zeros(8), 1e-10, "quantum"))
        side = tmp_path / "q.f64.meta.json"
        meta = json.loads(side.read_text())
        meta["label"] = value
        side.write_text(json.dumps(meta))
        assert run("psd", "--trace", path, "--out-dir", tmp_path) == 3
        assert "label" in one_error_line(capsys, "missing-metadata")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "+inf", "-inf"])
    def test_non_finite_sample(self, tmp_path, capsys, value):
        samples = 0.1 * gaussian_stream(8, 2**12)
        samples[1000] = value
        path = tmp_path / "m.f64"
        write_analog_trace(path, AnalogTrace(samples, 1e-10, "measured"))
        assert run("psd", "--trace", path, "--nfft", 256,
                   "--out-dir", tmp_path) == 2
        assert str(path) in one_error_line(capsys, "invalid-parameter")
        assert not (tmp_path / "psd.csv").exists()

    @pytest.mark.parametrize("value", [True, "1e-10", 0.0, -1.0, math.nan],
                             ids=["true", "string", "zero", "negative", "nan"])
    @pytest.mark.parametrize("command", ["psd", "entropy"])
    def test_bad_sidecar_sample_period(self, tmp_path, capsys, adc8, command,
                                       value):
        path = tmp_path / "t"
        if command == "psd":
            write_analog_trace(path, AnalogTrace(np.zeros(8), 1e-10, "quantum"))
            argv = ["psd", "--trace", path, "--out-dir", tmp_path / "out"]
        else:
            write_quantized_trace(
                path, QuantizedTrace(np.zeros(8, np.int16), adc8, 1e-10))
            argv = ["entropy", "--codes", path]
        side = tmp_path / "t.meta.json"
        meta = json.loads(side.read_text())
        meta["sample_period_s"] = value
        side.write_text(json.dumps(meta))
        assert run(*argv) == 3
        assert "sample_period_s" in one_error_line(capsys, "missing-metadata")


class TestEntropy:
    def test_analytic_design_mode(self, capsys):
        assert run("entropy", "--linewidth-hz", 9.5e6, "--delay-s", 6.5e-9) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["h_min_bits"] == pytest.approx(7.03, abs=0.3)
        assert report["results"]["method"] == "analytic"

    def test_empirical_mode_constant_codes(self, tmp_path, capsys, adc8):
        path = tmp_path / "c.i16"
        write_quantized_trace(
            path, QuantizedTrace(np.full(512, 3, np.int16), adc8, 1e-10))
        assert run("entropy", "--codes", path) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["h_min_bits"] == 0.0
        assert report["results"]["method"] == "empirical"

    def test_zero_entropy_is_positive_zero_by_either_route(self, tmp_path,
                                                           capsys):
        out = tmp_path / "run"
        design = ["--linewidth-hz", 0, "--delay-s", 2.5e-9]
        assert run("simulate", *design, "--n-samples", 4096,
                   "--out-dir", out) == 0
        capsys.readouterr()
        for argv in (["--codes", out / "codes.i16"], design):
            assert run("entropy", *argv) == 0
            printed = capsys.readouterr().out
            h = json.loads(printed)["results"]["h_min_bits"]
            assert h == 0.0 and math.copysign(1.0, h) == 1.0
            assert '"h_min_bits": 0.0' in printed

    def test_zero_delay_rejected(self, capsys):
        # the rule simulate applies to the same key
        assert run("entropy", "--linewidth-hz", 1e6, "--delay-s", 0) == 2
        assert one_error_line(capsys, "invalid-parameter") == (
            "lpnqrng: error: invalid-parameter: delay_s must be > 0 and "
            "finite, got 0.0")

    def test_histogram_export(self, tmp_path, capsys, adc8):
        path = tmp_path / "c.i16"
        codes = np.array([0, 0, 1, -1], dtype=np.int16)
        write_quantized_trace(path, QuantizedTrace(codes, adc8, 1e-10))
        hist = tmp_path / "hist.csv"
        assert run("entropy", "--codes", path, "--histogram-csv", hist) == 0
        lines = hist.read_text().splitlines()
        assert lines[0] == "code,count,frequency"
        assert len(lines) == 256 + 1
        row0 = lines[1 + 128].split(",")
        assert row0[0] == "0" and row0[1] == "2"

    @pytest.mark.parametrize("argv", [
        ["--linewidth-hz", 9.5e6, "--delay-s", 6.5e-9], ["--sigma-q2", 0.1]],
        ids=["design", "variance"])
    def test_histogram_needs_codes(self, tmp_path, capsys, argv):
        # only a code trace has a histogram; the flag must not pass unused
        hist = tmp_path / "hist.csv"
        assert run("entropy", *argv, "--histogram-csv", hist) == 2
        one_error_line(capsys, "ambiguous-input")
        assert capsys.readouterr().out == ""
        assert not hist.exists()

    def test_empty_histogram_path_is_not_skipped(self, tmp_path, capsys, adc8):
        path = tmp_path / "c.i16"
        write_quantized_trace(
            path, QuantizedTrace(np.zeros(4, np.int16), adc8, 1e-10))
        assert run("entropy", "--codes", path, "--histogram-csv", "") == 3
        one_error_line(capsys, "io")

    def test_variance_mode(self, capsys):
        assert run("entropy", "--sigma-q2", 0.1, "--amplitude", 0.75) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["sigma2_rad2"] > 0

    def test_clipping_amplitude_is_modelled(self, capsys, adc8):
        # the model saturates at the end codes, as the ADC does, so a peak
        # at the top of the range has the top code as its code of A
        assert run("entropy", "--sigma-q2", 0.1, "--amplitude", 1.0) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        probs = code_probabilities(results["sigma2_rad2"], 1.0, adc8)
        assert results["p_r"] == probs[adc8.code_max - adc8.code_min]

    def test_variance_mode_out_of_range(self):
        assert run("entropy", "--sigma-q2", 0.5, "--amplitude", 1.0) == 4

    def test_variance_mode_amplitude_whose_square_overflows(self, capsys):
        # A * A is inf above about 1.34e154 V, which read as H_min 0
        assert run("entropy", "--sigma-q2", 5e307, "--amplitude", 1.5e154) == 2
        assert "amplitude" in one_error_line(capsys, "invalid-parameter")

    @pytest.mark.parametrize("argv", [
        ["--sigma-q2", "inf"], ["--sigma-q2", "nan"],
        ["--linewidth-hz", "nan", "--delay-s", 6.5e-9],
        ["--linewidth-hz", 9.5e6, "--delay-s", "inf"]],
        ids=["sigma-q2-inf", "sigma-q2-nan", "linewidth-nan", "delay-inf"])
    def test_non_finite_flag(self, capsys, argv):
        assert run("entropy", *argv) == 2
        one_error_line(capsys, "invalid-parameter")

    def test_ambiguous_input(self, tmp_path):
        assert run("entropy", "--linewidth-hz", 1e6, "--delay-s", 1e-9,
                   "--sigma-q2", 0.1) == 2

    def test_no_input_mode(self):
        assert run("entropy") == 2

    def test_csv_format(self, capsys):
        assert run("entropy", "--linewidth-hz", 9.5e6, "--delay-s", 6.5e-9,
                   "--format", "csv") == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "p_c,p_r,p_max,h_min_bits,sigma2_rad2,method"
        assert out[1].endswith("analytic")

    def test_design_point_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "system": {"linewidth_hz": 9.5e6, "delay_s": 6.5e-9,
                       "adc": {"bits": 8, "range": 1.0}}}))
        assert run("entropy", "--config", cfg) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["h_min_bits"] == pytest.approx(7.035, abs=1e-3)

    @pytest.mark.parametrize("flag", ["--adc-bits", "--adc-range"])
    def test_zero_converter_flag_rejected(self, capsys, flag):
        assert run("entropy", "--linewidth-hz", 9.5e6, "--delay-s", 6.5e-9,
                   flag, 0) == 2
        one_error_line(capsys, "invalid-parameter")

    def test_codes_override_config_design_point(self, tmp_path, capsys):
        # a report's resolved config carries a design point; --codes wins
        out = tmp_path / "run"
        assert run("simulate", "--linewidth-hz", 9.5e6, "--delay-s", 6.5e-9,
                   "--n-samples", 4096, "--out-dir", out) == 0
        cfg = tmp_path / "replay.json"
        report = json.loads((out / "report.json").read_text())
        cfg.write_text(json.dumps(report["resolved_config"]))
        capsys.readouterr()
        assert run("entropy", "--config", cfg, "--codes", out / "codes.i16") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["resolved_config"]["mode"] == "empirical"

    @pytest.mark.parametrize("field,value", [
        ("n_samples", 4.5), ("n_samples", True), ("adc", {"bits": 8.5,
                                                          "range": 1.0}),
        ("adc", {"bits": True, "range": 1.0})],
        ids=["n-samples-fraction", "n-samples-true", "adc-bits-fraction",
             "adc-bits-true"])
    def test_non_integer_sidecar_field(self, tmp_path, capsys, adc8, field,
                                       value):
        path = tmp_path / "c.i16"
        write_quantized_trace(
            path, QuantizedTrace(np.zeros(4, np.int16), adc8, 1e-10))
        side = tmp_path / "c.i16.meta.json"
        meta = json.loads(side.read_text())
        meta[field] = value
        side.write_text(json.dumps(meta))
        assert run("entropy", "--codes", path) == 3
        one_error_line(capsys, "missing-metadata")

    @pytest.mark.parametrize("flag,value", [("--amplitude", 0.5),
                                            ("--adc-bits", 8),
                                            ("--adc-range", 1.0)])
    def test_codes_reject_converter_flags(self, tmp_path, capsys, adc8, flag,
                                          value):
        # the code trace carries its own converter; a flag would be ignored
        path = tmp_path / "c.i16"
        write_quantized_trace(
            path, QuantizedTrace(np.zeros(4, np.int16), adc8, 1e-10))
        assert run("entropy", "--codes", path, flag, value) == 2
        one_error_line(capsys, "ambiguous-input")


NFFT_FAST = ["--nfft", 1024, "--n-samples", 2**15]


class TestSweep:
    def test_single_point_grid(self, tmp_path):
        out = tmp_path / "s"
        assert run("sweep", "--linewidths-hz", 9.5e6, "--delays-s", 2.5e-9,
                   "--seed", 4, "--out-dir", out, *NFFT_FAST) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == ("linewidth_hz,delay_s,b_es_hz,h_min_bits,"
                            "k_bits_per_s,f_s_hz,saturated")
        assert len(lines) == 2
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["best"]["delay_s"] == 2.5e-9

    def test_reversed_grid_gives_identical_csv(self, tmp_path):
        csvs = []
        for name, delays in (("f", [2.5e-9, 4.5e-9]), ("r", [4.5e-9, 2.5e-9])):
            out = tmp_path / name
            assert run("sweep", "--linewidths-hz", 9.5e6,
                       "--delays-s", *delays, "--seed", 4, "--out-dir", out,
                       *NFFT_FAST) == 0
            csvs.append((out / "sweep.csv").read_text())
        assert csvs[0] == csvs[1]

    def test_report_echoes_the_grid_not_a_design_point(self, tmp_path):
        out = tmp_path / "s"
        assert run("sweep", "--linewidths-hz", 9.5e6, 5e6,
                   "--delays-s", 6.5e-9, 2.5e-9, "--seed", 4,
                   "--out-dir", out, *NFFT_FAST) == 0
        resolved = json.loads((out / "report.json").read_text())[
            "resolved_config"]
        assert "linewidth_hz" not in resolved["system"]
        assert "delay_s" not in resolved["system"]
        assert "sigma_ele" not in resolved["system"]  # no point adds it
        assert resolved["sweep"] == {"linewidths_hz": [5e6, 9.5e6],
                                     "delays_s": [2.5e-9, 6.5e-9]}
        cfg = tmp_path / "replay.json"
        cfg.write_text(json.dumps(resolved))
        assert run("sweep", "--config", cfg, "--out-dir", tmp_path / "r") == 0
        assert ((tmp_path / "r" / "sweep.csv").read_text()
                == (out / "sweep.csv").read_text())

    def test_partial_failures_keep_exit_zero(self, tmp_path):
        out = tmp_path / "s"
        assert run("sweep", "--linewidths-hz", 9.5e6,
                   "--delays-s", 0.04e-9, 2.5e-9, "--seed", 4,
                   "--out-dir", out, *NFFT_FAST) == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["results"]["failures"]) == 1
        assert report["results"]["failures"][0]["error"] == "delay-too-small"

    def test_all_points_failed(self, tmp_path, capsys):
        assert run("sweep", "--linewidths-hz", 9.5e6, "--delays-s", 0.04e-9,
                   "--seed", 4, "--out-dir", tmp_path, *NFFT_FAST) == 4
        assert one_error_line(capsys, "all-points-failed").endswith(
            "all 1 points failed")

    def test_missing_grid(self, tmp_path):
        assert run("sweep", "--out-dir", tmp_path) == 2

    @pytest.fixture
    def simulated(self, monkeypatch):
        """The quantum traces the sweep simulates, by their arguments."""
        calls = []
        real = optimizer._quantum_trace

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(optimizer, "_quantum_trace", counted)
        return calls

    @pytest.mark.parametrize("argv", [
        ["--nfft", 1000], ["--overlap", 1.5], ["--plateau-bins", 0],
        ["--n-samples", 1], ["--n-samples", 2**60], ["--amplitude", 0],
        ["--linewidths-hz", 1e7, "nan"], ["--linewidths-hz", 1e7, "inf"],
        ["--linewidths-hz", 5e6, 5e6]],
        ids=["nfft", "overlap", "plateau-bins", "n-samples", "n-samples-2^60",
             "amplitude", "linewidth-nan", "linewidth-inf", "linewidth-repeated"])
    def test_setting_invalid_for_every_point(self, tmp_path, capsys, simulated,
                                             argv):
        assert run("sweep", "--linewidths-hz", 5e6, 9.5e6,
                   "--delays-s", 2.5e-9, 6.5e-9, "--seed", 4,
                   "--out-dir", tmp_path / "out", *NFFT_FAST, *argv) == 2
        one_error_line(capsys, "invalid-parameter")
        assert len(simulated) == 0
        assert not (tmp_path / "out").exists()

    def test_entropy_method_flag_is_gone(self, tmp_path, capsys):
        # the sweep has one H_min route, the analytic model
        with pytest.raises(SystemExit) as exc:
            run("sweep", "--entropy-method", "analytic",
                "--linewidths-hz", 9.5e6, "--delays-s", 2.5e-9,
                "--out-dir", tmp_path, *NFFT_FAST)
        assert exc.value.code == 2
        one_error_line(capsys, "invalid-parameter")

    def test_default_seed_is_the_api_default(self, tmp_path):
        # no --seed: the CLI and SimSettings share one master seed default
        out = tmp_path / "s"
        assert run("sweep", "--linewidths-hz", 5e6, 9.5e6,
                   "--delays-s", 2.5e-9, 6.5e-9, "--out-dir", out,
                   "--n-samples", 65536, "--nfft", 1024) == 0
        result = optimizer.sweep(optimizer.SweepGrid(
            (5e6, 9.5e6), (2.5e-9, 6.5e-9),
            optimizer.SimSettings(n_samples=2**16, nfft=1024)))
        rows = [p.to_dict() for p in result.points]
        assert (out / "sweep.csv").read_text() == cli._csv(
            list(rows[0]), [row.values() for row in rows])

    def test_point_dependent_failures_stay_per_point(self, tmp_path, simulated):
        # at 2**15 samples: k = 31000 leaves 1768 < 2 * nfft trace samples,
        # and k = 40000 is longer than the path
        out = tmp_path / "s"
        assert run("sweep", "--linewidths-hz", 9.5e6,
                   "--delays-s", 0.04e-9, 2.5e-9, 3.1e-6, 4e-6, "--seed", 4,
                   "--out-dir", out, *NFFT_FAST) == 0
        report = json.loads((out / "report.json").read_text())
        assert [f["error"] for f in report["results"]["failures"]] == [
            "delay-too-small", "trace-too-short", "path-too-short"]
        assert len(simulated) == 3
        assert run("sweep", "--linewidths-hz", 9.5e6, "--delays-s", 3.1e-6,
                   4e-6, "--out-dir", tmp_path / "all", *NFFT_FAST) == 4

    def test_reported_seeds_are_the_simulated_ones(self, tmp_path, simulated):
        out = tmp_path / "s"
        assert run("sweep", "--linewidths-hz", 5e6, 9.5e6,
                   "--delays-s", 0.04e-9, 2.5e-9, "--seed", 4,
                   "--out-dir", out, *NFFT_FAST) == 0
        per_point = json.loads((out / "report.json").read_text())[
            "seeds"]["per_point"]
        assert [(p["linewidth_hz"], p["delay_s"]) for p in per_point] == [
            (5e6, 0.04e-9), (5e6, 2.5e-9), (9.5e6, 0.04e-9), (9.5e6, 2.5e-9)]
        # the delay below one sample fails before its path is drawn
        assert [call[2] for call in simulated] == [per_point[1]["seed"],
                                                   per_point[3]["seed"]]
        assert per_point[0]["seed"] == derive_seed(4, 0, 0)


class TestExtract:
    def _codes_file(self, tmp_path, n_codes=256, seed=21):
        adc = AdcSpec()
        theta = gaussian_stream(seed, n_codes) * math.sqrt(0.4)
        q = AnalogTrace(adc.default_amplitude() * np.sin(theta), 1e-10, "quantum")
        from lpnqrng import quantize

        path = tmp_path / "codes.i16"
        write_quantized_trace(path, quantize(q, adc))
        return path

    def test_production_geometry_block(self, tmp_path):
        path = self._codes_file(tmp_path)  # 256 codes = exactly 2048 bits
        out = tmp_path / "x"
        assert run("extract", "--codes", path, "--n-in", 2048, "--n-out", 1800,
                   "--seed", 6, "--out-dir", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["output_bits"] == 1800
        assert report["results"]["bits_per_input_sample"] == pytest.approx(
            1800 * 8 / 2048)
        assert len((out / "random.bin").read_bytes()) == 225

    def test_h_min_route(self, tmp_path):
        path = self._codes_file(tmp_path)
        out = tmp_path / "x"
        assert run("extract", "--codes", path, "--n-in", 2048,
                   "--h-min", 7.03, "--seed", 6, "--out-dir", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["resolved_config"]["n_out"] == 1799

    def test_zero_seed_warns_and_zeroes(self, tmp_path, capsys):
        path = self._codes_file(tmp_path)
        seed_file = tmp_path / "zero.seed"
        seed_file.write_bytes(bytes((2048 + 1800 - 1 + 7) // 8))
        out = tmp_path / "x"
        assert run("extract", "--codes", path, "--n-in", 2048, "--n-out", 1800,
                   "--seed-file", seed_file, "--out-dir", out) == 0
        assert "all-zero" in capsys.readouterr().err
        assert (out / "random.bin").read_bytes() == bytes(225)

    def test_requires_exactly_one_size_mode(self, tmp_path):
        path = self._codes_file(tmp_path)
        assert run("extract", "--codes", path, "--n-in", 2048,
                   "--out-dir", tmp_path) == 2
        assert run("extract", "--codes", path, "--n-in", 2048, "--n-out", 10,
                   "--h-min", 1.0, "--out-dir", tmp_path) == 2

    def test_trace_shorter_than_one_block(self, tmp_path, capsys):
        path = self._codes_file(tmp_path, n_codes=4095)  # 32760 bits
        out = tmp_path / "x"
        assert run("extract", "--codes", path, "--n-in", 100000, "--n-out", 10,
                   "--out-dir", out) == 2
        one_error_line(capsys, "trace-too-short")
        assert not (out / "random.bin").exists()
        assert not (out / "report.json").exists()

    def test_trace_of_exactly_one_block(self, tmp_path):
        path = self._codes_file(tmp_path, n_codes=4095)
        out = tmp_path / "x"
        assert run("extract", "--codes", path, "--n-in", 4095 * 8,
                   "--n-out", 10, "--out-dir", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["output_bits"] == 10
        assert report["results"]["n_blocks"] == 1

    def test_short_seed_file(self, tmp_path):
        path = self._codes_file(tmp_path)
        seed_file = tmp_path / "short.seed"
        seed_file.write_bytes(b"\x01\x02")
        assert run("extract", "--codes", path, "--n-in", 2048, "--n-out", 1800,
                   "--seed-file", seed_file, "--out-dir", tmp_path) == 2

    def test_seed_and_seed_file_are_ambiguous(self, tmp_path, capsys):
        path = self._codes_file(tmp_path)
        seed_file = tmp_path / "x.seed"
        seed_file.write_bytes(bytes(range(256)) * 2)
        out = tmp_path / "x"
        assert run("extract", "--codes", path, "--n-in", 2048, "--n-out", 1800,
                   "--seed", 5, "--seed-file", seed_file, "--out-dir", out) == 2
        one_error_line(capsys, "ambiguous-input")
        assert not out.exists()

    @pytest.mark.parametrize("n_in,size,message", [
        (64, ["--n-out", -200], "--n-out must be an integer in [1, 64], got -200"),
        (64, ["--n-out", 65], "--n-out must be an integer in [1, 64], got 65"),
        (0, ["--n-out", 1], "--n-in must be an integer >= 1, got 0"),
        (0, ["--h-min", 7], "--n-in must be an integer >= 1, got 0"),
        (64, ["--h-min", 0],
         "output bits from --h-min must be an integer in [1, 64], got 0"),
        (64, ["--h-min", 9], "--h-min must be in [0, 8], got 9.0"),
        (64, ["--h-min", "nan"], "--h-min must be in [0, 8], got nan")],
        ids=["n-out-negative", "n-out-above-n-in", "n-in-zero",
             "n-in-zero-with-h-min", "h-min-zero", "h-min-above-bits",
             "h-min-nan"])
    def test_geometry_checked_in_one_line(self, tmp_path, capsys, n_in, size,
                                          message):
        path = self._codes_file(tmp_path)
        out = tmp_path / "x"
        assert run("extract", "--codes", path, "--n-in", n_in, *size,
                   "--out-dir", out) == 2
        assert one_error_line(capsys, "invalid-parameter").endswith(message)
        assert not out.exists()

    def test_trace_too_short_checked_before_the_seed_is_drawn(self, tmp_path,
                                                              capsys):
        # n_in + n_out - 1 seed bits would take 11.6 GiB; none are drawn
        path = self._codes_file(tmp_path, n_codes=4095)
        tracemalloc.start()
        try:
            code = run("extract", "--codes", path, "--n-in", 99999999999,
                       "--n-out", 1, "--out-dir", tmp_path / "x")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        one_error_line(capsys, "trace-too-short")
        assert peak < 2**20, peak


class TestInvertVariance:
    def test_forward_constructed_fixture(self, capsys):
        assert run("invert-variance", "--sigma-m2", 0.416060,
                   "--sigma-c2", 0.1, "--amplitude", 1.0) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["sigma2_rad2"] == pytest.approx(0.5, abs=1e-5)
        assert report["results"]["linewidth_delay_product"] == pytest.approx(
            0.079577, abs=1e-5)

    def test_equal_variances(self, capsys):
        assert run("invert-variance", "--sigma-m2", 0.3, "--sigma-c2", 0.3,
                   "--amplitude", 1.0) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["sigma2_rad2"] == 0.0

    def test_domain_edge(self):
        assert run("invert-variance", "--sigma-m2", 0.6, "--sigma-c2", 0.1,
                   "--amplitude", 1.0) == 4

    def test_classical_exceeds_measured(self):
        assert run("invert-variance", "--sigma-m2", 0.1, "--sigma-c2", 0.2,
                   "--amplitude", 1.0) == 4

    def test_csv_format(self, capsys):
        assert run("invert-variance", "--sigma-m2", 0.416060, "--sigma-c2", 0.1,
                   "--amplitude", 1.0, "--format", "csv") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "sigma_q2,sigma2_rad2,linewidth_delay_product"

    # A * A is inf above about 1.34e154 V: sigma2 read 0.0 at 1.5e154,
    # and inf / inf printed NaN at 1e200
    @pytest.mark.parametrize("sigma_m2,amplitude", [(5e307, 1.5e154),
                                                    (1e308, 1e200)])
    def test_amplitude_whose_square_overflows(self, capsys, sigma_m2,
                                              amplitude):
        assert run("invert-variance", "--sigma-m2", sigma_m2, "--sigma-c2", 0,
                   "--amplitude", amplitude) == 2
        assert "amplitude" in one_error_line(capsys, "invalid-parameter")

    def test_largest_amplitude_with_a_finite_square(self, capsys):
        assert run("invert-variance", "--sigma-m2", 5e307, "--sigma-c2", 0,
                   "--amplitude", 1.34e154) == 0
        sigma2 = json.loads(capsys.readouterr().out)["results"]["sigma2_rad2"]
        assert sigma2 == -0.5 * math.log1p(-2.0 * 5e307 / (1.34e154 * 1.34e154))

    @pytest.mark.parametrize("flag,value", [
        ("--sigma-m2", "nan"), ("--sigma-c2", "nan"), ("--amplitude", "nan"),
        ("--amplitude", "inf")])
    def test_non_finite_input(self, capsys, flag, value):
        argv = {"--sigma-m2": 0.416060, "--sigma-c2": 0.1, "--amplitude": 1.0,
                flag: value}
        assert run("invert-variance", *[a for kv in argv.items() for a in kv]) == 2
        one_error_line(capsys, "invalid-parameter")


class TestReport:
    """Every command's report is completed, written and printed by main."""

    SIM = ["--linewidth-hz", 9.5e6, "--delay-s", 6.5e-9,
           "--sample-period-s", 6.5e-9, "--n-samples", 4096]

    @pytest.fixture
    def codes(self, tmp_path):
        """A code trace of 4095 samples, one per delay."""
        assert run("simulate", *self.SIM, "--out-dir", tmp_path / "sim") == 0
        return tmp_path / "sim"

    @pytest.mark.parametrize("command", ["simulate", "psd", "entropy", "sweep",
                                         "extract", "invert-variance"])
    def test_every_command_reports_the_same_keys(self, tmp_path, capsys, codes,
                                                 command):
        argv = {
            "simulate": self.SIM,
            "psd": ["--trace", codes / "quantum.f64", "--nfft", 256],
            "entropy": ["--codes", codes / "codes.i16"],
            "sweep": ["--linewidths-hz", 9.5e6, "--delays-s", 2.5e-9,
                      *NFFT_FAST],
            "extract": ["--codes", codes / "codes.i16", "--n-in", 2048,
                        "--n-out", 1800],
            "invert-variance": ["--sigma-m2", 0.41606, "--sigma-c2", 0.1,
                                "--amplitude", 1],
        }[command]
        out = tmp_path / "out"
        capsys.readouterr()
        assert run(command, *argv, "--out-dir", out) == 0
        path = out / "report.json"
        report = json.loads(path.read_text())
        seeds = {"seeds"} if command in ("simulate", "sweep") else set()
        assert set(report) == {"tool", "command", "resolved_config", "results",
                               "timing_s"} | seeds
        assert report["command"] == command
        assert report["timing_s"]["total"] > 0
        stdout = capsys.readouterr().out
        if command in ("entropy", "invert-variance"):
            assert json.loads(stdout) == report
        else:
            assert stdout.endswith(f"; report {path}\n")

    @pytest.mark.parametrize("argv", [
        ["entropy", "--linewidth-hz", 9.5e6, "--delay-s", 6.5e-9],
        ["entropy", "--sigma-q2", 0.1, "--amplitude", 0.75],
        ["entropy", "--codes", "CODES", "--histogram-csv", "HIST"],
        ["invert-variance", "--sigma-m2", 0.41606, "--sigma-c2", 0.1,
         "--amplitude", 1]], ids=["design", "variance", "codes", "invert"])
    def test_csv_row_is_the_scalar_results(self, tmp_path, capsys, codes, argv):
        argv = [{"CODES": codes / "codes.i16", "HIST": tmp_path / "h.csv"}
                .get(a, a) for a in argv]
        capsys.readouterr()
        assert run(*argv) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        results.pop("files", None)
        assert run(*argv, "--format", "csv") == 0
        header, row = (line.split(",")
                       for line in capsys.readouterr().out.splitlines())
        # the JSON is printed with sorted keys; test_csv_format pins the order
        assert sorted(header) == sorted(results) and len(row) == len(header)
        for key, cell in zip(header, row):
            value = results[key]
            if value is None:
                assert cell == ""
            elif isinstance(value, str):
                assert cell == value
            else:
                assert float(cell) == value


class TestMasterSeed:
    """A master seed is a 64-bit stream key, an integer in [0, 2**64). One
    outside that range is rejected where it enters, by flag or config,
    instead of running the stream of the seed it wraps to."""

    ARGV = {
        "simulate": ["--linewidth-hz", 9.5e6, "--delay-s", 6.5e-9,
                     "--sample-period-s", 6.5e-9, "--n-samples", 4096],
        "sweep": ["--linewidths-hz", 9.5e6, "--delays-s", 2.5e-9, *NFFT_FAST],
        "extract": ["--codes", "CODES", "--n-in", 2048, "--n-out", 1800],
    }
    ENTRIES = [("simulate", "flag"), ("simulate", "config"), ("sweep", "flag"),
               ("sweep", "config"), ("extract", "flag")]

    @pytest.fixture
    def codes(self, tmp_path):
        assert run("simulate", *self.ARGV["simulate"],
                   "--out-dir", tmp_path / "sim") == 0
        return tmp_path / "sim" / "codes.i16"

    def run_with_seed(self, tmp_path, codes, command, source, seed):
        argv = [codes if a == "CODES" else a for a in self.ARGV[command]]
        if source == "config":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"sim": {"master_seed": seed}}))
            argv += ["--config", cfg]
        else:
            argv += ["--seed", seed]
        return run(command, *argv, "--out-dir", tmp_path / "out")

    @pytest.mark.parametrize("seed", [2**64 + 7, -5], ids=["2^64+7", "negative"])
    @pytest.mark.parametrize("command,source", ENTRIES)
    def test_out_of_range_rejected(self, tmp_path, capsys, codes, command,
                                   source, seed):
        capsys.readouterr()
        assert self.run_with_seed(tmp_path, codes, command, source, seed) == 2
        key = "--seed" if command == "extract" else "sim.master_seed"
        assert key in one_error_line(capsys, "invalid-parameter")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", [0, 2**64 - 1], ids=["0", "2^64-1"])
    @pytest.mark.parametrize("command,source", ENTRIES)
    def test_range_ends_accepted(self, tmp_path, codes, command, source, seed):
        assert self.run_with_seed(tmp_path, codes, command, source, seed) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        if command == "extract":
            assert report["resolved_config"]["seed_source"][
                "derived_from_master"] == seed
        else:
            assert report["seeds"]["master"] == seed


class TestOutOfMemory:
    ARGV = {"simulate": ["--linewidth-hz", 9.5e6, "--delay-s", 6.5e-9],
            "sweep": ["--linewidths-hz", 9.5e6, "--delays-s", 2.5e-9]}

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("n_samples,exit_code,code", [
        (2**60, 2, "invalid-parameter"), (2**60 - 1, 3, "out-of-memory")],
        ids=["2^60", "2^60-1"])
    def test_n_samples_bound(self, tmp_path, capsys, command, n_samples,
                             exit_code, code):
        # 2**60 float64s are more bytes than NumPy can size; one fewer is
        # sized and then fails to allocate
        out = tmp_path / "out"
        assert run(command, *self.ARGV[command], "--n-samples", n_samples,
                   "--out-dir", out) == exit_code
        one_error_line(capsys, code)
        assert not out.exists()

    def test_memory_error_ends_in_one_line(self, monkeypatch, capsys):
        def exhausted(args):
            raise MemoryError("Unable to allocate 74.5 TiB for an array")

        monkeypatch.setattr(cli, "cmd_simulate", exhausted)
        assert run("simulate", "--linewidth-hz", 9.5e6, "--delay-s", 6.5e-9,
                   "--n-samples", 10**13) == 3
        line = one_error_line(capsys, "out-of-memory")
        assert line.endswith("Unable to allocate 74.5 TiB for an array")


class TestEntryPoint:
    """``python -m lpnqrng`` runs main and exits with its return code."""

    @pytest.mark.parametrize("argv,code", [
        (["--version"], 0),
        (["simulate", "--n-samples", "abc"], 2),
        (["invert-variance", "--sigma-m2", "0.41606", "--sigma-c2", "0.1",
          "--amplitude", "1"], 0)], ids=["version", "bad-flag", "invert"])
    def test_module_entry_point(self, argv, code):
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-m", "lpnqrng", *argv],
                              capture_output=True, text=True, timeout=300,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == code, proc.stderr
        if argv[0] == "--version":
            assert proc.stdout.strip()
        elif code == 2:
            err = proc.stderr.splitlines()
            assert len(err) == 1
            assert err[0].startswith("lpnqrng: error: invalid-parameter:")
        else:
            assert json.loads(proc.stdout)["command"] == "invert-variance"

    def test_import_loads_no_signal_or_stats(self):
        # scipy.signal pulls in scipy.stats and some 400 more modules,
        # most of the start-up time of every command; Welch and the
        # extractor use NumPy's FFT
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", "import lpnqrng, sys; print(sorted("
             "m for m in ('scipy.signal', 'scipy.stats', 'scipy.fft') "
             "if m in sys.modules))"],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_every_public_name_resolves(self):
        # the package exports what a command, a benchmark workload or a
        # README example uses: the Monte Carlo oracle lives in the tests,
        # delay_index and forward_variance in their modules
        assert all(hasattr(lpnqrng, name) for name in lpnqrng.__all__)
        assert not {"monte_carlo_code_histogram", "delay_index",
                    "forward_variance"} & set(lpnqrng.__all__)


class TestResolver:
    # per command: the flags of one valid run, a config section it reads
    # that is not an object, and a mistyped value it reads, with its key
    CASES = {
        "simulate": (["--linewidth-hz", 9.5e6, "--delay-s", 6.5e-9,
                      "--n-samples", 4096],
                     {"system": 5}, {"sim": {"n_samples": "abc"}},
                     "sim.n_samples"),
        "psd": ([], {"spectral": [1024]}, {"spectral": {"nfft": "abc"}},
                "spectral.nfft"),
        "entropy": (["--linewidth-hz", 9.5e6, "--delay-s", 6.5e-9],
                    {"system": {"adc": 8}},
                    {"system": {"adc": {"bits": [8]}}}, "system.adc.bits"),
        # the mistyped value is rejected even where a flag overrides it
        "sweep": (["--linewidths-hz", 9.5e6, "--delays-s", 2.5e-9,
                   *NFFT_FAST],
                  {"sweep": 5}, {"sim": {"n_samples": "abc"}},
                  "sim.n_samples"),
    }

    @pytest.mark.parametrize("command", list(CASES))
    @pytest.mark.parametrize("fault", ["non-object-section", "mistyped-value"])
    def test_malformed_config(self, tmp_path, capsys, command, fault):
        flags, section, value, key = self.CASES[command]
        if command == "psd":
            trace = tmp_path / "q.f64"
            write_analog_trace(trace, AnalogTrace(0.1 * gaussian_stream(8, 2**12),
                                                  1e-10, "measured"))
            flags = ["--trace", trace, "--nfft", 256]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(section if fault == "non-object-section"
                                  else value))
        assert run(command, *flags, "--config", cfg,
                   "--out-dir", tmp_path / "out") == 2
        line = one_error_line(capsys, "invalid-parameter")
        if fault == "mistyped-value":
            assert key in line
        assert not (tmp_path / "out").exists()

    def test_list_key_given_a_number(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": {"delays_s": 2.5e-9}}))
        assert run("sweep", "--linewidths-hz", 9.5e6, *NFFT_FAST,
                   "--config", cfg, "--out-dir", tmp_path / "out") == 2
        assert "sweep.delays_s" in one_error_line(capsys, "invalid-parameter")
        assert not (tmp_path / "out").exists()

    @staticmethod
    def _subparsers():
        action, = [a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
        return action.choices

    def test_resolves_exactly_the_registered_keys(self, tmp_path):
        # a config that sets every key any command can read
        full = {}
        for path, (_, kind, _, _) in cli._KEYS.items():
            *parents, key = path.split(".")
            node = full
            for name in parents:
                node = node.setdefault(name, {})
            node[key] = {int: 4, float: 1.5, list: [1.5], str: "x"}[kind]
        cfg = tmp_path / "full.json"
        cfg.write_text(json.dumps(full))

        def leaves(conf, prefix=""):
            for name, value in conf.items():
                if isinstance(value, dict):
                    yield from leaves(value, f"{prefix}{name}.")
                else:
                    yield prefix + name

        commands = {name: p for name, p in self._subparsers().items()
                    if "--config" in p._option_string_actions}
        assert sorted(commands) == ["entropy", "psd", "simulate", "sweep"]
        for name, p in commands.items():
            registered = {a.dest for a in p._actions if a.dest in cli._KEYS}
            defaulted = {path for path in registered if cli._KEYS[path][2]
                         is not None}
            args = argparse.Namespace(**{a.dest: a.default for a in p._actions})
            assert set(leaves(cli._resolve(args))) == defaulted, name
            args.config = str(cfg)
            assert set(leaves(cli._resolve(args))) == registered, name

    @pytest.mark.parametrize("command,flags,cfg", [
        ("sweep", ["--linewidths-hz", 9.5e6, "--delays-s", 2.5e-9, *NFFT_FAST],
         {"system": {"sigma_ele": "abc"}}),
        ("entropy", ["--linewidth-hz", 9.5e6, "--delay-s", 6.5e-9],
         {"system": {"sample_period_s": "abc"}}),
        ("sweep", ["--linewidths-hz", 9.5e6, "--delays-s", 2.5e-9, *NFFT_FAST],
         {"entropy_method": "bogus"})],
        ids=["sweep", "entropy", "sweep-entropy-method"])
    def test_key_a_command_does_not_read_is_ignored(self, tmp_path, command,
                                                   flags, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run(command, *flags, "--config", path,
                   "--out-dir", tmp_path / "out") == 0

    @pytest.mark.parametrize("command,flag", [
        ("simulate", "--format"), ("psd", "--format"), ("sweep", "--format"),
        ("extract", "--format"), ("psd", "--seed"), ("entropy", "--seed"),
        ("invert-variance", "--seed"), ("extract", "--config"),
        ("invert-variance", "--config"), ("sweep", "--sigma-ele")])
    def test_flags_a_command_ignores_are_rejected(self, capsys, command, flag):
        required = {"psd": ["--trace", "t.f64"],
                    "extract": ["--codes", "c.i16", "--n-in", 8],
                    "invert-variance": ["--sigma-m2", 1, "--sigma-c2", 0,
                                        "--amplitude", 1]}
        with pytest.raises(SystemExit) as exc:
            run(command, *required.get(command, []), flag, "1")
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestParser:
    def test_readme_flag_table_matches_the_parser(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
        table = {}
        for line in section.splitlines():
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            if line.startswith("| `") and len(cells) == 2:
                table[cells[0].strip("`")] = set(
                    re.findall(r"`(--[a-z0-9-]+)`", cells[1]))
        parsers = TestResolver._subparsers()
        assert sorted(table) == sorted(parsers)
        for name, p in parsers.items():
            flags = set(p._option_string_actions) - {"-h", "--help"}
            assert table[name] == flags, name

    @pytest.mark.parametrize("argv", [
        ["simulate", "--n-samples", "abc"],
        ["simulate", "--bogus"],
        ["psd"],
        [],
        ["nosuch"],
        ["entropy", "--format", "xml"],
        ["extract", "--codes", "c.i16", "--n-in"],
    ], ids=["malformed", "unknown", "missing-required", "no-command",
            "unknown-command", "bad-choice", "missing-value"])
    def test_bad_command_line_is_one_error_line(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2
        one_error_line(capsys, "invalid-parameter")

    @pytest.mark.parametrize("argv", [["--help"], ["--version"],
                                      ["psd", "--help"]])
    def test_help_and_version_exit_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out
