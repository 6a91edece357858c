import json
import math

import numpy as np
import pytest

from lpnqrng import AdcSpec, QuantizedTrace, gaussian_stream, optimizer
from lpnqrng.cli import main
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

    def test_bad_config_json(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{nope")
        assert run("simulate", "--config", cfg, "--out-dir", tmp_path) == 2

    @pytest.mark.parametrize("raw", [b"\xff\xfe{", b"[" * 100_000],
                             ids=["not-utf8", "too-deep"])
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
    ], ids=["fraction", "true", "false", "adc-bits-fraction", "amplitude-true",
            "sigma-ele-false", "linewidth-string"])
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

    def test_missing_metadata_exit_code(self, tmp_path):
        orphan = tmp_path / "orphan.f64"
        orphan.write_bytes(b"\x00" * 80)
        assert run("psd", "--trace", orphan, "--out-dir", tmp_path) == 3

    def test_missing_file_exit_code(self, tmp_path):
        assert run("psd", "--trace", tmp_path / "nope.f64",
                   "--out-dir", tmp_path) == 3

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

    @pytest.mark.parametrize("value", [8.7, True],
                             ids=["fraction", "true"])
    def test_non_integer_sidecar_n_samples(self, tmp_path, capsys, value):
        path = tmp_path / "q.f64"
        write_analog_trace(path, AnalogTrace(np.zeros(8), 1e-10, "quantum"))
        side = tmp_path / "q.f64.meta.json"
        meta = json.loads(side.read_text())
        meta["n_samples"] = value
        side.write_text(json.dumps(meta))
        assert run("psd", "--trace", path, "--out-dir", tmp_path) == 3
        one_error_line(capsys, "missing-metadata")

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

    def test_variance_mode(self, capsys):
        assert run("entropy", "--sigma-q2", 0.1, "--amplitude", 0.75) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["sigma2_rad2"] > 0

    def test_clipping_amplitude_rejected(self):
        # analytic model requires the peak to stay inside the converter range
        assert run("entropy", "--sigma-q2", 0.1, "--amplitude", 1.0) == 2

    def test_variance_mode_out_of_range(self):
        assert run("entropy", "--sigma-q2", 0.5, "--amplitude", 1.0) == 4

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

    def test_partial_failures_keep_exit_zero(self, tmp_path):
        out = tmp_path / "s"
        assert run("sweep", "--linewidths-hz", 9.5e6,
                   "--delays-s", 0.04e-9, 2.5e-9, "--seed", 4,
                   "--out-dir", out, *NFFT_FAST) == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["results"]["failures"]) == 1
        assert report["results"]["failures"][0]["error"] == "delay-too-small"

    def test_all_points_failed(self, tmp_path):
        assert run("sweep", "--linewidths-hz", 9.5e6, "--delays-s", 0.04e-9,
                   "--seed", 4, "--out-dir", tmp_path, *NFFT_FAST) == 4

    def test_missing_grid(self, tmp_path):
        assert run("sweep", "--out-dir", tmp_path) == 2

    @pytest.fixture
    def simulated(self, monkeypatch):
        """The number of phase paths the sweep simulates."""
        calls = []
        real = optimizer.sample_phase_path

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(optimizer, "sample_phase_path", counted)
        return calls

    @pytest.mark.parametrize("argv", [
        ["--nfft", 1000], ["--overlap", 1.5], ["--plateau-bins", 0],
        ["--n-samples", 1], ["--amplitude", 1.0],
        ["--linewidths-hz", 1e7, "nan"], ["--linewidths-hz", 1e7, "inf"]],
        ids=["nfft", "overlap", "plateau-bins", "n-samples", "amplitude",
             "linewidth-nan", "linewidth-inf"])
    def test_setting_invalid_for_every_point(self, tmp_path, capsys, simulated,
                                             argv):
        assert run("sweep", "--linewidths-hz", 5e6, 9.5e6,
                   "--delays-s", 2.5e-9, 6.5e-9, "--seed", 4,
                   "--out-dir", tmp_path / "out", *NFFT_FAST, *argv) == 2
        one_error_line(capsys, "invalid-parameter")
        assert len(simulated) == 0
        assert not (tmp_path / "out").exists()

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

    def test_short_seed_file(self, tmp_path):
        path = self._codes_file(tmp_path)
        seed_file = tmp_path / "short.seed"
        seed_file.write_bytes(b"\x01\x02")
        assert run("extract", "--codes", path, "--n-in", 2048, "--n-out", 1800,
                   "--seed-file", seed_file, "--out-dir", tmp_path) == 2


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

    @pytest.mark.parametrize("flag,value", [
        ("--sigma-m2", "nan"), ("--sigma-c2", "nan"), ("--amplitude", "nan"),
        ("--amplitude", "inf")])
    def test_non_finite_input(self, capsys, flag, value):
        argv = {"--sigma-m2": 0.416060, "--sigma-c2": 0.1, "--amplitude": 1.0,
                flag: value}
        assert run("invert-variance", *[a for kv in argv.items() for a in kv]) == 2
        one_error_line(capsys, "invalid-parameter")


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
