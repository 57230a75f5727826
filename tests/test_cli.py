"""End-to-end CLI tests: subcommands, file plumbing, exit codes."""

import argparse
import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cyclodet import (
    ChannelConfig,
    FormatError,
    GsmSynthConfig,
    IqFileMeta,
    LteSynthConfig,
    SweepConfig,
    apply_channel,
    emit_figure_data,
    load_iq,
    save_iq,
    synth_gsm,
)
from cyclodet import cli
from cyclodet.cli import _parse_float_list, build_parser, main
from cyclodet.iq_io import _READ_CHUNK


def run(argv):
    return main(argv)


def test_synth_gsm_writes_capture(tmp_path):
    out = tmp_path / "g.iq"
    assert run(["synth-gsm", "--slots", "8", "--seed", "1", "--out", str(out)]) == 0
    buf = load_iq(out)
    assert len(buf) == 5000
    assert buf.sample_rate_hz == pytest.approx(1_083_333.3333333, abs=1e-3)


def test_seed_is_mandatory_for_randomized_commands(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["synth-gsm", "--slots", "8", "--out", str(tmp_path / "g.iq")])
    assert exc.value.code == 2


def test_full_pipeline_classify_detects_gsm(tmp_path, capsys):
    clean = tmp_path / "clean.iq"
    rx = tmp_path / "rx.iq"
    assert run(["synth-gsm", "--slots", "60", "--guard-mode", "gated",
                "--seed", "7", "--out", str(clean)]) == 0
    assert run(["channel", "--in", str(clean), "--snr-db", "15", "--standard", "gsm",
                "--seed", "9", "--out", str(rx)]) == 0
    code = run(["classify", "--in", str(rx), "--pf", "0.01", "--profiles", "gsm,lte"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "profile,statistic,threshold,detected,label"
    assert lines[1].endswith(",gsm")


def test_classify_json_and_negative_exit(tmp_path, capsys):
    noisy = tmp_path / "n.iq"
    # noise-only capture via synth-lte at occupancy 0 has pilots; use channel
    # on a pure-noise file instead: make tiny signal then huge negative SNR.
    assert run(["synth-lte", "--slots", "30", "--seed", "3", "--out", str(noisy)]) == 0
    rx = tmp_path / "rx.iq"
    assert run(["channel", "--in", str(noisy), "--snr-db", "-40", "--seed", "4",
                "--out", str(rx)]) == 0
    code = run(["classify", "--in", str(rx), "--pf", "0.001", "--json"])
    out = capsys.readouterr().out
    assert '"label"' in out
    if '"label": "unknown"' in out:
        assert code == 1
    else:
        assert code == 0


@pytest.mark.parametrize("pf", [0.1, 0.01, 1e-3])
@pytest.mark.parametrize("profiles", ["gsm", "lte", "gsm,lte"])
def test_classify_json_reports_the_record_false_alarm_rate(tmp_path, capsys, pf, profiles):
    # 1 - (1 - P_F)^K for K profiles; the CSV report and the decision stay as they were.
    data = tmp_path / "n.iq"
    assert run(["synth-lte", "--slots", "30", "--seed", "3", "--out", str(data)]) == 0
    common = ["classify", "--in", str(data), "--pf", str(pf), "--profiles", profiles]
    code = run([*common, "--json"])
    record = json.loads(capsys.readouterr().out)
    k = len(profiles.split(","))
    assert record["p_f_record"] == pytest.approx(1 - (1 - pf) ** k, rel=1e-12)
    assert list(record)[:4] == ["label", "sigma_r_sq", "m_r", "p_f_record"]
    assert run(common) == code
    assert "p_f_record" not in capsys.readouterr().out


def test_channel_slot_length_turns_on_uniform_offset(tmp_path):
    clean = tmp_path / "c.iq"
    run(["synth-gsm", "--slots", "8", "--seed", "1", "--out", str(clean)])
    ref = tmp_path / "ref.iq"
    cfg = ChannelConfig(snr_db=np.inf, num_taps=1, timing_offset_slot_samples=625, seed=3)
    save_iq(apply_channel(load_iq(clean), cfg), ref)
    common = ["channel", "--in", str(clean), "--snr-db", "inf", "--taps", "1", "--seed", "3"]
    for i, flags in enumerate((["--timing-slot-samples", "625"], ["--standard", "gsm"], [])):
        out = tmp_path / f"o{i}.iq"
        assert run(common + flags + ["--out", str(out)]) == 0
        # Either flag alone gives the 625-sample GSM slot offset; neither, none.
        assert (out.read_bytes() == ref.read_bytes()) == bool(flags)
    with pytest.raises(SystemExit) as exc:
        run(common + ["--timing-slot-samples", "625", "--standard", "gsm",
                      "--out", str(tmp_path / "both.iq")])
    assert exc.value.code == 2


def test_parser_defaults_come_from_the_configs():
    # Every field of each config is the dest of an option, so a misspelled
    # dest fails here, and each field with a default takes that default.
    def parse(*argv):
        return vars(build_parser().parse_args([*argv, "--seed", "0", "--out", "x.iq"]))

    cases = [
        (parse("synth-gsm", "--slots", "1"), GsmSynthConfig),
        (parse("synth-lte", "--slots", "1"), LteSynthConfig),
        (parse("channel", "--in", "x", "--snr-db", "0"), ChannelConfig),
    ]
    for args, config in cases:
        for field in dataclasses.fields(config):
            assert field.name in args, (config.__name__, field.name)
            if field.default is not dataclasses.MISSING:
                assert args[field.name] == field.default, (config.__name__, field.name)
    args = parse("sweep", "--standard", "gsm", "--snr", "0", "--obs-ms", "10")
    assert args["trials"] == SweepConfig.n_trials
    assert _parse_float_list(args["pf"]) == SweepConfig.p_f_list
    assert (build_parser().parse_args(["classify", "--in", "x"]).pf,) == SweepConfig.p_f_list


_CHANNEL = ["channel", "--snr-db", "12.5", "--taps", "3", "--decay", "2.5", "--cfo-hz", "40",
            "--seed", "13"]


@pytest.mark.parametrize("target,argv,expected", [
    ("synth_gsm", ["synth-gsm", "--slots", "4", "--oversample", "8", "--tsc", "5",
                   "--guard-mode", "gated", "--seed", "11"],
     GsmSynthConfig(num_slots=4, oversample=8, training_sequence_index=5, seed=11,
                    guard_mode="gated")),
    ("synth_lte", ["synth-lte", "--slots", "2", "--rb", "15", "--fft-size", "256",
                   "--rs-boost-db", "3.5", "--cell-seed", "9", "--occupancy", "0.5",
                   "--seed", "12"],
     LteSynthConfig(num_slots=2, n_rb=15, fft_size=256, rs_power_boost_db=3.5, cell_seed=9,
                    seed=12, data_occupancy=0.5)),
    ("apply_channel", _CHANNEL + ["--timing-slot-samples", "100"],
     ChannelConfig(snr_db=12.5, num_taps=3, pdp_decay=2.5, timing_offset_slot_samples=100,
                   cfo_hz=40.0, seed=13)),
    # One LTE slot at the GSM rate of the input: round(0.5 ms * 1.0833 MHz).
    ("apply_channel", _CHANNEL + ["--standard", "lte"],
     ChannelConfig(snr_db=12.5, num_taps=3, pdp_decay=2.5, timing_offset_slot_samples=542,
                   cfo_hz=40.0, seed=13)),
], ids=["synth-gsm", "synth-lte", "channel-slot-samples", "channel-standard"])
def test_every_option_reaches_its_config_field(tmp_path, monkeypatch, target, argv, expected):
    assert all(getattr(expected, f.name) != f.default for f in dataclasses.fields(expected))
    infile = tmp_path / "in.iq"
    save_iq(synth_gsm(GsmSynthConfig(num_slots=8)), infile)
    seen = []

    def spy(*args, _fn=getattr(cli, target)):
        seen.append(args[-1])
        return _fn(*args)

    monkeypatch.setattr(cli, target, spy)
    extra = ["--in", str(infile)] if argv[0] == "channel" else []
    assert run(argv + extra + ["--out", str(tmp_path / "out.iq")]) == 0
    assert seen == [expected]


def test_classify_rejects_removed_uncalibrated_mode(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["classify", "--in", str(tmp_path / "x.iq"), "--mode", "uncalibrated"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["classify", "--in", "x.iq", "--mode", "calibrated"],
    ["sweep", "--standard", "gsm", "--snr", "0", "--obs-ms", "10", "--seed", "1",
     "--out", "s.csv", "--mode", "calibrated"],
    ["calibrate", "--mr", "2000", "--pf", "0.01"],
], ids=["classify", "sweep", "calibrate"])
def test_threshold_mode_is_not_a_command_line_choice(argv):
    # Every command-line decision uses DetectorConfig's closed-form threshold.
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2


def test_cached_parser_keeps_no_state_between_calls(monkeypatch, capsys):
    # main parses with one parser per process: each call must parse as a
    # fresh parser would, whatever the calls before it set or failed on.
    parser, parsed = cli._parser(), []

    class Parsed(Exception):
        pass

    def parse_only(*args, **kwargs):
        parsed.append(vars(argparse.ArgumentParser.parse_args(parser, *args, **kwargs)))
        raise Parsed

    monkeypatch.setattr(parser, "parse_args", parse_only)
    no_out = ["decimate", "--in", "x.iq", "--factor", "4"]
    calls = [
        ["classify", "--in", "x.iq", "--pf", "0.05", "--profiles", "gsm"],
        ["classify", "--in", "x.iq"],
        ["sweep", "--standard", "lte", "--snr", "-15:1:5", "--obs-ms", "10", "--seed", "3",
         "--out", "s.csv"],
        no_out,
        ["decimate", "--in", "y.iq", "--factor", "2", "--out", "z.iq"],
    ]
    for argv in calls:
        with pytest.raises(SystemExit if argv is no_out else Parsed) as exc:
            main(argv)
        if argv is no_out:
            assert exc.value.code == 2
            assert "--out" in capsys.readouterr().err
        else:
            assert parsed[-1] == vars(build_parser().parse_args(argv)), argv
    assert len(parsed) == 4 and cli._parser() is parser
    assert (parsed[1]["pf"], parsed[1]["profiles"]) == (1e-2, "gsm,lte")


def test_cached_parser_keeps_the_traced_call_route(tmp_path, monkeypatch):
    # bench/tracing.py rebinds these cli names after its warm-up calls; a
    # cached parser holding the functions themselves would bypass the rebinding.
    clean, narrow = tmp_path / "c.iq", tmp_path / "n.iq"
    assert run(["synth-gsm", "--slots", "16", "--seed", "1", "--out", str(clean)]) == 0
    reached = set()
    for name in ("load_iq", "decimate", "save_iq", "classify"):
        def spy(*args, _name=name, _fn=getattr(cli, name), **kwargs):
            reached.add(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cli, name, spy)
    assert run(["decimate", "--in", str(clean), "--factor", "2", "--out", str(narrow)]) == 0
    assert run(["classify", "--in", str(narrow), "--json"]) in (0, 1)
    assert reached == {"load_iq", "decimate", "save_iq", "classify"}



def _bench_module(name):
    path = Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_capture_commands_reach_every_traced_layer(tmp_path, monkeypatch):
    # The benchmark's own tracer, rebinding its layers at every name that binds
    # them: classify reads the capture in one pass through the estimator, and
    # load_iq stays on the capture route through decimate.
    tracing = _bench_module("tracing")
    wide, narrow = tmp_path / "w.iq", tmp_path / "n.iq"
    assert run(["synth-gsm", "--slots", "16", "--oversample", "8", "--seed", "1",
                "--out", str(wide)]) == 0
    for key, mod in list(sys.modules.items()):
        if key.split(".")[0] == "cyclodet":  # undone by monkeypatch after the test
            for attr, value in list(vars(mod).items()):
                if callable(value):
                    monkeypatch.setattr(mod, attr, value)
    tracer = tracing.Tracer()
    tracer.install()
    assert tracer.missing == []

    def layers_of(argv):
        first = len(tracer.spans)
        assert cli.main(argv) in (0, 1)  # looked up as the benchmark calls it
        return {span[0] for span in tracer.spans[first:]}

    assert layers_of(["decimate", "--in", str(wide), "--factor", "2", "--out", str(narrow)]) == {
        "cli.main", "iq_io.load_iq", "iq_io.decimate", "iq_io.save_iq"}
    assert layers_of(["classify", "--in", str(narrow), "--json"]) == {
        "cli.main", "detector.classify", "detector.threshold",
        "ccf_estimator.estimate_ccf", "ccf_estimator.unit_phasors"}
    _, layers = tracing.layer_metrics(tracer, 10**9)
    routes = _bench_module("workloads").Capture.routes
    assert tracing.coverage_check(routes, layers, tracer.missing)["ok"]


def _refused_by_load_iq(path):
    with pytest.raises(FormatError) as exc:
        load_iq(path)
    return f"error: {exc.value}\n"


def _bad_capture(tmp_path, bad):
    """A capture that load_iq refuses, longer than one read chunk where the
    fault can sit past the first."""
    data = tmp_path / f"{bad}.iq"
    samples = np.ones(2 * _READ_CHUNK + 5, dtype="<c8")
    declared = samples.size
    if bad == "nan-first-chunk":
        samples[17] = complex(np.nan, 1.0)
    elif bad == "inf-later-chunk":
        samples[2 * _READ_CHUNK + 3] = complex(1.0, -np.inf)
    elif bad == "zeros":
        samples[:] = 0
    elif bad == "count-mismatch":
        declared += 1
    elif bad == "empty":
        samples, declared = samples[:0], None
    samples.tofile(data)
    if bad == "odd-bytes":
        with open(data, "ab") as fh:
            fh.write(b"\0\0\0")
    IqFileMeta(sample_rate_hz=1e6, sample_count=declared).write(f"{data}.meta")
    if bad == "repeated-key":
        with open(f"{data}.meta", "a") as fh:
            fh.write("sample_rate_hz=2e6\n")
    return data


@pytest.mark.parametrize("bad", ["odd-bytes", "empty", "count-mismatch", "nan-first-chunk",
                                 "inf-later-chunk", "zeros", "repeated-key"])
def test_classify_refuses_bad_captures_as_load_iq_does(tmp_path, capsys, bad):
    data = _bad_capture(tmp_path, bad)
    message = _refused_by_load_iq(data)
    assert run(["classify", "--in", str(data)]) == 3
    assert capsys.readouterr() == ("", message)


def test_classify_refuses_a_capture_that_shrinks_while_read(tmp_path, capsys, monkeypatch):
    # The length is measured before the read; data that ends before it is
    # refused as load_iq refuses it, whichever chunk comes up short.
    data = tmp_path / "s.iq"
    np.ones(_READ_CHUNK + 5, dtype="<c8").tofile(data)
    IqFileMeta(sample_rate_hz=1e6).write(f"{data}.meta")
    measured = os.path.getsize(data) + 8 * _READ_CHUNK
    real_getsize = os.path.getsize
    monkeypatch.setattr(os.path, "getsize",
                        lambda p: measured if str(p) == str(data) else real_getsize(p))
    message = _refused_by_load_iq(data)
    assert f"{measured} bytes" in message
    assert run(["classify", "--in", str(data)]) == 3
    assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize("rate,samples", [(4000.0, 40_000), (1e6, 1153)])
def test_classify_refuses_rate_and_length_before_reading(tmp_path, capsys, rate, samples):
    # A rate at twice the LTE slot rate, or fewer samples than two GSM slots
    # (1,154 at 1 MHz), is a usage error, found from the sidecar and the file
    # length before the samples (here with a NaN) are read.
    data = tmp_path / "u.iq"
    rng = np.random.default_rng(3)
    samples = (rng.standard_normal(samples) + 1j * rng.standard_normal(samples)).astype("<c8")
    samples[-1] = np.nan
    samples.tofile(data)
    IqFileMeta(sample_rate_hz=rate, sample_count=samples.size).write(f"{data}.meta")
    assert run(["classify", "--in", str(data)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and ("slot rate" in err or "too short" in err)

def test_import_builds_no_parser():
    # The parser is built at the first main call, so importing the package
    # (and the CLI module) pays nothing for it.
    src = str(Path(cli.__file__).parents[1])
    code = "import cyclodet, cyclodet.cli as cli; print(cli._parser.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "0"


def test_ccf_spectrum_csv(tmp_path):
    clean = tmp_path / "c.iq"
    run(["synth-gsm", "--slots", "16", "--seed", "2", "--out", str(clean)])
    out = tmp_path / "spec.csv"
    assert run(["ccf-spectrum", "--in", str(clean), "--tau", "0",
                "--max-alpha", "20000", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha_hz,magnitude"
    assert len(lines) > 100


@pytest.mark.parametrize("max_alpha", ["-100", "-1000000"])
def test_ccf_spectrum_rejects_negative_max_alpha(tmp_path, capsys, max_alpha):
    # -100 used to write a header-only CSV; -1e6 failed on an internal check.
    clean = tmp_path / "c.iq"
    run(["synth-gsm", "--slots", "4", "--seed", "2", "--out", str(clean)])
    out = tmp_path / "spec.csv"
    assert run(["ccf-spectrum", "--in", str(clean), f"--max-alpha={max_alpha}",
                "--out", str(out)]) == 2
    assert not out.exists()
    assert f"got {float(max_alpha)}" in capsys.readouterr().err


def test_decimate_halves_rate(tmp_path):
    clean = tmp_path / "c.iq"
    run(["synth-lte", "--slots", "4", "--seed", "2", "--out", str(clean)])
    out = tmp_path / "d.iq"
    assert run(["decimate", "--in", str(clean), "--factor", "2", "--out", str(out)]) == 0
    buf = load_iq(out)
    assert buf.sample_rate_hz == pytest.approx(0.96e6)
    assert len(buf) == 1920


def test_sweep_csv_schema(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--standard", "lte", "--snr", "20", "--obs-ms", "10",
                "--pf", "0.01", "--trials", "4", "--seed", "5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "snr_db,obs_time_ms,pd,n_trials"
    assert lines[1].startswith("20,10,")


def test_sweep_multi_pf_schema(tmp_path):
    out = tmp_path / "sweep9.csv"
    assert run(["sweep", "--standard", "gsm", "--snr", "0:5:5", "--obs-ms", "10",
                "--pf", "0.1,0.01", "--trials", "2", "--seed", "5",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "snr_db,p_f,standard,pd,n_trials"
    assert len(lines) == 1 + 2 * 2  # two SNRs x two P_F


def test_sweep_several_times_and_pf_writes_full_record(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--standard", "lte", "--snr", "0", "--obs-ms", "10,50",
                "--pf", "0.1,0.01", "--trials", "2", "--seed", "5", "--out", str(out)]) == 0
    header, *rows = out.read_text().splitlines()
    assert header == "standard,snr_db,obs_time_ms,p_f,pd,n_trials"
    keys = {tuple(row.split(",")[2:4]) for row in rows}
    assert keys == {("10", "0.1"), ("50", "0.1"), ("10", "0.01"), ("50", "0.01")}


def test_sweep_csv_matches_figure_csv(tmp_path):
    out, fig = tmp_path / "sweep.csv", tmp_path / "fig7.csv"
    assert run(["sweep", "--standard", "gsm", "--snr", "10", "--obs-ms", "10,50",
                "--pf", "0.01", "--trials", "4", "--seed", "1", "--out", str(out)]) == 0
    emit_figure_data("fig7", fig, n_trials=4, master_seed=1, snr_db_list=(10.0,))
    assert out.read_bytes() == fig.read_bytes()


@pytest.mark.parametrize("snr", ["-inf", "nan"])
def test_sweep_rejects_non_finite_snr(tmp_path, snr):
    # Either value used to run every trial noiseless and write Pd = 1.
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--standard", "gsm", f"--snr={snr}", "--obs-ms", "10",
                "--trials", "5", "--seed", "1", "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "command,flag,value",
    [("channel", "--cfo-hz", "nan"), ("channel", "--cfo-hz", "inf"),
     ("synth-lte", "--rs-boost-db", "inf"), ("synth-lte", "--rs-boost-db", "nan"),
     ("synth-lte", "--rs-boost-db", "6000"), ("synth-lte", "--rs-boost-db", "10000")],
)
def test_non_finite_physical_parameter_is_a_usage_error(tmp_path, capsys, command, flag, value):
    # The non-finite values used to write all-NaN samples and fail on save as a
    # data error (exit 3). A boost of 6000 dB has an infinite power ratio and
    # used to write zeros; 10000 dB crashed with an OverflowError.
    clean = tmp_path / "c.iq"
    run(["synth-gsm", "--slots", "4", "--seed", "1", "--out", str(clean)])
    source = ["--in", str(clean), "--snr-db", "10"] if command == "channel" else ["--slots", "4"]
    out = tmp_path / "o.iq"
    argv = [command, *source, flag, value, "--seed", "2", "--out", str(out)]
    assert run(argv) == 2
    assert value in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command,flag,value",
    [("sweep", "--snr", "-5,5"), ("sweep", "--snr", "-15:1:5"),
     ("channel", "--cfo-hz", "-1e3"), ("channel", "--snr-db", "-1e1"),
     ("synth-lte", "--rs-boost-db", "-2.5e0")],
)
def test_negative_values_read_as_values(tmp_path, command, flag, value):
    # argparse used to take these for options and exit 2 ("expected one argument").
    clean = tmp_path / "c.iq"
    run(["synth-gsm", "--slots", "4", "--seed", "1", "--out", str(clean)])
    base = {
        "sweep": ["--standard", "gsm", "--obs-ms", "10", "--trials", "1"],
        "channel": ["--in", str(clean), "--snr-db", "10"],
        "synth-lte": ["--slots", "2"],
    }[command]
    outs = []
    for form in ([flag, value], [f"{flag}={value}"]):
        outs.append(tmp_path / f"o{len(outs)}")
        assert run([command, *base, *form, "--seed", "2", "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_channel_refuses_offset_range_longer_than_capture(tmp_path, capsys):
    # It used to write 2,500 zeros with exit 0, which classify then refused.
    clean, out = tmp_path / "c.iq", tmp_path / "o.iq"
    run(["synth-gsm", "--slots", "4", "--seed", "1", "--out", str(clean)])
    assert run(["channel", "--in", str(clean), "--snr-db", "10", "--timing-slot-samples",
                "100000", "--seed", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "100000" in err and "2500" in err
    assert not out.exists()


def test_classify_refuses_repeated_profile(tmp_path, capsys):
    clean = tmp_path / "c.iq"
    run(["synth-gsm", "--slots", "4", "--seed", "1", "--out", str(clean)])
    assert run(["classify", "--in", str(clean), "--profiles", "gsm,gsm"]) == 2
    assert capsys.readouterr().out == ""


def test_large_finite_rs_boost_writes_unit_power(tmp_path):
    out = tmp_path / "o.iq"
    argv = ["synth-lte", "--slots", "2", "--seed", "1", "--rs-boost-db", "3000", "--out", str(out)]
    assert run(argv) == 0
    samples = load_iq(out).samples
    assert np.all(np.isfinite(samples))
    assert np.mean(np.abs(samples) ** 2) == pytest.approx(1.0, rel=1e-6)


def test_io_error_exit_code(tmp_path):
    assert run(["classify", "--in", str(tmp_path / "missing.iq")]) == 3


def test_unsupported_format_exit_code(tmp_path):
    data = tmp_path / "x.iq"
    data.write_bytes(b"\x00" * 16)
    (tmp_path / "x.iq.meta").write_text("sample_rate_hz=1e6\nformat=cs8\n")
    assert run(["classify", "--in", str(data)]) == 3


@pytest.mark.parametrize("bad", ["nan", "inf", "zeros"])
def test_bad_samples_exit_code(tmp_path, capsys, bad):
    samples = np.ones(4000, dtype="<c8")
    if bad == "zeros":
        samples[:] = 0
    else:
        samples[1234] = float(bad)
    data = tmp_path / "bad.iq"
    samples.tofile(data)
    IqFileMeta(sample_rate_hz=1e6, sample_count=samples.size).write(f"{data}.meta")
    assert run(["classify", "--in", str(data)]) == 3
    assert str(data) in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan-last", "zeros"])
def test_bad_samples_past_the_first_read_chunk_exit_code(tmp_path, capsys, bad):
    # Longer than one read chunk of load_iq: a NaN only in the last chunk,
    # or zeros throughout.
    samples = np.zeros(3 * _READ_CHUNK // 2, dtype="<c8")
    if bad == "nan-last":
        samples[:] = 1.0
        samples[-1] = complex(1.0, np.nan)
    data = tmp_path / "long.iq"
    samples.tofile(data)
    IqFileMeta(sample_rate_hz=1e6, sample_count=samples.size).write(f"{data}.meta")
    assert run(["classify", "--in", str(data)]) == 3
    assert str(data) in capsys.readouterr().err


def test_usage_error_exit_code(tmp_path):
    clean = tmp_path / "c.iq"
    run(["synth-gsm", "--slots", "4", "--seed", "1", "--out", str(clean)])
    assert run(["decimate", "--in", str(clean), "--factor", "0",
                "--out", str(tmp_path / "o.iq")]) == 2


def test_decimate_refuses_factor_above_capture_length(tmp_path, capsys):
    # It used to design a 4.3M-tap filter and write a 1-sample capture.
    clean, out = tmp_path / "c.iq", tmp_path / "o.iq"
    run(["synth-gsm", "--slots", "4", "--seed", "1", "--out", str(clean)])
    assert run(["decimate", "--in", str(clean), "--factor", "100000", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "100000" in err and "2500" in err
    assert not out.exists()


@pytest.mark.parametrize("samples,code", [(1_000, 2), (1_100, 1)])
def test_classify_refuses_a_slot_rate_within_one_bin_of_nyquist(tmp_path, capsys, samples, code):
    # GSM alone at 3,470 Hz: 0.96 bins from its image at 1,000 samples, a
    # usage error found before the samples are read; 1.06 bins at 1,100.
    data = tmp_path / "n.iq"
    rng = np.random.default_rng(0)
    (rng.standard_normal(samples) + 1j * rng.standard_normal(samples)).astype("<c8").tofile(data)
    IqFileMeta(sample_rate_hz=3470.0, sample_count=samples).write(f"{data}.meta")
    assert run(["classify", "--in", str(data), "--profiles", "gsm", "--json"]) == code
    out, err = capsys.readouterr()
    if code == 2:
        assert out == ""
        assert "3470 Hz is not one bin" in err and "gsm" in err
    else:
        assert json.loads(out)["m_r"] == samples


@pytest.mark.parametrize("rate,code", [(3000.0, 2), (4001.0, 1)])
def test_classify_refuses_slot_rate_above_nyquist(tmp_path, capsys, rate, code):
    # At 3 kHz LTE's 2 kHz line aliases, though the statistics stay finite;
    # above twice the fastest slot rate a noise capture classifies as unknown.
    data = tmp_path / "n.iq"
    rng = np.random.default_rng(0)
    samples = (rng.standard_normal(40_000) + 1j * rng.standard_normal(40_000)).astype("<c8")
    samples.tofile(data)
    IqFileMeta(sample_rate_hz=rate, sample_count=samples.size).write(f"{data}.meta")
    assert run(["classify", "--in", str(data), "--json"]) == code
    out, err = capsys.readouterr()
    if code == 2:
        assert out == ""
        assert "3000 Hz" in err and "gsm" in err
    else:
        assert json.loads(out)["label"] == "unknown"
