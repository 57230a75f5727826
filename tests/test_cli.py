"""End-to-end CLI tests: subcommands, file plumbing, exit codes."""

import json

import numpy as np
import pytest

from cyclodet import (
    ChannelConfig,
    DetectorConfig,
    GsmSynthConfig,
    IqFileMeta,
    LteSynthConfig,
    SweepConfig,
    apply_channel,
    emit_figure_data,
    load_iq,
    save_iq,
)
from cyclodet.cli import build_parser, main


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
    code = run(["classify", "--in", str(rx), "--pf", "0.01", "--mode", "calibrated",
                "--profiles", "gsm,lte"])
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
    def parse(*argv):
        return vars(build_parser().parse_args(list(argv)))

    out = ("--out", "x.iq")
    cases = [
        (parse("synth-gsm", "--slots", "1", "--seed", "0", *out), GsmSynthConfig,
         {"oversample": "oversample", "tsc": "training_sequence_index",
          "guard_mode": "guard_mode"}),
        (parse("synth-lte", "--slots", "1", "--seed", "0", *out), LteSynthConfig,
         {"rb": "n_rb", "fft_size": "fft_size", "rs_boost_db": "rs_power_boost_db",
          "cell_seed": "cell_seed", "occupancy": "data_occupancy"}),
        (parse("channel", "--in", "x", "--snr-db", "0", "--seed", "0", *out), ChannelConfig,
         {"taps": "num_taps", "decay": "pdp_decay", "cfo_hz": "cfo_hz"}),
        (parse("classify", "--in", "x"), DetectorConfig, {"mode": "threshold_mode"}),
        (parse("sweep", "--standard", "gsm", "--snr", "0", "--obs-ms", "10", "--seed", "0",
               *out), SweepConfig, {"mode": "threshold_mode", "trials": "n_trials"}),
        (parse("calibrate", "--mr", "100", "--pf", "0.01"), DetectorConfig,
         {"trials": "empirical_null_trials"}),
    ]
    for args, config, fields in cases:
        for dest, field in fields.items():
            assert args[dest] == getattr(config, field), (config.__name__, dest)


def test_classify_rejects_removed_uncalibrated_mode(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["classify", "--in", str(tmp_path / "x.iq"), "--mode", "uncalibrated"])
    assert exc.value.code == 2


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


def test_calibrate_refuses_fewer_than_one_expected_exceedance(capsys):
    assert run(["calibrate", "--mr", "3000", "--pf", "1e-6"]) == 2
    assert "needs p_f >= 0.0001, got p_f=1e-06" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["classify", "sweep"])
def test_empirical_null_floor_names_the_smallest_pf(tmp_path, capsys, command):
    # Neither command has --trials; the message names the P_F floor instead.
    clean = tmp_path / "c.iq"
    run(["synth-gsm", "--slots", "4", "--seed", "1", "--out", str(clean)])
    capsys.readouterr()
    argv = {
        "classify": ["classify", "--in", str(clean)],
        "sweep": ["sweep", "--standard", "gsm", "--snr", "0", "--obs-ms", "10", "--seed", "1",
                  "--out", str(tmp_path / "s.csv")],
    }[command]
    assert run([*argv, "--mode", "empirical_null", "--pf", "1e-5"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "0.0001" in err and "--trials" not in err


def test_large_finite_rs_boost_writes_unit_power(tmp_path):
    out = tmp_path / "o.iq"
    argv = ["synth-lte", "--slots", "2", "--seed", "1", "--rs-boost-db", "3000", "--out", str(out)]
    assert run(argv) == 0
    samples = load_iq(out).samples
    assert np.all(np.isfinite(samples))
    assert np.mean(np.abs(samples) ** 2) == pytest.approx(1.0, rel=1e-6)


def test_calibrate_prints_threshold(capsys):
    assert run(["calibrate", "--mr", "2000", "--pf", "0.01", "--trials", "20000"]) == 0
    value = float(capsys.readouterr().out.strip())
    closed_form = np.sqrt(-np.log(0.01) / 2000)
    assert abs(value - closed_form) / closed_form < 0.08


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
