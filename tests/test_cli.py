"""End-to-end CLI tests: subcommands, file plumbing, exit codes."""

import numpy as np
import pytest

from cyclodet import IqFileMeta, emit_figure_data, load_iq
from cyclodet.cli import main


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
    assert run(["channel", "--in", str(clean), "--snr-db", "15",
                "--timing-offset", "uniform", "--standard", "gsm",
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


def test_channel_uniform_offset_needs_slot_length(tmp_path, capsys):
    clean = tmp_path / "c.iq"
    run(["synth-gsm", "--slots", "4", "--seed", "1", "--out", str(clean)])
    code = run(["channel", "--in", str(clean), "--snr-db", "10",
                "--timing-offset", "uniform", "--seed", "2",
                "--out", str(tmp_path / "o.iq")])
    assert code == 2


def test_ccf_spectrum_csv(tmp_path):
    clean = tmp_path / "c.iq"
    run(["synth-gsm", "--slots", "16", "--seed", "2", "--out", str(clean)])
    out = tmp_path / "spec.csv"
    assert run(["ccf-spectrum", "--in", str(clean), "--tau", "0",
                "--max-alpha", "20000", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha_hz,magnitude"
    assert len(lines) > 100


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
