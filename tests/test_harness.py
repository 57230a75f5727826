"""Harness tests: seeding/reproducibility, false-alarm runs, figure CSVs."""

import csv

import numpy as np
import pytest

from cyclodet import (
    ConfigurationError,
    DetectorConfig,
    Standard,
    SweepConfig,
    SweepResult,
    default_sample_rate,
    emit_figure_data,
    estimate_variance,
    run_detection_sweep,
    run_false_alarm,
    slot_samples,
)
from cyclodet import experiment_harness
from cyclodet.ccf_estimator import unit_phasors
from cyclodet.detector import THRESHOLD_MODES, centered_power_statistic, minimum_samples, threshold
from cyclodet.experiment_harness import _trial_seeds, reference_waveform, run_single_trial


def test_default_rates_and_slots():
    assert default_sample_rate("gsm") == pytest.approx(4 * 1625000 / 6)
    assert default_sample_rate("lte") == 1.92e6
    assert slot_samples("gsm") == 625
    assert slot_samples("lte") == 960


def test_reference_waveforms_have_slot_envelope_structure():
    gsm = reference_waveform("gsm", 8, seed=1)
    rel = (np.arange(len(gsm)) / 4) % 156.25
    assert np.max(np.abs(gsm.samples[(rel >= 150) & (rel < 155)])) < 1e-12
    lte = reference_waveform("lte", 4, seed=1)
    assert estimate_variance(lte) == pytest.approx(1.0, abs=1e-3)


def test_sweep_reproducible_and_well_formed():
    cfg = SweepConfig(
        standard=Standard.GSM,
        snr_db_list=(20.0,),
        observation_times_s=(0.010,),
        p_f_list=(0.01,),
        n_trials=12,
        master_seed=5,
    )
    a = run_detection_sweep(cfg)
    b = run_detection_sweep(cfg)
    assert a == b
    cell = a.cell(20.0, 0.010, 0.01)
    assert cell.n_trials == 12 and 0.0 <= cell.pd <= 1.0
    assert "standard,snr_db,obs_time_ms,p_f,pd,n_trials" in a.to_csv()


def test_cell_lookup_tells_tiny_pf_apart():
    # An absolute tolerance of 1e-8 used to return the 1e-9 cell for 1e-10.
    cfg = SweepConfig(Standard.GSM, (0.0,), (0.010,), p_f_list=(1e-9, 1e-10), n_trials=1)
    result = run_detection_sweep(cfg)
    assert result.cell(0.0, 0.010, 1e-10).p_f == 1e-10
    assert result.cell(0.0, 0.010, 1e-9).p_f == 1e-9
    with pytest.raises(KeyError):
        result.cell(0.0, 0.010, 1e-11)


def test_sweep_noiseless_detects_every_trial():
    # With noise disabled the statistic/threshold ratio is a deterministic
    # function of the waveform alone (both scale with the faded power), so
    # every trial must detect.
    for std in (Standard.GSM, Standard.LTE):
        cfg = SweepConfig(
            standard=std,
            snr_db_list=(np.inf,),
            observation_times_s=(0.050,),
            p_f_list=(0.01,),
            n_trials=25,
            master_seed=9,
        )
        assert run_detection_sweep(cfg).cells[0].pd == 1.0


def test_pd_monotone_in_snr_and_observation_time():
    cfg = SweepConfig(
        standard=Standard.GSM,
        snr_db_list=(-5.0, 5.0),
        observation_times_s=(0.010, 0.050),
        p_f_list=(0.01,),
        n_trials=80,
        master_seed=21,
    )
    result = run_detection_sweep(cfg)
    slack = 2.0 / np.sqrt(cfg.n_trials)
    for obs in cfg.observation_times_s:
        assert result.cell(5.0, obs, 0.01).pd >= result.cell(-5.0, obs, 0.01).pd - slack
    for snr in cfg.snr_db_list:
        assert result.cell(snr, 0.050, 0.01).pd >= result.cell(snr, 0.010, 0.01).pd - slack


def test_trials_are_exchangeable():
    # Per-trial RNG streams depend only on (master_seed, cell, trial), so
    # evaluating the trials in any order yields the same cell statistic.
    det = DetectorConfig(p_f=0.01)
    m_r = int(round(0.010 * default_sample_rate("gsm")))
    outcomes = {}
    for trial in range(8):
        wf_seed, ch_seed = _trial_seeds(3, 0, trial)
        outcomes[trial] = run_single_trial(Standard.GSM, 5.0, m_r, det, wf_seed, ch_seed)
    reversed_outcomes = {}
    for trial in reversed(range(8)):
        wf_seed, ch_seed = _trial_seeds(3, 0, trial)
        reversed_outcomes[trial] = run_single_trial(Standard.GSM, 5.0, m_r, det, wf_seed, ch_seed)
    assert outcomes == reversed_outcomes


def test_sweep_accepts_standard_name():
    # A name used to give Pd 0 in every cell: trials compared the label with it by identity.
    cells = [
        run_detection_sweep(SweepConfig(std, (20.0,), (0.01,), n_trials=5, master_seed=1)).cells
        for std in ("gsm", Standard.GSM)
    ]
    assert cells[0] == cells[1] and cells[0][0].pd == 1.0
    assert "gsm,20,10,0.01,1,5" in SweepResult(cells=cells[0]).to_csv()
    with pytest.raises(ConfigurationError, match="umts"):
        SweepConfig("umts", (20.0,), (0.01,))


def test_sweep_rejects_too_short_observation():
    # LTE at 1.1 ms is longer than two LTE slots but shorter than two GSM
    # slots, the longest-slot profile classify tests.
    for std, obs_s in ((Standard.GSM, 0.0005), (Standard.LTE, 0.0011)):
        with pytest.raises(ConfigurationError):
            SweepConfig(
                standard=std,
                snr_db_list=(0.0,),
                observation_times_s=(obs_s,),
                p_f_list=(0.01,),
            )


@pytest.mark.parametrize(
    "snrs,p_fs,bad",
    [
        ((0.0,), (0.01, 2.0), "2.0"),
        ((0.0, np.nan), (0.01,), "nan"),
        ((0.0, -np.inf), (0.01,), "-inf"),
    ],
)
def test_sweep_rejects_any_bad_entry_before_trials(monkeypatch, snrs, p_fs, bad):
    def no_trials(*args):
        raise AssertionError("a trial ran before the sweep lists were checked")

    monkeypatch.setattr(experiment_harness, "run_single_trial", no_trials)
    with pytest.raises(ConfigurationError, match=bad):
        cfg = SweepConfig(
            standard=Standard.GSM,
            snr_db_list=snrs,
            observation_times_s=(0.01,),
            p_f_list=p_fs,
            n_trials=200,
        )
        run_detection_sweep(cfg)


@pytest.mark.parametrize("std", [Standard.GSM, Standard.LTE])
def test_sweep_minimum_record_is_classify_minimum(std):
    # The shortest record a sweep accepts is the shortest classify accepts,
    # so an accepted sweep never fails inside a trial.
    fs = default_sample_rate(std)
    need = minimum_samples(DetectorConfig(p_f=0.01), fs)
    with pytest.raises(ConfigurationError):
        SweepConfig(standard=std, snr_db_list=(0.0,), observation_times_s=((need - 1) / fs,))
    cfg = SweepConfig(
        standard=std, snr_db_list=(0.0,), observation_times_s=(need / fs,), n_trials=1
    )
    assert run_detection_sweep(cfg).cells[0].n_trials == 1


def test_false_alarm_calibrated_quick():
    rate = run_false_alarm(1.0, m_r=4000, p_f=0.01, n_trials=4000,
                           mode="calibrated", profile=Standard.GSM)
    assert 0.005 < rate < 0.016  # 3-sigma band around 0.01


def test_false_alarm_near_always_alarm_limit():
    rate = run_false_alarm(1.0, m_r=2000, p_f=0.999, n_trials=500, mode="calibrated")
    assert rate > 0.99


@pytest.mark.parametrize("noise_power", [0.0, -1.0, np.nan, np.inf])
def test_false_alarm_rejects_bad_noise_power(noise_power):
    with pytest.raises(ConfigurationError, match="noise_power"):
        run_false_alarm(noise_power, m_r=2000, p_f=0.01, n_trials=5)


@pytest.mark.parametrize("n_trials", [0, -3])
def test_false_alarm_rejects_non_positive_trials(monkeypatch, n_trials):
    def no_draws(*args):
        raise AssertionError("noise was drawn before n_trials was checked")

    monkeypatch.setattr(experiment_harness, "null_statistics", no_draws)
    with pytest.raises(ConfigurationError, match="n_trials"):
        run_false_alarm(1.0, m_r=2000, p_f=0.01, n_trials=n_trials)


def _false_alarm_loop_reference(noise_power, m_r, p_f, n_trials, mode, profile, master_seed):
    """run_false_alarm as a per-trial loop with hand-written draws: each
    record's |r|^2 is noise_power times m_r unit exponentials."""
    det_cfg = DetectorConfig(p_f=p_f, threshold_mode=mode, profiles=(profile,))
    alpha_ts = profile.fundamental_cf_float / default_sample_rate(profile)
    phasors = unit_phasors(alpha_ts, m_r)
    unit = threshold(det_cfg, 1.0, m_r)
    rng = np.random.default_rng(np.random.SeedSequence((master_seed, 0xFA)))
    hits = 0
    for _ in range(n_trials):
        power = noise_power * rng.standard_exponential(m_r)
        stat = centered_power_statistic(power, phasors)
        hits += stat > float(power.mean()) * unit
    return hits / n_trials


@pytest.mark.parametrize("profile", [Standard.GSM, Standard.LTE], ids=["gsm", "lte"])
@pytest.mark.parametrize("mode", THRESHOLD_MODES)
@pytest.mark.parametrize("m_r,n_trials", [(2000, 300), (10_000, 40)])
def test_false_alarm_matches_per_trial_loop(profile, mode, m_r, n_trials):
    for noise_power in (1.0, 0.37):
        args = (noise_power, m_r, 0.3, n_trials, mode, profile, 11)
        expected = _false_alarm_loop_reference(*args)
        assert 0 < expected < 1
        assert run_false_alarm(*args[:4], mode=mode, profile=profile, master_seed=11) == expected


def test_false_alarm_empirical_mode_matches_target():
    rate = run_false_alarm(1.0, m_r=2000, p_f=0.05, n_trials=2000,
                           mode="empirical_null", profile=Standard.LTE)
    assert 0.03 < rate < 0.07


def test_emit_fig3_spectrum_schema(tmp_path):
    out = tmp_path / "fig3.csv"
    emit_figure_data("fig3", out)
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["alpha_hz", "magnitude"]
    alphas = np.array([float(r[0]) for r in rows[1:]])
    assert alphas[-1] <= 20_000.0
    assert alphas.size > 10_000  # 1000-slot record gives a 1.73 Hz grid


def test_emit_fig7_and_fig9_schemas(tmp_path):
    f7 = tmp_path / "fig7.csv"
    emit_figure_data("fig7", f7, n_trials=4, master_seed=1, snr_db_list=(10.0,))
    with open(f7, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["snr_db", "obs_time_ms", "pd", "n_trials"]
    assert len(rows) == 3  # one SNR x two observation times

    f9 = tmp_path / "fig9.csv"
    emit_figure_data("fig9", f9, n_trials=3, master_seed=1, snr_db_list=(0.0,))
    with open(f9, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["snr_db", "p_f", "standard", "pd", "n_trials"]
    assert len(rows) == 1 + 2 * 3  # both standards x three P_F values
    assert {r[2] for r in rows[1:]} == {"gsm", "lte"}


def test_emit_unknown_figure_rejected(tmp_path):
    with pytest.raises(ConfigurationError):
        emit_figure_data("fig1", tmp_path / "x.csv")
