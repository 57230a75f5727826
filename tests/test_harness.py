"""Harness tests: seeding/reproducibility, false-alarm runs, figure CSVs."""

import csv
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cyclodet import (
    ConfigurationError,
    DetectorConfig,
    IqBuffer,
    Standard,
    SweepConfig,
    SweepResult,
    default_sample_rate,
    emit_figure_data,
    estimate_ccf,
    run_detection_sweep,
    run_false_alarm,
    save_iq,
    synth_noise,
)
from cyclodet import ccf_estimator, detector, experiment_harness
from cyclodet.ccf_estimator import unit_phasors
from cyclodet.channel_sim import apply_channel, complex_normal, draw_taps
from cyclodet.detector import (
    classify,
    mean_power_leakage,
    null_statistics,
    threshold,
)
from cyclodet.experiment_harness import (
    REFERENCE_CHANNEL,
    _reference_config,
    _trial_seeds,
    reference_waveform,
    run_single_trial,
    slot_samples,
)
from test_channel_sim import _fir_convolve_reference
from test_waveform_synth import _synth_gsm_reference, _synth_lte_loop


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
    assert estimate_ccf(lte, 0.0).value.real == pytest.approx(1.0, abs=1e-3)


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


@pytest.mark.parametrize("standard", list(Standard))
def test_sweep_cells_do_not_depend_on_the_cpu_count(monkeypatch, standard):
    # Trials run on one thread per CPU; every count gives the same cells,
    # and no thread outlives the sweep.
    cfg = SweepConfig(standard, (-10.0, 5.0), (0.010, 0.020), (0.1, 0.01), n_trials=3)
    threads = threading.active_count()
    results = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(experiment_harness, "_cpu_count", lambda: cpus)
        results.append(run_detection_sweep(cfg))
        assert threading.active_count() == threads
    assert results[1] == results[0] and results[2] == results[0]
    assert {r.to_csv() for r in results} == {results[0].to_csv()}


def test_sweep_threads_take_each_trial_once(monkeypatch):
    # More threads than cores, switching as often as they can: a trial lost
    # or taken twice from the shared list would show in the seeds or a cell.
    seen = []

    def trial(standard, snr_db, m_r, det, wf_seed, ch_seed):
        seen.append((wf_seed, ch_seed))
        return snr_db > 0

    monkeypatch.setattr(experiment_harness, "run_single_trial", trial)
    monkeypatch.setattr(experiment_harness, "_cpu_count", lambda: 4)
    cfg = SweepConfig(Standard.GSM, (-1.0, 1.0), (0.010, 0.020), n_trials=500, master_seed=2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result = run_detection_sweep(cfg)
    finally:
        sys.setswitchinterval(interval)
    expected = {_trial_seeds(2, cell, t) for cell in range(4) for t in range(500)}
    assert len(seen) == len(expected) and set(seen) == expected
    assert [c.pd for c in result.cells] == [0.0, 1.0, 0.0, 1.0]


def test_sweep_reraises_a_helper_failure_and_stops(monkeypatch):
    # A helper's exception reaches the caller, which takes no trial after it,
    # and every helper has ended when it does.
    failed = threading.Event()
    ran, helpers = [], []

    def trial(*args):
        ran.append(args)
        if threading.current_thread() is threading.main_thread():
            assert failed.wait(10)
            # The event is set before the raise: wait until the helper has
            # handed its exception over and ended, so the test does not
            # depend on when the interpreter switches threads.
            helpers[0].join(10)
            assert not helpers[0].is_alive()
            return True
        helpers.append(threading.current_thread())
        failed.set()
        raise MemoryError("helper thread failed")

    monkeypatch.setattr(experiment_harness, "run_single_trial", trial)
    monkeypatch.setattr(experiment_harness, "_cpu_count", lambda: 2)
    threads = threading.active_count()
    with pytest.raises(MemoryError, match="helper thread failed"):
        run_detection_sweep(SweepConfig(Standard.GSM, (0.0,), (0.010,), n_trials=1000))
    assert threading.active_count() == threads
    assert len(ran) <= 2


@pytest.mark.parametrize("standard,bound", [(Standard.GSM, 2.6), (Standard.LTE, 2.5)],
                         ids=["gsm", "lte"])
def test_trial_peak_stays_within_two_and_a_half_records(standard, bound):
    # Each thread holds one trial, so a trial's peak bounds the sweep's
    # memory per CPU. The waveform is freed after the channel's FIR, and the
    # synthesis holds no two full-size arrays beside a third: a warm 50 ms
    # trial peaks at about 2.5 (GSM) and 2.2 (LTE) times the complex bytes of
    # its record. GSM's peak is classify's chunk scratch beside the faded
    # record.
    m_r = int(round(0.050 * default_sample_rate(standard)))
    det = DetectorConfig(p_f=0.01)
    run_single_trial(standard, 0.0, m_r, det, 1, 2)  # fills the caches
    tracemalloc.start()
    try:
        run_single_trial(standard, 0.0, m_r, det, 3, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * m_r * np.dtype(np.complex128).itemsize


def _channel_reference(x, cfg):
    """apply_channel with the zero-prefixed np.convolve FIR and out-of-place steps."""
    rng = np.random.default_rng(cfg.seed)
    taps = draw_taps(cfg, rng)
    d = int(rng.integers(0, cfg.timing_offset_slot_samples))
    y = _fir_convolve_reference(x, taps, d)
    noise_power = np.mean(np.abs(y) ** 2) / 10.0 ** (cfg.snr_db / 10.0)
    return y + complex_normal(rng, x.size, noise_power)


@pytest.mark.parametrize("snr_db", [-5.0, 5.0])
@pytest.mark.parametrize("obs_s", [0.010, 0.050])
@pytest.mark.parametrize("standard", list(Standard))
def test_trials_match_reference_forms(standard, obs_s, snr_db):
    # The trial rebuilt from the reference synthesis, the np.convolve channel
    # and the statistic written out: the same labels, and statistics within
    # 1e-12 of sum |p - mean p| / M, the scale on which a reordered sum can
    # move them (a cancelling transform can be far smaller than that).
    det = DetectorConfig(p_f=0.01)
    fs = default_sample_rate(standard)
    m_r = int(round(obs_s * fs))
    n_slot = slot_samples(standard)
    num_slots = int(np.ceil(m_r / n_slot)) + 1
    for trial in range(2):
        wf_seed, ch_seed = _trial_seeds(0, round(obs_s * 1e3), trial)
        ch = replace(
            REFERENCE_CHANNEL, snr_db=snr_db, timing_offset_slot_samples=n_slot, seed=ch_seed
        )
        y = apply_channel(reference_waveform(standard, num_slots, wf_seed), ch)
        window = IqBuffer(samples=y.samples[n_slot : n_slot + m_r], sample_rate_hz=fs)
        report = classify(window, det)
        assert run_single_trial(standard, snr_db, m_r, det, wf_seed, ch_seed) == (
            report.label is standard
        )

        cfg = _reference_config(standard, num_slots, wf_seed)
        x = _synth_gsm_reference(cfg) if standard is Standard.GSM else _synth_lte_loop(cfg)
        r = _channel_reference(x, ch)[n_slot : n_slot + m_r]
        p = np.abs(r) ** 2
        sigma_r_sq = float(np.mean(p))
        stats = [
            abs(np.sum(p * unit_phasors(s.fundamental_cf_float / fs, m_r)) / m_r
                - sigma_r_sq * mean_power_leakage(s.fundamental_cf_float, fs, m_r))
            for s in det.profiles
        ]
        best = int(np.argmax(stats))
        label = det.profiles[best] if stats[best] > threshold(det, sigma_r_sq, m_r) else None

        assert report.label is label
        assert report.sigma_r_sq == pytest.approx(sigma_r_sq, rel=1e-12)
        scale = np.sum(np.abs(p - sigma_r_sq)) / m_r
        for d, stat in zip(report.decisions, stats):
            assert abs(d.statistic - stat) <= 1e-12 * scale


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
    need = DetectorConfig(p_f=0.01).minimum_samples(fs)
    with pytest.raises(ConfigurationError):
        SweepConfig(standard=std, snr_db_list=(0.0,), observation_times_s=((need - 1) / fs,))
    cfg = SweepConfig(
        standard=std, snr_db_list=(0.0,), observation_times_s=(need / fs,), n_trials=1
    )
    assert run_detection_sweep(cfg).cells[0].n_trials == 1


def test_false_alarm_calibrated_quick():
    rate = run_false_alarm(1.0, m_r=4000, p_f=0.01, n_trials=4000, profile=Standard.GSM)
    assert 0.005 < rate < 0.016  # 3-sigma band around 0.01


def test_false_alarm_near_always_alarm_limit():
    rate = run_false_alarm(1.0, m_r=2000, p_f=0.999, n_trials=500)
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


def _false_alarm_loop_reference(noise_power, m_r, p_f, n_trials, profile, master_seed):
    """run_false_alarm as a per-trial loop with hand-written draws: each
    record's |r|^2 is noise_power times m_r unit exponentials."""
    det_cfg = DetectorConfig(p_f=p_f, profiles=(profile,))
    alpha_ts = profile.fundamental_cf_float / default_sample_rate(profile)
    phasors = unit_phasors(alpha_ts, m_r)
    unit = threshold(det_cfg, 1.0, m_r)
    rng = np.random.default_rng(np.random.SeedSequence((master_seed, 0xFA)))
    hits = 0
    for _ in range(n_trials):
        power = noise_power * rng.standard_exponential(m_r)
        mean = float(power.mean())
        hits += abs((power - mean) @ phasors) / m_r > mean * unit
    return hits / n_trials


@pytest.mark.parametrize("profile", [Standard.GSM, Standard.LTE], ids=["gsm", "lte"])
@pytest.mark.parametrize("m_r,n_trials", [(2000, 300), (10_000, 40)])
def test_false_alarm_matches_per_trial_loop(profile, m_r, n_trials):
    for noise_power in (1.0, 0.37):
        args = (noise_power, m_r, 0.3, n_trials, profile, 11)
        expected = _false_alarm_loop_reference(*args)
        assert 0 < expected < 1
        assert run_false_alarm(*args[:4], profile=profile, master_seed=11) == expected


@pytest.mark.parametrize("profile", [Standard.GSM, Standard.LTE], ids=["gsm", "lte"])
def test_false_alarm_refuses_records_classify_refuses(profile):
    # The closed form holds its P_F on records classify accepts: GSM at P_F
    # 0.01 read 0.0 at M_r 2, 10 and 100, 0.00245 at 300 and 0.0106 at the
    # 1,250-sample floor (20,000 trials each).
    need = DetectorConfig(p_f=0.01, profiles=(profile,)).minimum_samples(
        default_sample_rate(profile))
    assert need == {Standard.GSM: 1250, Standard.LTE: 1920}[profile]
    with pytest.raises(ConfigurationError, match=f"m_r {need - 1} is below the {need}"):
        run_false_alarm(1.0, m_r=need - 1, p_f=0.01, n_trials=5, profile=profile)
    assert 0 <= run_false_alarm(1.0, m_r=need, p_f=0.01, n_trials=5, profile=profile) <= 1


@pytest.mark.parametrize("entry", ["classify", "capture", "sweep", "false_alarm"])
def test_every_entry_point_refuses_a_short_record_alike(tmp_path, entry):
    # Every entry point that can be handed a record refuses it with the text
    # of DetectorConfig.check_record, or runs it if check_record accepts it.
    # At the GSM trial rate, the only rate of sweeps and false-alarm runs: a
    # sample short of the floor, at the floor and a sample short of two
    # slots. A capture or buffer of GSM alone at 4 kHz, where two slots are
    # 5 samples: a sample short of the floor, and at it.
    floor = detector._MIN_RECORD_SAMPLES
    fs = default_sample_rate(Standard.GSM)
    both, gsm = DetectorConfig(p_f=0.01), DetectorConfig(p_f=0.01, profiles=("gsm",))
    cases = [(fs, both, floor - 1, "floor"), (fs, both, floor, "too short"),
             (fs, both, both.minimum_samples(fs) - 1, "too short")]
    if entry in ("classify", "capture"):
        cases += [(4000.0, gsm, floor - 1, "floor"), (4000.0, gsm, floor, None)]

    def call(rate, cfg, m):
        r = synth_noise(m, 1.0, seed=4, sample_rate_hz=rate)
        if entry == "capture":
            save_iq(r, tmp_path / "r.iq")
            r = tmp_path / "r.iq"
        if entry in ("classify", "capture"):
            return classify(r, cfg)
        if entry == "sweep":
            return SweepConfig(Standard.GSM, (0.0,), (m / fs,))
        return run_false_alarm(1.0, m_r=m, p_f=0.01, n_trials=5)

    for rate, cfg, m, rule in cases:
        if rule is None:
            cfg.check_record(rate, m)
            call(rate, cfg, m)
            continue
        with pytest.raises(ConfigurationError, match=rule) as expected:
            cfg.check_record(rate, m)
        with pytest.raises(ConfigurationError) as refused:
            call(rate, cfg, m)
        assert str(refused.value) == str(expected.value)


@pytest.mark.parametrize("source", ["buffer", "capture"])
def test_classify_refuses_a_near_nyquist_record_as_check_record_does(tmp_path, source):
    # GSM alone at 3,470 Hz and 1,000 samples: 0.96 bins from its image. The
    # sweeps and false-alarm runs work at trial rates, where every record
    # long enough for two slots is hundreds of bins from the image, so
    # classify is the one entry point that reaches this refusal.
    cfg = DetectorConfig(p_f=0.01, profiles=("gsm",))
    with pytest.raises(ConfigurationError, match="not one bin") as expected:
        cfg.check_record(3470.0, 1_000)
    r = synth_noise(1_000, 1.0, seed=4, sample_rate_hz=3470.0)
    if source == "capture":
        save_iq(r, tmp_path / "n.iq")
        r = tmp_path / "n.iq"
    with pytest.raises(ConfigurationError) as refused:
        classify(r, cfg)
    assert str(refused.value) == str(expected.value)
    for std in Standard:  # the shortest records sweeps and false-alarm runs accept
        fs = default_sample_rate(std)
        for profiles in (tuple(Standard), (std,)):
            trial = DetectorConfig(p_f=0.01, profiles=profiles)
            trial.check_record(fs, trial.minimum_samples(fs))


def test_classify_and_false_alarm_reach_the_traced_estimator_functions(monkeypatch):
    # The benchmark's span tracer rebinds estimate_ccf and unit_phasors at
    # every name that binds them inside cyclodet, and its span coverage needs
    # classify to reach both and run_false_alarm to reach unit_phasors.
    reached = set()
    modules = [mod for key, mod in list(sys.modules.items())
               if mod is not None and key.split(".")[0] == "cyclodet"]
    for name in ("estimate_ccf", "unit_phasors"):
        original = getattr(ccf_estimator, name)

        def traced(*args, _name=name, _original=original, **kwargs):
            reached.add(_name)
            return _original(*args, **kwargs)

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, traced)
    r = synth_noise(20_000, 1.0, seed=1, sample_rate_hz=default_sample_rate("lte"))
    classify(r, DetectorConfig(p_f=0.01))
    assert reached == {"estimate_ccf", "unit_phasors"}
    reached.clear()
    run_false_alarm(1.0, m_r=2000, p_f=0.01, n_trials=5)
    assert "unit_phasors" in reached


def test_false_alarm_empirical_mode_matches_target():
    # DetectorConfig's empirical-null threshold holds its P_F on noise drawn
    # apart from its own Monte Carlo, at the LTE slot rate.
    m_r, p_f, n = 2000, 0.05, 2000
    cfg = DetectorConfig(p_f=p_f, threshold_mode="empirical_null", empirical_null_trials=n)
    unit = threshold(cfg, 1.0, m_r)
    alpha_ts = Standard.LTE.fundamental_cf_float / default_sample_rate(Standard.LTE)
    stats, powers = null_statistics(np.random.default_rng(7), n, m_r, alpha_ts, 1.0)
    assert 0.03 < np.count_nonzero(stats > powers * unit) / n < 0.07


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
