"""Detector tests: threshold modes, leakage correction, decision invariances."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import binomtest, ks_2samp

from cyclodet import (
    ChannelConfig,
    ConfigurationError,
    DetectorConfig,
    GsmSynthConfig,
    IqBuffer,
    IqFileMeta,
    LteSynthConfig,
    Standard,
    apply_channel,
    classify,
    default_sample_rate,
    estimate_ccf,
    load_iq,
    run_false_alarm,
    save_iq,
    synth_gsm,
    synth_lte,
    synth_noise,
    threshold,
)
from cyclodet import detector, iq_io
from cyclodet.ccf_estimator import _block_sums, _rotate, _stacked_table, unit_phasors
from cyclodet.detector import (
    _NULL_ALPHA_TS,
    _NULL_SEED,
    THRESHOLD_MODES,
    _unit_null_quantile,
    mean_power_leakage,
    null_statistics,
)
from test_ccf_estimator import exact_phasors


# ------------------------------------------------------------- variance

def test_variance_scales_quadratically():
    r = synth_noise(2000, 1.0, seed=1)
    scaled = IqBuffer(samples=2.0 * r.samples, sample_rate_hz=1.0)
    a, b = (estimate_ccf(x, 0.0).value.real for x in (r, scaled))
    assert b == pytest.approx(4.0 * a, rel=1e-14)


def test_variance_concentration():
    r = synth_noise(1_000_000, 1.0, seed=2)
    assert 0.997 < estimate_ccf(r, 0.0).value.real < 1.003


# ------------------------------------------------------------- thresholds

def test_calibrated_threshold_value():
    cfg = DetectorConfig(p_f=1e-2)
    assert threshold(cfg, 1.0, 10_000) == pytest.approx(0.021459660263, abs=1e-11)
    # scales with received power and shrinks as 1/sqrt(M)
    assert threshold(cfg, 2.0, 10_000) == pytest.approx(0.042919320526, abs=1e-11)
    assert threshold(cfg, 1.0, 40_000) == pytest.approx(0.021459660263 / 2, abs=1e-11)


def test_calibrated_matches_empirical_null_quantile():
    # The closed form must agree with the empirical (1-p_f) null quantile.
    # Validated here at m_r=2000 with 1e5 trials (the law is the same at any
    # record length; the false-alarm acceptance run covers 1e4/1e5).
    m_r = 2000
    cal = DetectorConfig(p_f=1e-2, threshold_mode="calibrated")
    emp = DetectorConfig(p_f=1e-2, threshold_mode="empirical_null",
                         empirical_null_trials=100_000)
    g_cal = threshold(cal, 1.0, m_r)
    g_emp = threshold(emp, 1.0, m_r)
    assert abs(g_emp - g_cal) / g_cal < 0.05


def test_threshold_monotone_decreasing_in_pf():
    for mode in ("calibrated", "empirical_null"):
        gammas = [
            threshold(
                DetectorConfig(p_f=pf, threshold_mode=mode, empirical_null_trials=20_000),
                1.0,
                2000,
            )
            for pf in (1e-3, 1e-2, 1e-1, 0.5)
        ]
        assert all(a > b for a, b in zip(gammas, gammas[1:]))


def test_unit_null_quantile_matches_per_record_loop():
    # The empirical-null quantile is taken over records whose unit-power |r|^2
    # is drawn as m_r unit exponentials each, in order, from a _NULL_SEED
    # generator.
    p_f, m_r, trials = 0.05, 700, 400
    rng = np.random.default_rng(_NULL_SEED)
    phasors = unit_phasors(_NULL_ALPHA_TS, m_r)
    stats = np.empty(trials)
    for i in range(trials):
        power = rng.standard_exponential(m_r)
        stats[i] = np.abs((power - power.mean()) @ phasors) / m_r
    expected = float(np.quantile(stats, 1.0 - p_f))
    assert _unit_null_quantile(p_f, m_r, trials) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("m_r", [100, 1500])
def test_null_statistics_do_not_depend_on_batching(monkeypatch, m_r):
    # Records are rows of one exponential draw per batch, filled in order, so
    # neither the record count nor the batch size changes any record.
    args = (m_r, 0.2, 0.37)
    stats, powers = null_statistics(np.random.default_rng(5), 300, *args)
    more_stats, more_powers = null_statistics(np.random.default_rng(5), 377, *args)
    np.testing.assert_allclose(more_stats[:300], stats, rtol=1e-12)
    np.testing.assert_array_equal(more_powers[:300], powers)
    monkeypatch.setattr(detector, "_NULL_BATCH_SAMPLES", 2**10)
    small_stats, small_powers = null_statistics(np.random.default_rng(5), 300, *args)
    np.testing.assert_allclose(small_stats, stats, rtol=1e-12)
    np.testing.assert_array_equal(small_powers, powers)


def test_null_statistics_centre_each_batch_in_its_draw_buffer():
    # Every batch is drawn into one reused buffer and summed from there; a
    # transformed copy of a batch would double the peak.
    n, m_r = 2000, 1500
    batch_bytes = (detector._NULL_BATCH_SAMPLES // m_r) * m_r * 8
    # numpy's first exponential draw in a process allocates about 1 MB of its
    # own; make it here, from a throwaway generator, so the peak is the call's.
    np.random.default_rng(0).standard_exponential(1)
    tracemalloc.start()
    try:
        null_statistics(np.random.default_rng(3), n, m_r, 0.37, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * batch_bytes


def test_null_statistics_follow_the_complex_gaussian_law():
    # |CN(0, s)|^2 is s * Exp(1): statistics and powers of records drawn as
    # complex Gaussian noise and from null_statistics are one law.
    n, m_r, alpha_ts, noise_power = 3000, 1000, 0.2, 0.37
    rng = np.random.default_rng(21)
    phasors = unit_phasors(alpha_ts, m_r)
    gauss_stats, gauss_powers = np.empty(n), np.empty(n)
    for i in range(n):
        noise = np.sqrt(noise_power / 2.0) * (
            rng.standard_normal(m_r) + 1j * rng.standard_normal(m_r)
        )
        power = np.abs(noise) ** 2
        gauss_stats[i] = np.abs((power - power.mean()) @ phasors) / m_r
        gauss_powers[i] = power.mean()
    stats, powers = null_statistics(np.random.default_rng(22), n, m_r, alpha_ts, noise_power)
    assert ks_2samp(gauss_stats, stats).pvalue > 1e-3
    assert ks_2samp(gauss_powers, powers).pvalue > 1e-3


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    rows=st.integers(1, 40),
    m_r=st.one_of(st.integers(2, 5000), st.integers((1 << 14) + 1, 40_000)),
    alpha_ts=st.floats(1e-3, 0.999),
)
def test_null_statistics_match_exact_sums(seed, rows, m_r, alpha_ts):
    # Each record's statistic against |sum (p - mean p) phi| / M from correctly
    # rounded sums and exactly reduced phasor angles. Any summation order errs
    # by up to m_r * eps * sum|p - mean p|, so that sum, not the statistic,
    # scales the tolerance: when the transform cancels the error relative to
    # the statistic alone can exceed 1e-12. Records longer than 2**14 samples
    # span several blocks, and batches of them several draws.
    stats, _ = null_statistics(np.random.default_rng(seed), rows, m_r, alpha_ts, 1.0)
    power = np.random.default_rng(seed).standard_exponential((rows, m_r))
    phasors = exact_phasors(alpha_ts, m_r)
    for row, stat in zip(power, stats):
        centered = row - math.fsum(row) / m_r
        terms = centered * phasors
        exact = abs(complex(math.fsum(terms.real), math.fsum(terms.imag))) / m_r
        scale = math.fsum(np.abs(centered)) / m_r
        assert abs(stat - exact) <= 1e-12 * scale


@pytest.mark.parametrize("mode", THRESHOLD_MODES)
def test_threshold_is_power_times_unit_threshold(mode):
    # One threshold law: every mode scales a unit-power threshold by sigma_r^2,
    # bit for bit, which is what keeps the decision invariant to gain.
    cfg = DetectorConfig(p_f=0.01, threshold_mode=mode, empirical_null_trials=2000)
    unit = threshold(cfg, 1.0, 2000)
    for s in (1e-6, 0.37, 2.0, 1e6):
        assert threshold(cfg, s, 2000) == s * unit


def test_uncalibrated_mode_is_refused():
    with pytest.raises(ConfigurationError, match="threshold_mode"):
        DetectorConfig(p_f=0.01, threshold_mode="uncalibrated")


def test_threshold_always_alarm_limit():
    cfg = DetectorConfig(p_f=1.0 - 1e-9, threshold_mode="calibrated")
    assert threshold(cfg, 1.0, 1000) < 1e-6


def test_threshold_argument_validation():
    cfg = DetectorConfig(p_f=0.01)
    with pytest.raises(ConfigurationError):
        threshold(cfg, 0.0, 100)
    with pytest.raises(ConfigurationError, match="inf"):
        threshold(cfg, np.inf, 100)
    with pytest.raises(ConfigurationError):
        threshold(cfg, 1.0, 0)
    with pytest.raises(ConfigurationError):
        DetectorConfig(p_f=0.0)
    with pytest.raises(ConfigurationError):
        DetectorConfig(p_f=1.0)
    with pytest.raises(ConfigurationError):
        DetectorConfig(p_f=0.01, profiles=())


def test_repeated_profile_is_refused():
    # classify used to compute and report the same statistic twice.
    with pytest.raises(ConfigurationError, match="repeat"):
        DetectorConfig(p_f=0.01, profiles=(Standard.GSM, Standard.LTE, Standard.GSM))


def test_empirical_null_needs_one_expected_exceedance():
    # Below one expected exceedance the quantile sits between the largest
    # draws: at p_f = 1e-6 over 10,000 draws it read 0.0582, under the
    # 0.0679 closed form, so the false-alarm rate ran about 40x the target.
    with pytest.raises(ConfigurationError) as exc:
        DetectorConfig(p_f=1e-6, threshold_mode="empirical_null")
    assert "empirical_null_trials=10000 needs p_f >= 0.0001, got p_f=1e-06" in str(exc.value)
    assert "--trials" not in str(exc.value)
    DetectorConfig(p_f=1e-4, threshold_mode="empirical_null")
    DetectorConfig(p_f=1e-6, threshold_mode="empirical_null", empirical_null_trials=1_000_000)
    DetectorConfig(p_f=1e-6)


# ------------------------------------------------------------- leakage

def test_mean_power_leakage_against_brute_force():
    m, fs = 7777, 1.92e6
    for alpha in (2000.0, 26000.0 / 15.0, 313.07):
        direct = np.mean(np.exp(-2j * np.pi * alpha / fs * np.arange(m)))
        assert mean_power_leakage(alpha, fs, m) == pytest.approx(direct, abs=1e-12)


def test_mean_power_leakage_zero_on_grid_and_one_at_dc():
    m, fs = 4096, 1.0
    assert mean_power_leakage(0.0, fs, m) == 1.0
    assert abs(mean_power_leakage(16.0 * fs / m, fs, m)) < 1e-12


def detection_statistic(r, alpha_hz):
    """Reference: |Ĉ(alpha, 0)| less the mean-power leakage sigma^2 D(alpha),
    each from its own ``estimate_ccf`` call."""
    leak = estimate_ccf(r, 0.0).value.real * mean_power_leakage(alpha_hz, r.sample_rate_hz, r.m_r)
    return abs(estimate_ccf(r, alpha_hz, 0).value - leak)


def test_statistic_equals_corrected_ccf():
    r = synth_noise(5000, 1.0, seed=3, sample_rate_hz=1.92e6)
    for d in classify(r, DetectorConfig(p_f=0.01)).decisions:
        expected = detection_statistic(r, d.standard.fundamental_cf_float)
        assert d.statistic == pytest.approx(expected, rel=1e-12)


def test_statistic_matches_centered_dot_product():
    # The leakage-corrected statistic is identical to transforming the
    # mean-removed instantaneous power; null_statistics corrects each row of
    # a batch of records the same way.
    r = synth_noise(4096, 2.0, seed=4, sample_rate_hz=1e6)
    alpha = 1733.0
    power = np.abs(r.samples) ** 2
    phasors = unit_phasors(alpha / 1e6, r.m_r)
    expected = abs((power - power.mean()) @ phasors) / r.m_r
    assert detection_statistic(r, alpha) == pytest.approx(expected, rel=1e-12)
    batch = np.stack([power, 4.0 * power])
    leak = batch.mean(axis=1) * mean_power_leakage(alpha, 1e6, r.m_r)
    alphas_ts = (alpha / 1e6,)
    stats = np.abs(_rotate(_block_sums(batch, alphas_ts), alphas_ts)[:, 0] / r.m_r - leak)
    np.testing.assert_allclose(stats, [expected, 4.0 * expected], rtol=1e-12)


# ------------------------------------------------------------- classify

def _gsm_rx(num_slots=60, snr_db=20.0, seed=5):
    x = synth_gsm(GsmSynthConfig(num_slots=num_slots, seed=seed, guard_mode="gated"))
    return apply_channel(x, ChannelConfig(snr_db=snr_db, seed=seed + 1))


def _lte_rx(num_slots=40, snr_db=20.0, seed=6):
    x = synth_lte(LteSynthConfig(num_slots=num_slots, seed=seed, data_occupancy=0.1))
    return apply_channel(x, ChannelConfig(snr_db=snr_db, seed=seed + 1))


def test_classify_gsm_and_lte_at_high_snr():
    assert classify(_gsm_rx(), DetectorConfig(p_f=0.01)).label is Standard.GSM
    assert classify(_lte_rx(), DetectorConfig(p_f=0.01)).label is Standard.LTE


def test_classify_noise_mostly_undetected():
    hits = 0
    trials = 300
    cfg = DetectorConfig(p_f=0.01, profiles=(Standard.GSM,))
    for seed in range(trials):
        r = synth_noise(8000, 1.0, seed=1000 + seed, sample_rate_hz=1_083_333.3333333333)
        hits += classify(r, cfg).decisions[0].detected
    # Binomial(300, 0.01): P(hits > 12) < 1e-5
    assert hits <= 12


def test_classify_rejects_short_buffers_with_minimum():
    cfg = DetectorConfig(p_f=0.01)
    fs = 1e6
    need = cfg.minimum_samples(fs)
    assert need == int(np.ceil(2 * (15 / 26000) * fs))
    r = IqBuffer(samples=np.ones(need - 1), sample_rate_hz=fs)
    with pytest.raises(ValueError, match=str(need)):
        classify(r, cfg)


@pytest.mark.parametrize("rate", [math.inf, math.nan, 0.0, -5.0])
def test_record_check_refuses_a_rate_that_is_not_finite_and_positive(rate):
    cfg = DetectorConfig(p_f=0.01)
    for check in (cfg.minimum_samples, lambda fs: cfg.check_record(fs, 10_000)):
        with pytest.raises(ConfigurationError, match=rf"finite and > 0, got {rate}$"):
            check(rate)


def test_classify_rejects_slot_rate_above_nyquist():
    # At 1e-300 Hz alpha * T_s overflows and both statistics came out NaN.
    samples = synth_noise(40_000, 1.0, seed=5, sample_rate_hz=1e6).samples
    with pytest.raises(ValueError, match=r"1e-300 Hz.*gsm"):
        classify(IqBuffer(samples=samples, sample_rate_hz=1e-300), DetectorConfig(p_f=0.01))
    with pytest.raises(ValueError, match=r"3466 Hz.*gsm"):
        classify(IqBuffer(samples=samples, sample_rate_hz=3466.0),
                 DetectorConfig(p_f=0.01, profiles=("gsm",)))
    # Just above twice the fastest slot rate the record classifies.
    report = classify(IqBuffer(samples=samples, sample_rate_hz=4001.0), DetectorConfig(p_f=0.01))
    assert all(np.isfinite(d.statistic) for d in report.decisions)


def test_classify_refuses_a_slot_rate_within_one_bin_of_nyquist():
    # At 3,470 Hz GSM's slot rate is (3470 - 2 * 1733.3) / 3470 * M_r bins
    # from its image at -alpha: 0.96 bins at 1,000 samples, refused, and
    # 1.06 bins at 1,100 samples, classified.
    cfg = DetectorConfig(p_f=0.01, profiles=("gsm",))
    samples = synth_noise(1_100, 1.0, seed=5, sample_rate_hz=3470.0).samples
    with pytest.raises(ValueError, match=r"3470 Hz is not one bin .*1000 samples.*gsm"):
        classify(IqBuffer(samples=samples[:1_000], sample_rate_hz=3470.0), cfg)
    report = classify(IqBuffer(samples=samples, sample_rate_hz=3470.0), cfg)
    assert report.m_r == 1_100 and np.isfinite(report.decisions[0].statistic)


@pytest.mark.parametrize("bins,holds", [(0.4, False), (1, True), (2, True)])
@pytest.mark.parametrize("seed", [1, 2])
def test_false_alarm_rate_holds_from_one_bin_below_nyquist(seed, bins, holds):
    # The alarm count of 20,000 noise-only records against the calibrated
    # threshold, by a two-sided exact binomial test at p_f: it holds at the
    # closest case classify accepts, (1 - 2 alpha T_s) M_r = 1, and one bin
    # further, and fails at 0.4 bins (a rate near 2.3 p_f), which classify
    # refuses.
    n, m_r, p_f = 20_000, 2_000, 0.01
    alpha_ts = (1 - bins / m_r) / 2
    stats, powers = null_statistics(np.random.default_rng(seed), n, m_r, alpha_ts, 1.0)
    alarms = int(np.count_nonzero(stats > powers * np.sqrt(-np.log(p_f) / m_r)))
    assert (binomtest(alarms, n, p_f).pvalue > 1e-3) == holds


@pytest.mark.parametrize("seed", [1, 2])
def test_noise_gets_any_label_at_the_two_profile_rate(seed):
    # --pf is a per-profile target, so with both profiles noise gets some
    # label at 1 - (1 - P_F)^2: 10,000 noise records of 1,000 samples at
    # 8 kHz, where the two slot rates are 33 bins apart, by a two-sided
    # exact binomial test of the labelled count.
    n, m_r, p_f = 10_000, 1_000, 0.05
    cfg = DetectorConfig(p_f=p_f)
    noise = synth_noise(n * m_r, 1.0, seed=seed).samples.reshape(n, m_r)
    labelled = sum(classify(IqBuffer(samples=r, sample_rate_hz=8000.0), cfg).label is not None
                   for r in noise)
    assert binomtest(labelled, n, 1 - (1 - p_f) ** 2).pvalue > 1e-3, labelled


_AUDIT_WORK = 150_000_000  # most exponential draws, M_r times records, per example


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    alpha_ts=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
    log10_m_r=st.floats(math.log10(detector._MIN_RECORD_SAMPLES), math.log10(2e5)),
    u=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_false_alarm_rate_holds_on_records_check_record_accepts(alpha_ts, log10_m_r, u, seed):
    # The CFAR audit: GSM alone at f_s = alpha / (alpha T_s), at any record
    # check_record accepts, M_r log-uniform from the 250-sample floor to 2e5
    # and P_F log-uniform in [1e-3, 0.2]. Each example draws at least 20
    # expected alarms and at most _AUDIT_WORK samples, and passes a two-sided
    # exact binomial test of its alarm count against the closed-form
    # threshold at 1e-6.
    m_r = round(10**log10_m_r)
    low = max(1e-3, 20 * m_r / (_AUDIT_WORK - m_r))
    p_f = low * (0.2 / low) ** u
    cfg = DetectorConfig(p_f=p_f, profiles=("gsm",))
    fs = Standard.GSM.fundamental_cf_float / alpha_ts
    try:
        cfg.check_record(fs, m_r)
    except ConfigurationError:
        assume(False)
    n = math.ceil(20 / p_f)
    stats, powers = null_statistics(np.random.default_rng(seed), n, m_r, alpha_ts, 1.0)
    unit = threshold(cfg, 1.0, m_r)
    alarms = int(np.count_nonzero(stats > powers * unit))
    assert binomtest(alarms, n, p_f).pvalue > 1e-6, (alarms, n, p_f, m_r, alpha_ts)


def test_classify_rejects_non_finite_power():
    # One inf sample makes the mean power inf; the threshold refuses it
    # rather than returning "no detection" with NaN statistics.
    samples = synth_noise(4000, 1.0, seed=5, sample_rate_hz=1e6).samples.copy()
    samples[123] = np.inf
    with pytest.raises(ConfigurationError, match="sigma_r_sq"):
        classify(IqBuffer(samples=samples, sample_rate_hz=1e6), DetectorConfig(p_f=0.01))


@pytest.mark.parametrize("gain", [2.0, 0.5, 2.0j])
@pytest.mark.parametrize("mode", ["calibrated", "empirical_null"])
def test_scaling_decision_invariance(gain, mode):
    r = _gsm_rx(num_slots=30)
    cfg = DetectorConfig(p_f=0.01, threshold_mode=mode, empirical_null_trials=5000)
    a = classify(r, cfg)
    b = classify(IqBuffer(samples=gain * r.samples, sample_rate_hz=r.sample_rate_hz), cfg)
    assert a.label == b.label
    for da, db in zip(a.decisions, b.decisions):
        assert da.detected == db.detected
        assert db.statistic == pytest.approx(abs(gain) ** 2 * da.statistic, rel=1e-9)
    assert b.threshold == pytest.approx(abs(gain) ** 2 * a.threshold, rel=1e-9)


def test_cfo_decision_invariance():
    r = _gsm_rx(num_slots=30)
    cfg = DetectorConfig(p_f=0.01)
    t = np.arange(r.m_r) / r.sample_rate_hz
    rot = IqBuffer(samples=r.samples * np.exp(2j * np.pi * 50_000.0 * t),
                   sample_rate_hz=r.sample_rate_hz)
    a, b = classify(r, cfg), classify(rot, cfg)
    assert a.label == b.label
    for da, db in zip(a.decisions, b.decisions):
        assert da.detected == db.detected
        assert db.statistic == pytest.approx(da.statistic, rel=1e-9)


def test_classify_deterministic():
    r = _lte_rx(num_slots=30)
    cfg = DetectorConfig(p_f=0.01, threshold_mode="empirical_null", empirical_null_trials=3000)
    assert classify(r, cfg) == classify(r, cfg)


# Capture rates: GSM at four times its symbol rate, LTE at 1.92 MHz, and a
# rate native to neither.
_CAPTURE_RATES = (1625000 / 6 * 4, 1.92e6, 1.6e6)


def test_classify_statistics_match_exact_sums():
    # Each statistic against |sum (p - mean p) phi| / M from correctly rounded
    # sums and exactly reduced phasor angles, within 1e-12 of sum|p - mean p| / M;
    # sigma^2 within 1e-15 of the correctly rounded mean of |r|^2.
    cfg = DetectorConfig(p_f=0.01)
    noise = synth_noise(200_000, 1.0, seed=8, sample_rate_hz=_CAPTURE_RATES[2])
    for r in (_gsm_rx(), _lte_rx(), noise):
        _assert_exact(classify(r, cfg), np.abs(r.samples) ** 2, r.sample_rate_hz)


def test_classify_of_a_strided_buffer_matches_its_copy():
    # Each chunk is copied into the squaring scratch, so a strided view of a
    # record classifies like its contiguous copy, bit for bit.
    r = _gsm_rx()
    cfg = DetectorConfig(p_f=0.01)
    view = IqBuffer(samples=r.samples[::2], sample_rate_hz=r.sample_rate_hz / 2)
    assert not view.samples.flags.c_contiguous
    copy = IqBuffer(samples=view.samples.copy(), sample_rate_hz=view.sample_rate_hz)
    assert classify(view, cfg) == classify(copy, cfg)


def _assert_exact(report, p, rate):
    """report's sigma^2 and statistics against correctly rounded sums of p."""
    m = p.size
    assert report.sigma_r_sq == pytest.approx(math.fsum(p) / m, rel=1e-15, abs=0)
    centered = p - math.fsum(p) / m
    scale = math.fsum(np.abs(centered)) / m
    for d in report.decisions:
        terms = centered * exact_phasors(d.standard.fundamental_cf_float / rate, m)
        exact = abs(complex(math.fsum(terms.real), math.fsum(terms.imag))) / m
        assert abs(d.statistic - exact) <= 1e-12 * scale


@pytest.fixture(scope="module")
def capture_records():
    """GSM, LTE and noise records long enough for every capture length below."""
    return {"gsm": _gsm_rx(num_slots=325), "lte": _lte_rx(num_slots=210),
            "noise": synth_noise(200_003, 1.0, seed=9, sample_rate_hz=_CAPTURE_RATES[2])}


@pytest.mark.parametrize("m", [2**14 - 1, 2**14, 2**16 + 1, 200_003])
def test_classify_of_a_capture_file_matches_its_loaded_buffer(tmp_path, capture_records, m):
    # The one-pass route from the file against the loaded buffer: equal labels,
    # and statistics exact to the existing bound with |r|^2 = I^2 + Q^2
    # correctly rounded.
    cfg = DetectorConfig(p_f=0.01)
    for name, r in capture_records.items():
        path = tmp_path / f"{name}.iq"
        save_iq(IqBuffer(samples=r.samples[:m], sample_rate_hz=r.sample_rate_hz), path)
        report, loaded = classify(path, cfg), classify(load_iq(path), cfg)
        assert report.m_r == m
        assert report.label == loaded.label
        # Both square I and Q in float64 and sum on one chunk grid: bit for bit.
        assert (report.sigma_r_sq, report.threshold) == (loaded.sigma_r_sq, loaded.threshold)
        assert [d.statistic for d in report.decisions] == [
            d.statistic for d in loaded.decisions
        ]
        squares = np.fromfile(path, "<f4").astype(np.float64) ** 2
        _assert_exact(report, squares[0::2] + squares[1::2], r.sample_rate_hz)


def test_buffers_and_captures_open_on_one_chunk_grid(tmp_path):
    # A buffer and a capture file are cut alike: every chunk but the last is
    # _READ_CHUNK samples, a whole number of 2**14-sample phasor blocks, so
    # the block sums of each chunk start on a block of the record.
    assert iq_io._READ_CHUNK % 2**14 == 0
    m = 2 * iq_io._READ_CHUNK + 1234
    buf = synth_noise(m, 1.0, seed=6, sample_rate_hz=_CAPTURE_RATES[1])
    path = tmp_path / "grid.iq"
    save_iq(buf, path)
    for source in (buf, path):
        samples = iq_io.open_samples(source)
        assert (samples.sample_rate_hz, samples.m_r) == (buf.sample_rate_hz, m)
        sizes = [chunk.size for chunk in samples.chunks]
        assert sizes == [iq_io._READ_CHUNK, iq_io._READ_CHUNK, 1234]


def test_classify_of_a_capture_file_holds_memory_independent_of_its_length(tmp_path):
    # The capture is read in chunks and never held whole: the traced peak of
    # a 16 MB capture is that of a 2 MB one, plus its 2**14-block sums.
    cfg = DetectorConfig(p_f=0.01)
    rng = np.random.default_rng(4)
    peaks = []
    for m in (2**18, 2**21):
        path = tmp_path / f"n{m}.iq"
        rng.standard_normal(2 * m, dtype=np.float32).tofile(path)
        IqFileMeta(sample_rate_hz=_CAPTURE_RATES[1], sample_count=m).write(f"{path}.meta")
        classify(path, cfg)  # builds this rate's table outside the traced call
        tracemalloc.start()
        try:
            classify(path, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 16 * 1024
    assert peaks[1] <= 3 * 2**20


def test_classify_of_a_capture_file_parses_its_sidecar_once(tmp_path, monkeypatch):
    # The sidecar parsed for the rate and length refusals is the one summed:
    # estimate_ccf receives the opened samples, not the path again.
    path = tmp_path / "noise.iq"
    save_iq(synth_noise(40_000, 1.0, seed=2, sample_rate_hz=_CAPTURE_RATES[1]), path)
    reads = []
    parse = IqFileMeta.read.__func__

    def counted(cls, meta_path):
        reads.append(meta_path)
        return parse(cls, meta_path)

    monkeypatch.setattr(IqFileMeta, "read", classmethod(counted))
    report = classify(path, DetectorConfig(p_f=0.01))
    assert reads == [f"{path}.meta"]
    assert report.m_r == 40_000
    short = tmp_path / "short.iq"
    save_iq(synth_noise(1_000, 1.0, seed=3, sample_rate_hz=_CAPTURE_RATES[1]), short)
    with pytest.raises(ValueError, match="too short"):
        classify(short, DetectorConfig(p_f=0.01))
    assert reads[1:] == [f"{short}.meta"]
    with pytest.raises(ValueError, match="tau_samples = 0 only"):
        estimate_ccf(iq_io.open_samples(path), 2000.0, 1)
    with pytest.raises(TypeError, match="IqBuffer or opened Samples"):
        estimate_ccf(path, 2000.0)  # a capture is opened, or loaded, first


def test_stacked_table_holds_the_phasors_of_each_frequency():
    # Rows 2i and 2i + 1 are the real and imaginary parts of the i-th
    # frequency's phasors, bit for bit: both profiles at each capture rate,
    # each profile at its trial rate, and the empirical-null frequency.
    keys = [tuple(s.fundamental_cf_float / fs for s in Standard) for fs in _CAPTURE_RATES]
    keys += [(s.fundamental_cf_float / default_sample_rate(s),) for s in Standard]
    keys.append((_NULL_ALPHA_TS,))
    for alphas_ts in keys:
        table = _stacked_table(alphas_ts)
        assert table.shape == (2 * len(alphas_ts), 1 << 14)
        assert not table.flags.writeable
        for i, a in enumerate(alphas_ts):
            phasors = np.exp(-2j * np.pi * a * np.arange(1 << 14))
            np.testing.assert_array_equal(table[2 * i], phasors.real)
            np.testing.assert_array_equal(table[2 * i + 1], phasors.imag)
    # At most 16 tables; at two frequencies each, 8 MB.
    assert _stacked_table.cache_info().maxsize == 16


def test_capture_rates_share_the_phasor_cache():
    # Both profiles at one rate share one stacked table: 3 tables, which the
    # 16-entry cache holds, so a second round of the same rates builds none.
    # Noise-only runs take one table per profile, and a second run of each
    # builds none either.
    cfg = DetectorConfig(p_f=0.01)
    buffers = [
        synth_noise(40_000, 1.0, seed=k, sample_rate_hz=fs) for k, fs in enumerate(_CAPTURE_RATES)
    ]
    _stacked_table.cache_clear()
    for r in buffers:
        classify(r, cfg)
    misses = _stacked_table.cache_info().misses
    for r in buffers:
        classify(IqBuffer(samples=r.samples, sample_rate_hz=r.sample_rate_hz), cfg)
    assert _stacked_table.cache_info().misses == misses == 3
    for seed in (0, 1):
        for profile in Standard:
            run_false_alarm(1.0, 2000, 0.01, 5, profile=profile, master_seed=seed)
        assert _stacked_table.cache_info().misses == 3 + len(Standard)


def _decision_input(kind, snr_db, seed):
    if kind == "noise":
        return synth_noise(16_000, 1.0, seed=seed, sample_rate_hz=_CAPTURE_RATES[2])
    if kind == "gsm":
        x = synth_gsm(GsmSynthConfig(num_slots=24, seed=seed, guard_mode="gated"))
    else:
        x = synth_lte(LteSynthConfig(num_slots=20, seed=seed, data_occupancy=0.1))
    return apply_channel(x, ChannelConfig(snr_db=snr_db, seed=seed + 1))


_DECISION_INPUTS = dict(
    kind=st.sampled_from(["gsm", "lte", "noise"]),
    snr_db=st.floats(-15.0, 30.0),
    seed=st.integers(0, 2**32),
)


def _assert_scaled_decision(r, other, gain_sq):
    """other's decision is r's with every power scaled by gain_sq, within the
    rounding of |r|^2 and of the sums; the labels agree where no statistic is
    within that rounding of the threshold or of the other statistic."""
    cfg = DetectorConfig(p_f=0.01)
    a, b = classify(r, cfg), classify(other, cfg)
    p = np.abs(r.samples) ** 2
    tol = 1e-12 * gain_sq * math.fsum(np.abs(p - math.fsum(p) / r.m_r)) / r.m_r
    assert b.sigma_r_sq == pytest.approx(gain_sq * a.sigma_r_sq, rel=1e-13)
    assert b.threshold == pytest.approx(gain_sq * a.threshold, rel=1e-13)
    scaled = [gain_sq * d.statistic for d in a.decisions]
    for d, stat in zip(b.decisions, scaled):
        assert abs(d.statistic - stat) <= tol
    gaps = [abs(s - gain_sq * a.threshold) for s in scaled] + [abs(scaled[0] - scaled[1])]
    if min(gaps) > 2 * tol:
        assert b.label == a.label


@settings(max_examples=40, deadline=None)
@given(**_DECISION_INPUTS, log_gain=st.floats(-3.0, 3.0), phase=st.floats(0.0, 2 * np.pi))
def test_decision_scales_with_power(kind, snr_db, seed, log_gain, phase):
    # r -> c r scales sigma^2, the threshold and every statistic by |c|^2.
    r = _decision_input(kind, snr_db, seed)
    gain = 10.0**log_gain * np.exp(1j * phase)
    scaled = IqBuffer(samples=gain * r.samples, sample_rate_hz=r.sample_rate_hz)
    _assert_scaled_decision(r, scaled, abs(gain) ** 2)


@settings(max_examples=40, deadline=None)
@given(**_DECISION_INPUTS, cfo=st.floats(-0.25, 0.25), phase=st.floats(0.0, 2 * np.pi))
def test_decision_ignores_frequency_offset(kind, snr_db, seed, cfo, phase):
    # A carrier offset of cfo * f_s leaves |r|^2, hence the decision, unchanged.
    r = _decision_input(kind, snr_db, seed)
    rotated = r.samples * np.exp(1j * (2 * np.pi * cfo * np.arange(r.m_r) + phase))
    _assert_scaled_decision(r, IqBuffer(samples=rotated, sample_rate_hz=r.sample_rate_hz), 1.0)


# ------------------------------------------------------------- report

def test_report_serialization():
    rep = classify(_gsm_rx(num_slots=30), DetectorConfig(p_f=0.01))
    csv_text = rep.to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "profile,statistic,threshold,detected,label"
    assert len(lines) == 3
    assert lines[1].startswith("gsm,") and lines[1].endswith(",gsm")
    record = json.loads(rep.to_json_line())
    assert record["label"] == "gsm"
    assert {p["profile"] for p in record["profiles"]} == {"gsm", "lte"}
    assert record["m_r"] == rep.m_r


def test_report_label_unknown_on_noise():
    r = synth_noise(10_000, 1.0, seed=77, sample_rate_hz=2e6)
    rep = classify(r, DetectorConfig(p_f=0.001))
    if rep.label is None:  # overwhelmingly likely at p_f = 1e-3
        assert rep.label_name == "unknown"
        assert not any(d.detected for d in rep.decisions)


def test_tie_break_uses_largest_ratio():
    rep = classify(_gsm_rx(num_slots=60), DetectorConfig(p_f=0.4))
    # At p_f = 0.4 the LTE branch often false-alarms on GSM input, but the
    # GSM statistic must dominate (one threshold, so the largest ratio too).
    gsm, lte = rep.decisions
    assert (gsm.standard, lte.standard) == (Standard.GSM, Standard.LTE)
    assert gsm.detected and gsm.statistic > lte.statistic
    assert rep.label is Standard.GSM
