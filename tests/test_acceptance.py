"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS lines. Each criterion prints one line; a failed assert marks it FAIL.
"""

import time

import numpy as np
import pytest

from cyclodet import (
    ChannelConfig,
    DetectorConfig,
    GsmSynthConfig,
    IqBuffer,
    LteSynthConfig,
    Standard,
    SweepConfig,
    apply_channel,
    ccf_flop_count,
    ccf_spectrum,
    classify,
    emit_figure_data,
    estimate_ccf,
    load_iq,
    run_detection_sweep,
    run_false_alarm,
    save_iq,
    synth_gsm,
    synth_lte,
    synth_noise,
)

SEED = 20260811

GSM_CF = 26000.0 / 15.0
LTE_CF = 2000.0


def _report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS — {detail}")


def _load_spectrum_csv(path):
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    return rows[:, 0], rows[:, 1]


def _peaks_and_background(alphas, mags, fundamental, k_range=5):
    """Peak magnitude near each harmonic and the non-harmonic median."""
    spacing = alphas[1] - alphas[0]
    harmonic_bins = set()
    k_all = int(np.floor(alphas[-1] / fundamental))
    for k in range(1, k_all + 1):
        idx = int(round(k * fundamental / spacing))
        harmonic_bins.update(range(idx - 2, idx + 3))
    mask = np.ones(alphas.size, dtype=bool)
    mask[[b for b in harmonic_bins if 0 <= b < alphas.size]] = False
    mask[:3] = False  # DC region
    background = float(np.median(mags[mask]))
    peaks = []
    for k in range(1, k_range + 1):
        idx = int(round(k * fundamental / spacing))
        peaks.append(float(mags[max(idx - 1, 0) : idx + 2].max()))
    return peaks, background


def test_criterion_1_gsm_spectral_lines(tmp_path):
    t0 = time.monotonic()
    out = tmp_path / "fig3.csv"
    emit_figure_data("fig3", out, master_seed=SEED)
    alphas, mags = _load_spectrum_csv(out)
    peaks, background = _peaks_and_background(alphas, mags, GSM_CF)
    ratios = [p / background for p in peaks]
    assert all(r > 5.0 for r in ratios), f"peak/median ratios {ratios}"
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report("1 (GSM spectral lines)",
            f"k=1..5 peak/median = {[f'{r:.1f}' for r in ratios]}, {elapsed:.1f}s")


def test_criterion_2_lte_spectral_lines(tmp_path):
    t0 = time.monotonic()
    out = tmp_path / "fig4.csv"
    emit_figure_data("fig4", out, master_seed=SEED)
    alphas, mags = _load_spectrum_csv(out)
    peaks, background = _peaks_and_background(alphas, mags, LTE_CF)
    ratios = [p / background for p in peaks]
    assert all(r > 5.0 for r in ratios), f"peak/median ratios {ratios}"
    # 200 Hz line from the sync channels, 3x the background
    spacing = alphas[1] - alphas[0]
    idx = int(round(200.0 / spacing))
    line_200 = mags[idx - 1 : idx + 2].max()
    assert line_200 > 3.0 * background
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report("2 (LTE spectral lines)",
            f"k=1..5 peak/median = {[f'{r:.1f}' for r in ratios]}, "
            f"200 Hz = {line_200 / background:.1f}x, {elapsed:.1f}s")


def _pd(standard, snr_db, obs_s, n_trials, p_f=1e-2, seed=SEED):
    cfg = SweepConfig(
        standard=standard,
        snr_db_list=(snr_db,),
        observation_times_s=(obs_s,),
        p_f_list=(p_f,),
        n_trials=n_trials,
        master_seed=seed,
    )
    return run_detection_sweep(cfg).cells[0].pd


def test_criterion_3_detection_probability_cells():
    t0 = time.monotonic()
    pd_gsm_10 = _pd(Standard.GSM, +5.0, 0.010, 200)
    assert pd_gsm_10 >= 0.95, f"GSM 10ms @ +5 dB: {pd_gsm_10}"
    pd_gsm_50 = _pd(Standard.GSM, -5.0, 0.050, 400)
    assert pd_gsm_50 >= 0.90, f"GSM 50ms @ -5 dB: {pd_gsm_50}"
    pd_lte_10 = _pd(Standard.LTE, -5.0, 0.010, 200)
    assert pd_lte_10 >= 0.95, f"LTE 10ms @ -5 dB: {pd_lte_10}"

    slack = 2.0 / np.sqrt(200)
    ordering = []
    for snr in (-10.0, -5.0, 0.0):
        for obs in (0.010, 0.050):
            pg = _pd(Standard.GSM, snr, obs, 200)
            pl = _pd(Standard.LTE, snr, obs, 200)
            ordering.append((snr, obs, pg, pl))
            assert pl >= pg - slack, f"LTE {pl} < GSM {pg} at {snr} dB / {obs * 1e3:.0f} ms"
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    cells = ", ".join(f"({s:+.0f}dB,{o * 1e3:.0f}ms: G={g:.2f} L={l:.2f})"
                      for s, o, g, l in ordering)
    _report("3 (detection probability)",
            f"GSM10={pd_gsm_10:.3f} GSM50={pd_gsm_50:.3f} LTE10={pd_lte_10:.3f}; "
            f"LTE>=GSM at {cells}; {elapsed:.0f}s")


def test_criterion_4_constant_false_alarm():
    t0 = time.monotonic()
    results = {}
    for profile in (Standard.GSM, Standard.LTE):
        for m_r in (10_000, 100_000):
            rate = run_false_alarm(
                1.0, m_r, p_f=1e-2, n_trials=10_000, mode="calibrated",
                profile=profile, master_seed=SEED,
            )
            results[(profile.value, m_r)] = rate
            assert 0.0075 <= rate <= 0.0125, f"{profile.value} M={m_r}: {rate}"
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    detail = ", ".join(f"{k[0]}/M={k[1]}: {v:.4f}" for k, v in results.items())
    _report("4 (constant false alarm)", f"{detail}; {elapsed:.0f}s")


def test_criterion_5_pf_ordering():
    t0 = time.monotonic()
    n = 300
    slack = 2.0 / np.sqrt(n)
    detail = []
    for standard in (Standard.LTE, Standard.GSM):
        cfg = SweepConfig(
            standard=standard,
            snr_db_list=(-10.0,),
            observation_times_s=(0.010,),
            p_f_list=(1e-1, 1e-2, 1e-3),
            n_trials=n,
            master_seed=SEED,
        )
        result = run_detection_sweep(cfg)
        pds = [result.cell(-10.0, 0.010, pf).pd for pf in (1e-1, 1e-2, 1e-3)]
        assert pds[0] >= pds[1] - slack and pds[1] >= pds[2] - slack, f"{standard}: {pds}"
        detail.append(f"{standard.value}: {pds[0]:.3f} >= {pds[1]:.3f} >= {pds[2]:.3f}")
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    _report("5 (P_F ordering at -10 dB, 10 ms)", "; ".join(detail) + f"; {elapsed:.0f}s")


def test_criterion_6_estimator_grid_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for i in range(100):
        m = int(10 ** rng.uniform(3, 5))
        r = IqBuffer(
            samples=rng.standard_normal(m) + 1j * rng.standard_normal(m),
            sample_rate_hz=float(rng.uniform(1e5, 2e6)),
        )
        tau = 0 if i % 2 == 0 else int(rng.integers(1, 4))
        spec = ccf_spectrum(r, tau, max_alpha_hz=r.sample_rate_hz / 2)
        for k in rng.integers(0, spec.alphas_hz.size, 16):
            direct = abs(estimate_ccf(r, spec.alphas_hz[k], tau).value)
            rel = abs(spec.magnitudes[k] - direct) / max(direct, 1e-300)
            worst = max(worst, rel)
    assert worst < 1e-9
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report("6 (spectrum == direct estimator)",
            f"worst relative deviation {worst:.2e} over 100 buffers; {elapsed:.0f}s")


def test_criterion_7_exact_invariance_suite(tmp_path):
    t0 = time.monotonic()
    checks = []

    # CFO invariance of the zero-lag estimate and of the decision
    rx = apply_channel(
        synth_gsm(GsmSynthConfig(num_slots=40, seed=SEED, guard_mode="gated")),
        ChannelConfig(snr_db=15.0, seed=SEED + 1),
    )
    t = np.arange(rx.m_r) / rx.sample_rate_hz
    rot = IqBuffer(samples=rx.samples * np.exp(2j * np.pi * 37_123.0 * t),
                   sample_rate_hz=rx.sample_rate_hz)
    a = estimate_ccf(rx, GSM_CF, 0).value
    b = estimate_ccf(rot, GSM_CF, 0).value
    assert abs(a - b) / abs(a) < 1e-12
    det_cfg = DetectorConfig(p_f=1e-2)
    ra, rb = classify(rx, det_cfg), classify(rot, det_cfg)
    assert ra.label == rb.label == Standard.GSM
    assert [d.detected for d in ra.decisions] == [d.detected for d in rb.decisions]
    checks.append("CFO")

    # amplitude-scaling decision invariance (calibrated mode), exact gains
    for gain in (2.0, 0.5, 2.0j):
        rg = classify(IqBuffer(samples=gain * rx.samples, sample_rate_hz=rx.sample_rate_hz),
                      det_cfg)
        assert rg.label == ra.label
        assert [d.detected for d in rg.decisions] == [d.detected for d in ra.decisions]
    checks.append("scaling")

    # circular-shift magnitude invariance on the natural grid
    m = 4096
    noise = synth_noise(m, 1.0, seed=SEED)
    alpha = 37.0 / m
    base = estimate_ccf(noise, alpha, 0).value
    shifted = estimate_ccf(
        IqBuffer(samples=np.roll(noise.samples, -211), sample_rate_hz=1.0), alpha, 0
    ).value
    assert abs(abs(shifted) - abs(base)) / abs(base) < 1e-12
    checks.append("shift")

    # cyclic prefix copies are bit-exact
    lte_cfg = LteSynthConfig(num_slots=2, seed=SEED)
    lte = synth_lte(lte_cfg)
    pos = 0
    for sym in range(14):
        n_cp = lte_cfg.cp_lengths[sym % 7]
        body_end = pos + n_cp + lte_cfg.fft_size
        assert np.array_equal(lte.samples[pos : pos + n_cp],
                              lte.samples[body_end - n_cp : body_end])
        pos = body_end
    checks.append("CP")

    # constant envelope of the continuous-guard GMSK model
    gsm = synth_gsm(GsmSynthConfig(num_slots=16, seed=SEED))
    assert np.max(np.abs(np.abs(gsm.samples) - 1.0)) < 0.02
    checks.append("envelope")

    # capture round trip, then an end-to-end classify from file
    data = tmp_path / "cap.iq"
    f32 = IqBuffer(
        samples=rx.samples.real.astype(np.float32).astype(np.float64)
        + 1j * rx.samples.imag.astype(np.float32).astype(np.float64),
        sample_rate_hz=rx.sample_rate_hz,
    )
    save_iq(f32, data)
    back = load_iq(data)
    assert np.array_equal(back.samples, f32.samples)
    assert back.sample_rate_hz == f32.sample_rate_hz
    assert classify(back, det_cfg).label is Standard.GSM
    checks.append("roundtrip+file-classify")

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report("7 (invariance suite)", ", ".join(checks) + f"; {elapsed:.0f}s")


def test_criterion_8_complexity_model():
    t0 = time.monotonic()
    m = 101
    rng = np.random.default_rng(SEED)
    r = IqBuffer(samples=rng.standard_normal(m) + 1j * rng.standard_normal(m),
                 sample_rate_hz=1.0)
    alpha = 0.173
    mults = adds = 0
    acc = 0.0 + 0.0j
    for n in range(m):
        term = r.samples[n] * np.conj(r.samples[n])
        mults += 1
        term = term * np.exp(-2j * np.pi * alpha * n)
        mults += 1
        acc = term if n == 0 else acc + term
        adds += 0 if n == 0 else 1
    assert (mults, adds) == (2 * m, m - 1)
    assert 6 * mults + 2 * adds == ccf_flop_count(m) == 14 * m - 2
    est = estimate_ccf(r, alpha, 0)
    assert est.value == pytest.approx(acc / m, rel=1e-9)
    # the documented model at the reference record length
    assert ccf_flop_count(50_000) == 699_998
    elapsed = time.monotonic() - t0
    _report("8 (complexity model)",
            f"2M mults + (M-1) adds -> 14M-2; 14*50000-2 = {ccf_flop_count(50_000)}; "
            f"{elapsed:.1f}s")
