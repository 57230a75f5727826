"""Waveform generator tests: burst layout, CP structure, power, determinism."""

from fractions import Fraction

import numpy as np
import pytest

from cyclodet import (
    ConfigurationError,
    GsmSynthConfig,
    LteSynthConfig,
    Standard,
    default_sample_rate,
    estimate_variance,
    slot_samples,
    synth_gsm,
    synth_lte,
    synth_noise,
)
from cyclodet import waveform_synth
from cyclodet.waveform_synth import (
    GSM_SLOT_SCHEDULE_LEN,
    GSM_SLOT_SYMBOLS,
    GSM_SYMBOL_RATE_HZ,
    GSM_TRAINING_LEN,
    GSM_TRAINING_OFFSET,
    GSM_TRAINING_SEQUENCES,
    LTE_SLOTS_PER_FRAME,
    LTE_SUBCARRIER_SPACING_HZ,
    LTE_SYMBOLS_PER_SLOT,
    _QPSK,
    _cell_constants,
    _pss_sequence,
    gsm_bit_schedule,
)

# Seeds for the loop-reference tests, including one above 2**62; the
# 1000-slot cases use only that one, to keep the suite fast.
_REFERENCE_SEEDS = (0, 5, 2**62 + 3)


def _reference_cases(slot_counts):
    return [
        (num_slots, seed)
        for num_slots in slot_counts
        for seed in (_REFERENCE_SEEDS if num_slots < 1000 else _REFERENCE_SEEDS[-1:])
    ]


def _gsm_bit_schedule_loop(cfg):
    """Reference: the per-slot schedule with one RNG call per bit field."""
    rng = np.random.default_rng(cfg.seed)
    tsc = GSM_TRAINING_SEQUENCES[cfg.training_sequence_index]
    tail = np.zeros(3, dtype=np.int8)
    starts = np.empty(cfg.num_slots * GSM_SLOT_SCHEDULE_LEN, dtype=np.float64)
    bits = np.empty_like(starts, dtype=np.int8)
    offsets = np.arange(GSM_SLOT_SCHEDULE_LEN, dtype=np.float64)
    for s in range(cfg.num_slots):
        slot_bits = np.concatenate(
            [
                tail,
                rng.integers(0, 2, 57, dtype=np.int8),
                rng.integers(0, 2, 1, dtype=np.int8),
                tsc,
                rng.integers(0, 2, 1, dtype=np.int8),
                rng.integers(0, 2, 57, dtype=np.int8),
                tail,
                rng.integers(0, 2, 9, dtype=np.int8),
            ]
        )
        lo = s * GSM_SLOT_SCHEDULE_LEN
        starts[lo : lo + GSM_SLOT_SCHEDULE_LEN] = float(s) * float(GSM_SLOT_SYMBOLS) + offsets
        bits[lo : lo + GSM_SLOT_SCHEDULE_LEN] = slot_bits
    return starts, bits


def _synth_lte_loop(cfg):
    """Reference: synth_lte with the per-symbol grid loop and its RNG calls."""
    rng = np.random.default_rng(cfg.seed)
    nsc = 12 * cfg.n_rb
    half = nsc // 2
    data_bins = np.concatenate([np.arange(-half, 0), np.arange(1, half + 1)]) % cfg.fft_size
    sync_bins = np.concatenate([np.arange(-31, 0), np.arange(1, 32)]) % cfg.fft_size
    rs_cols0, rs_vals0, rs_cols4, rs_vals4, sss = _cell_constants(cfg)
    pss = _pss_sequence()

    grid = np.zeros((cfg.num_slots * LTE_SYMBOLS_PER_SLOT, cfg.fft_size), dtype=np.complex128)
    for s in range(cfg.num_slots):
        sync_slot = s % LTE_SLOTS_PER_FRAME in (0, 10)
        for sym in range(LTE_SYMBOLS_PER_SLOT):
            row = s * LTE_SYMBOLS_PER_SLOT + sym
            if sync_slot and sym == 6:
                grid[row, sync_bins] = pss
                continue
            if sync_slot and sym == 5:
                grid[row, sync_bins] = sss
                continue
            data = _QPSK[rng.integers(0, 4, nsc)]
            if cfg.data_occupancy < 1.0:
                data = data * (rng.random(nsc) < cfg.data_occupancy)
            grid[row, data_bins] = data
            if sym == 0:
                grid[row, data_bins[rs_cols0]] = rs_vals0
            elif sym == 4:
                grid[row, data_bins[rs_cols4]] = rs_vals4

    bodies = np.fft.ifft(grid, axis=1)
    n = cfg.fft_size
    slot_index = np.concatenate(
        [k * n + np.r_[n - n_cp : n, 0:n] for k, n_cp in enumerate(cfg.cp_lengths)]
    )
    out = bodies.reshape(cfg.num_slots, -1)[:, slot_index].ravel()
    return out / np.sqrt(np.mean(np.abs(out) ** 2))


def _assert_bit_equal(a, b):
    """Equal values, dtype and signs of zero."""
    assert a.dtype == b.dtype
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(np.signbit(a.view(np.float64)), np.signbit(b.view(np.float64)))


# ---------------------------------------------------------------- GSM

def test_gsm_sample_count_and_rate():
    cfg = GsmSynthConfig(num_slots=8, oversample=4, seed=0)
    buf = synth_gsm(cfg)
    assert len(buf) == 8 * 625 == 5000
    assert buf.sample_rate_hz == pytest.approx(1_083_333.3333333, abs=1e-4)


def test_gsm_constant_envelope():
    buf = synth_gsm(GsmSynthConfig(num_slots=12, seed=3))
    assert np.max(np.abs(np.abs(buf.samples) - 1.0)) < 0.02


def test_gsm_mean_power_unit():
    for mode in ("random_bits", "gated"):
        buf = synth_gsm(GsmSynthConfig(num_slots=10, seed=5, guard_mode=mode))
        assert estimate_variance(buf) == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("tsc", [0, 3, 7])
def test_gsm_training_bits_identical_across_slots(tsc):
    cfg = GsmSynthConfig(num_slots=25, seed=11, training_sequence_index=tsc)
    _, bits = gsm_bit_schedule(cfg)
    expected = GSM_TRAINING_SEQUENCES[tsc]
    for slot in range(cfg.num_slots):
        lo = slot * GSM_SLOT_SCHEDULE_LEN + GSM_TRAINING_OFFSET
        np.testing.assert_array_equal(bits[lo : lo + GSM_TRAINING_LEN], expected)


def test_gsm_schedule_times_are_slot_periodic():
    cfg = GsmSynthConfig(num_slots=8, seed=2)
    starts, _ = gsm_bit_schedule(cfg)
    per_slot = starts.reshape(cfg.num_slots, GSM_SLOT_SCHEDULE_LEN)
    rel = per_slot - np.arange(cfg.num_slots)[:, None] * 156.25
    assert np.max(np.abs(rel - rel[0])) < 1e-12


def test_gsm_determinism_and_seed_sensitivity():
    a = synth_gsm(GsmSynthConfig(num_slots=6, seed=42))
    b = synth_gsm(GsmSynthConfig(num_slots=6, seed=42))
    c = synth_gsm(GsmSynthConfig(num_slots=6, seed=43))
    np.testing.assert_array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


@pytest.mark.parametrize("guard_mode", ["random_bits", "gated"])
@pytest.mark.parametrize("tsc", [0, 7])
def test_gsm_schedule_matches_per_slot_loop(guard_mode, tsc, monkeypatch):
    for num_slots, seed in _reference_cases((2, 37, 1000)):
        cfg = GsmSynthConfig(
            num_slots=num_slots, seed=seed, guard_mode=guard_mode, training_sequence_index=tsc
        )
        starts, bits = gsm_bit_schedule(cfg)
        ref_starts, ref_bits = _gsm_bit_schedule_loop(cfg)
        assert bits.dtype == ref_bits.dtype == np.int8
        np.testing.assert_array_equal(bits, ref_bits)
        _assert_bit_equal(starts, ref_starts)

        samples = synth_gsm(cfg).samples
        with monkeypatch.context() as m:
            m.setattr(waveform_synth, "gsm_bit_schedule", _gsm_bit_schedule_loop)
            _assert_bit_equal(samples, synth_gsm(cfg).samples)


def test_gsm_gated_guard_drops_power():
    cfg = GsmSynthConfig(num_slots=20, seed=7, guard_mode="gated")
    buf = synth_gsm(cfg)
    rel = (np.arange(len(buf)) / cfg.oversample) % 156.25
    guard_core = (rel >= 149.0) & (rel < 155.0)
    burst_core = (rel >= 5.0) & (rel < 145.0)
    assert np.max(np.abs(buf.samples[guard_core])) < 1e-12
    assert np.min(np.abs(buf.samples[burst_core])) > 0.5


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(num_slots=0),
        dict(num_slots=4, oversample=1),
        dict(num_slots=4, training_sequence_index=8),
        dict(num_slots=4, guard_mode="silence"),
        dict(num_slots=3, oversample=2),  # fractional total sample count
    ],
)
def test_gsm_config_validation(kwargs):
    with pytest.raises(ConfigurationError):
        GsmSynthConfig(seed=0, **kwargs)


def test_gsm_oversample_two_even_slots_ok():
    buf = synth_gsm(GsmSynthConfig(num_slots=4, oversample=2, seed=0))
    assert len(buf) == int(4 * 156.25 * 2)


# ---------------------------------------------------------------- LTE

def test_lte_slot_sample_count():
    cfg = LteSynthConfig(num_slots=1, seed=0)
    buf = synth_lte(cfg)
    assert len(buf) == 960  # 7*128 + 10 + 6*9
    assert buf.sample_rate_hz == 1.92e6
    assert cfg.cp_lengths == (10, 9, 9, 9, 9, 9, 9)


def test_lte_cp_is_exact_copy_every_symbol():
    cfg = LteSynthConfig(num_slots=3, seed=9)
    buf = synth_lte(cfg)
    pos = 0
    for _ in range(cfg.num_slots):
        for sym in range(7):
            n_cp = cfg.cp_lengths[sym]
            cp = buf.samples[pos : pos + n_cp]
            body = buf.samples[pos + n_cp : pos + n_cp + cfg.fft_size]
            np.testing.assert_array_equal(cp, body[-n_cp:])
            pos += n_cp + cfg.fft_size


def _demod_symbol(buf, cfg, slot, sym):
    offset = slot * cfg.samples_per_slot + sum(cfg.cp_lengths[:sym]) + sym * cfg.fft_size
    body = buf.samples[offset + cfg.cp_lengths[sym] : offset + cfg.cp_lengths[sym] + cfg.fft_size]
    return np.fft.fft(body)


def test_lte_rs_bins_identical_across_slots():
    # Demodulated bins above the data power level (the boosted RS) must carry
    # the same values in symbols 0 and 4 of every slot.
    cfg = LteSynthConfig(num_slots=6, seed=10, cell_seed=5)
    buf = synth_lte(cfg)
    boost = 10 ** (cfg.rs_power_boost_db / 20)
    for sym in (0, 4):
        ref = _demod_symbol(buf, cfg, 2, sym)
        data_level = np.median(np.abs(ref)[np.abs(ref) > 1e-9])
        rs_bins = np.abs(ref) > (1.0 + boost) / 2.0 * data_level
        assert rs_bins.sum() == 12  # every 6th of 72 used subcarriers
        for slot in range(cfg.num_slots):
            grid = _demod_symbol(buf, cfg, slot, sym)
            np.testing.assert_allclose(grid[rs_bins], ref[rs_bins], atol=1e-9)


def test_lte_pss_is_zadoff_chu_root_25():
    cfg = LteSynthConfig(num_slots=11, seed=1, cell_seed=3)
    buf = synth_lte(cfg)
    n = np.arange(63)
    zc = np.exp(-1j * np.pi * 25 * n * (n + 1) / 63.0)
    expected = np.concatenate([zc[:31], zc[32:]])
    for slot in (0, 10):
        grid = _demod_symbol(buf, cfg, slot, 6)
        got = np.concatenate([grid[128 - 31 : 128], grid[1:32]])
        scale = got[0] / expected[0]
        np.testing.assert_allclose(got, expected * scale, atol=1e-9)
        # DC and everything outside the center 62 subcarriers stay empty
        assert abs(grid[0]) < 1e-9
        assert np.max(np.abs(grid[32 : 128 - 31])) < 1e-9


def test_lte_sss_fixed_bpsk_before_pss():
    cfg = LteSynthConfig(num_slots=11, seed=6, cell_seed=3)
    buf = synth_lte(cfg)
    s0 = _demod_symbol(buf, cfg, 0, 5)
    s10 = _demod_symbol(buf, cfg, 10, 5)
    np.testing.assert_allclose(s0, s10, atol=1e-9)
    used = np.concatenate([s0[128 - 31 : 128], s0[1:32]])
    ratios = used / used[0]
    np.testing.assert_allclose(np.abs(ratios), 1.0, atol=1e-9)
    np.testing.assert_allclose(np.imag(ratios), 0.0, atol=1e-9)  # BPSK: +/- one value


def test_lte_mean_power_unit_and_determinism():
    cfg = LteSynthConfig(num_slots=5, seed=8)
    a, b = synth_lte(cfg), synth_lte(cfg)
    assert estimate_variance(a) == pytest.approx(1.0, abs=1e-3)
    np.testing.assert_array_equal(a.samples, b.samples)


def test_lte_data_occupancy_thins_grid():
    full = synth_lte(LteSynthConfig(num_slots=4, seed=3, data_occupancy=1.0))
    thin_cfg = LteSynthConfig(num_slots=4, seed=3, data_occupancy=0.1)
    thin = synth_lte(thin_cfg)
    assert estimate_variance(thin) == pytest.approx(1.0, abs=1e-3)
    grid = _demod_symbol(thin, thin_cfg, 1, 2)  # plain data symbol
    used = np.concatenate([grid[128 - 36 : 128], grid[1:37]])
    occupied = np.sum(np.abs(used) > 1e-6)
    assert occupied < 72 * 0.35  # Bernoulli(0.1) over 72 REs
    assert not np.array_equal(full.samples, thin.samples)


@pytest.mark.parametrize("occupancy", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("fft_size,n_rb", [(128, 6), (512, 25)])
def test_lte_matches_per_symbol_loop(occupancy, fft_size, n_rb):
    # 1 slot holds sync slot 0 only, 11 crosses sync slot 10, 21 crosses the
    # 20-slot frame boundary into the next sync slot.
    for num_slots, seed in _reference_cases((1, 11, 21, 1000)):
        cfg = LteSynthConfig(
            num_slots=num_slots, n_rb=n_rb, fft_size=fft_size, seed=seed,
            data_occupancy=occupancy,
        )
        _assert_bit_equal(synth_lte(cfg).samples, _synth_lte_loop(cfg))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(num_slots=0),
        dict(num_slots=1, fft_size=64, n_rb=6),     # fft too small for 72 SC
        dict(num_slots=1, fft_size=192),            # CP does not scale to integers
        dict(num_slots=1, data_occupancy=1.5),
        dict(num_slots=1, rs_power_boost_db=float("nan")),
        dict(num_slots=1, rs_power_boost_db=float("inf")),
        dict(num_slots=1, rs_power_boost_db=6000.0),     # power ratio overflows to inf
        dict(num_slots=1, rs_power_boost_db=10000.0),
        dict(num_slots=1, rs_power_boost_db=-3300.0),    # power ratio underflows to 0
    ],
)
def test_lte_config_validation(kwargs):
    with pytest.raises(ConfigurationError):
        LteSynthConfig(seed=0, **kwargs)


# ---------------------------------------------------------------- noise

def test_noise_power_and_determinism():
    buf = synth_noise(100_000, power=1.0, seed=1)
    assert estimate_variance(buf) == pytest.approx(1.0, abs=0.01)
    np.testing.assert_array_equal(buf.samples, synth_noise(100_000, 1.0, seed=1).samples)


def test_noise_power_scaling_exact():
    a = synth_noise(1000, power=1.0, seed=2)
    b = synth_noise(1000, power=2.0, seed=2)
    np.testing.assert_array_equal(b.samples, a.samples * np.sqrt(2.0))


def test_noise_validation():
    with pytest.raises(ConfigurationError):
        synth_noise(0, 1.0, seed=0)
    for power in (0.0, np.inf, np.nan):
        with pytest.raises(ConfigurationError, match=f"power.*{power}"):
            synth_noise(10, power, seed=0)


@pytest.mark.parametrize("seed", [0, 5, 2**62 + 3])
def test_noise_matches_hand_written_draw(seed):
    # synth_noise's draw as it was written out before it used complex_normal.
    for power in (1.0, 0.37, 12.5):
        for m in (1, 1000, 4096):
            rng = np.random.default_rng(seed)
            raw = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            expected = np.sqrt(power) * (np.sqrt(0.5) * raw)
            np.testing.assert_array_equal(synth_noise(m, power, seed).samples, expected)


def test_synthesized_slot_lasts_exactly_the_standards_slot():
    for fft_size in range(128, 4097, 128):
        cfg = LteSynthConfig(num_slots=1, fft_size=fft_size)
        duration = Fraction(cfg.samples_per_slot, cfg.fft_size * LTE_SUBCARRIER_SPACING_HZ)
        assert duration == Standard.LTE.slot_duration_s
    assert GSM_SLOT_SYMBOLS / GSM_SYMBOL_RATE_HZ == Standard.GSM.slot_duration_s
    # slot_samples agrees with the `channel --standard` rule.
    for s in Standard:
        assert slot_samples(s) == int(round(s.slot_duration_float * default_sample_rate(s)))
    assert (slot_samples(Standard.GSM), slot_samples(Standard.LTE)) == (625, 960)
