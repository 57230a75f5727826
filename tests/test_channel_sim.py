"""Channel model tests: PDP normalization, SNR bookkeeping, offsets, CFO."""

import numpy as np
import pytest

from cyclodet import (
    ChannelConfig,
    ConfigurationError,
    IqBuffer,
    apply_channel,
    draw_taps,
    estimate_variance,
    pdp_tap_variances,
    synth_noise,
)


def test_pdp_normalization_matches_direct_sum():
    # Oracle: evaluate B_h = 1 / sum(exp(-p/5)) directly.
    b_h = 1.0 / sum(np.exp(-p / 5.0) for p in range(4))
    assert b_h == pytest.approx(0.3291788293, abs=1e-9)
    var = pdp_tap_variances(4, 5.0)
    np.testing.assert_allclose(var, b_h * np.exp(-np.arange(4) / 5.0), rtol=1e-12)
    assert var.sum() == pytest.approx(1.0, rel=1e-12)


def test_pdp_single_tap_unit_variance():
    np.testing.assert_allclose(pdp_tap_variances(1, 5.0), [1.0])


def test_tap_power_concentrates_to_unity():
    cfg = ChannelConfig(snr_db=0.0, num_taps=4, pdp_decay=5.0)
    rng = np.random.default_rng(123)
    total = 0.0
    n = 100_000
    for _ in range(n):
        taps = draw_taps(cfg, rng)
        total += np.sum(np.abs(taps) ** 2)
    assert total / n == pytest.approx(1.0, abs=0.01)


def _unit_input(m=4096, seed=0, fs=1e6):
    return synth_noise(m, 1.0, seed=seed, sample_rate_hz=fs)


def test_single_tap_noiseless_is_pure_scaling():
    x = _unit_input()
    cfg = ChannelConfig(snr_db=np.inf, num_taps=1, seed=77)
    y = apply_channel(x, cfg)
    h0 = draw_taps(cfg, np.random.default_rng(cfg.seed))[0]
    np.testing.assert_allclose(y.samples, h0 * x.samples, rtol=1e-14, atol=1e-17)
    # energy bookkeeping to 1e-12 relative
    assert estimate_variance(y) == pytest.approx(abs(h0) ** 2 * estimate_variance(x), rel=1e-12)


def test_snr_definition_on_buffer():
    x = _unit_input(m=1_000_000, seed=5)
    noiseless = apply_channel(x, ChannelConfig(snr_db=np.inf, num_taps=4, seed=9))
    noisy = apply_channel(x, ChannelConfig(snr_db=0.0, num_taps=4, seed=9))
    noise = noisy.samples - noiseless.samples
    ratio = np.mean(np.abs(noise) ** 2) / estimate_variance(noiseless)
    assert 0.95 < ratio < 1.05


def test_awgn_is_circularly_symmetric():
    x = _unit_input(m=1_000_000, seed=6)
    noiseless = apply_channel(x, ChannelConfig(snr_db=np.inf, num_taps=2, seed=4))
    noisy = apply_channel(x, ChannelConfig(snr_db=10.0, num_taps=2, seed=4))
    noise = noisy.samples - noiseless.samples
    v_re, v_im = np.var(noise.real), np.var(noise.imag)
    assert abs(v_re - v_im) / max(v_re, v_im) < 0.02


def test_timing_offset_shifts_with_zero_head():
    x = _unit_input(m=2000, seed=8)
    slot = 625
    cfg = ChannelConfig(
        snr_db=np.inf, num_taps=1, timing_offset_slot_samples=slot, seed=21
    )
    y = apply_channel(x, cfg)
    # Replicate the documented draw order: taps first, then the offset.
    rng = np.random.default_rng(cfg.seed)
    h0 = draw_taps(cfg, rng)[0]
    d = int(rng.integers(0, slot))
    assert 0 <= d < slot
    assert np.all(y.samples[:d] == 0)
    np.testing.assert_allclose(y.samples[d:], h0 * x.samples[: len(x) - d], rtol=1e-12)
    # reproducible from the seed
    np.testing.assert_array_equal(y.samples, apply_channel(x, cfg).samples)


def test_offset_uniform_over_slot():
    x = _unit_input(m=700, seed=3)
    slot = 100
    offsets = set()
    for seed in range(200):
        cfg = ChannelConfig(snr_db=np.inf, num_taps=1,
                            timing_offset_slot_samples=slot, seed=seed)
        rng = np.random.default_rng(seed)
        draw_taps(cfg, rng)
        offsets.add(int(rng.integers(0, slot)))
    assert min(offsets) >= 0 and max(offsets) < slot
    assert len(offsets) > 50  # spread over the slot, not stuck


def test_cfo_rotates_before_noise():
    x = _unit_input(m=5000, seed=11, fs=2e5)
    base = apply_channel(x, ChannelConfig(snr_db=np.inf, num_taps=3, seed=2))
    rot = apply_channel(x, ChannelConfig(snr_db=np.inf, num_taps=3, seed=2, cfo_hz=777.0))
    t = np.arange(len(x)) / x.sample_rate_hz
    np.testing.assert_allclose(rot.samples, base.samples * np.exp(2j * np.pi * 777.0 * t),
                               rtol=1e-10, atol=1e-12)


def test_block_fading_constant_taps():
    x = IqBuffer(samples=np.ones(5000), sample_rate_hz=1e6)
    y = apply_channel(x, ChannelConfig(snr_db=np.inf, num_taps=1, seed=14))
    ratios = y.samples / x.samples
    assert np.max(np.abs(ratios - ratios[0])) < 1e-14


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ChannelConfig(snr_db=0.0, num_taps=0)
    with pytest.raises(ConfigurationError):
        ChannelConfig(snr_db=0.0, timing_offset_slot_samples=0)
    with pytest.raises(ConfigurationError):
        ChannelConfig(snr_db=0.0, pdp_decay=0.0)
