"""Channel model tests: PDP normalization, SNR bookkeeping, offsets, CFO."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from cyclodet.channel_sim import complex_normal


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


def test_offset_range_longer_than_buffer_is_refused():
    # It used to zero the whole buffer, and then the noise, referenced to
    # the faded power, was zero too.
    x = _unit_input(m=700, seed=3)
    with pytest.raises(ConfigurationError, match="701.*700"):
        apply_channel(x, ChannelConfig(snr_db=10.0, timing_offset_slot_samples=701))
    cfg = ChannelConfig(snr_db=np.inf, num_taps=1, timing_offset_slot_samples=700, seed=5)
    assert np.any(apply_channel(x, cfg).samples)


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
    # NaN and -inf would silently turn noise off; only +inf means that.
    for snr_db in (np.nan, -np.inf):
        with pytest.raises(ConfigurationError, match=str(snr_db)):
            ChannelConfig(snr_db=snr_db)
    # A non-finite CFO used to turn every sample into NaN.
    for cfo_hz in (np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigurationError, match=f"cfo_hz.*{cfo_hz}"):
            ChannelConfig(snr_db=0.0, cfo_hz=cfo_hz)


# The draws as they were written out at each call site before they shared
# complex_normal; the helper must consume the generator the same way.

def _draw_taps_reference(cfg, rng):
    var = pdp_tap_variances(cfg.num_taps, cfg.pdp_decay)
    return np.sqrt(var / 2.0) * (
        rng.standard_normal(cfg.num_taps) + 1j * rng.standard_normal(cfg.num_taps)
    )


def _fir_convolve_reference(x, taps, d):
    """The delayed FIR as np.convolve over a zero-prefixed copy of x, cut to its length."""
    m = len(x)
    return np.convolve(np.concatenate([np.zeros(d, dtype=x.dtype), x[: m - d]]), taps)[:m]


def _apply_channel_reference(x, cfg):
    rng = np.random.default_rng(cfg.seed)
    taps = _draw_taps_reference(cfg, rng)
    d = 0
    if cfg.timing_offset_slot_samples is not None:
        d = int(rng.integers(0, cfg.timing_offset_slot_samples))
    m = len(x)
    # The FIR as one unblocked shift-add per tap, in tap order.
    y = np.zeros(m, dtype=np.complex128)
    for p, h in enumerate(taps):
        if d + p < m:
            y[d + p :] += h * x.samples[: m - d - p]
    if cfg.cfo_hz != 0.0:
        # Explicitly y * exp(...): the operator form lets numpy reuse the
        # temporary of a long buffer as exp(...) * y, which rounds differently.
        y = np.multiply(y, np.exp(2j * np.pi * cfg.cfo_hz * (np.arange(m) / x.sample_rate_hz)))
    if np.isfinite(cfg.snr_db):
        noise_power = np.mean(np.abs(y) ** 2) / 10.0 ** (cfg.snr_db / 10.0)
        y = y + np.sqrt(noise_power / 2.0) * (
            rng.standard_normal(m) + 1j * rng.standard_normal(m)
        )
    return y


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    n=st.integers(1, 5000),
    power=st.floats(1e-12, 1e12),
)
def test_complex_normal_matches_two_draw_expression(seed, n, power):
    rng = np.random.default_rng(seed)
    ref_rng = np.random.default_rng(seed)
    expected = np.sqrt(power / 2.0) * (ref_rng.standard_normal(n) + 1j * ref_rng.standard_normal(n))
    np.testing.assert_array_equal(complex_normal(rng, n, power), expected)
    # Same stream consumed: the next draw matches too.
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("seed", [0, 3, 2**62 + 3])
def test_draws_match_hand_written_references(seed):
    # 40,000 samples span three blocks of the FIR's shift-add.
    for m in (3000, 40_000):
        x = synth_noise(m, 1.0, seed=11, sample_rate_hz=1e6)
        for taps, decay in ((1, 5.0), (4, 5.0), (9, 0.5)):
            cfg = ChannelConfig(snr_db=0.0, num_taps=taps, pdp_decay=decay, seed=seed)
            np.testing.assert_array_equal(
                draw_taps(cfg, np.random.default_rng(seed)),
                _draw_taps_reference(cfg, np.random.default_rng(seed)),
            )
            for snr_db, offset, cfo_hz in (
                (np.inf, None, 0.0), (-3.0, 625, 150.0), (10.0, None, 0.0)
            ):
                ch = ChannelConfig(snr_db=snr_db, num_taps=taps, pdp_decay=decay, seed=seed,
                                   timing_offset_slot_samples=offset, cfo_hz=cfo_hz)
                np.testing.assert_array_equal(
                    apply_channel(x, ch).samples, _apply_channel_reference(x, ch)
                )


@pytest.mark.parametrize("m", [1, 16_383, 16_384, 40_000])
@pytest.mark.parametrize("cfo_hz", [0.0, 150.0])
def test_noise_equals_one_complex_normal_draw(m, cfo_hz):
    # The noise is drawn a part at a time into one reused float buffer; it
    # must equal adding one complex_normal draw to the faded signal, bit for bit.
    x = synth_noise(m, 1.0, seed=m, sample_rate_hz=1e6)
    for snr_db, offset in ((-3.0, None), (10.0, min(m, 625))):
        cfg = ChannelConfig(snr_db=snr_db, num_taps=4, seed=m + 7, cfo_hz=cfo_hz,
                            timing_offset_slot_samples=offset)
        expected = _apply_channel_reference(x, replace(cfg, snr_db=np.inf))
        rng = np.random.default_rng(cfg.seed)
        draw_taps(cfg, rng)
        if offset is not None:
            rng.integers(0, offset)
        expected += complex_normal(rng, m, np.mean(np.abs(expected) ** 2) / 10.0 ** (snr_db / 10.0))
        np.testing.assert_array_equal(apply_channel(x, cfg).samples, expected)


@pytest.mark.parametrize("m", [16_383, 16_384])
def test_cfo_rotation_rounds_alike_at_every_length(m):
    # 16,384 complex samples (256 KB) is where numpy starts to reuse the
    # temporary of `y * np.exp(...)`, which swaps the product's operands.
    x = synth_noise(m, 1.0, seed=5, sample_rate_hz=1e6)
    cfg = ChannelConfig(snr_db=np.inf, num_taps=3, seed=9, cfo_hz=150.0)
    np.testing.assert_array_equal(apply_channel(x, cfg).samples, _apply_channel_reference(x, cfg))


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(1, 5000),
    num_taps=st.integers(1, 12),
    offset_range=st.integers(1, 5000),
    seed=st.integers(0, 2**64 - 1),
)
def test_fir_within_rounding_of_zero_prefixed_convolution(m, num_taps, offset_range, seed):
    # The shift-add FIR only reorders the rounding of np.convolve's sums:
    # |dy(n)| <= 8 eps sum_p |h_p| |x(n - p - d)|. The delay d is uniform over
    # [0, offset_range) with offset_range <= m, so it reaches every d < m, and
    # num_taps may exceed m - d.
    offset_range = min(offset_range, m)
    x = synth_noise(m, 1.0, seed=seed % 2**32, sample_rate_hz=1e6).samples
    cfg = ChannelConfig(snr_db=np.inf, num_taps=num_taps, timing_offset_slot_samples=offset_range,
                        seed=seed)
    y = apply_channel(IqBuffer(samples=x, sample_rate_hz=1e6), cfg).samples
    rng = np.random.default_rng(seed)
    taps = draw_taps(cfg, rng)
    d = int(rng.integers(0, offset_range))
    bound = 8 * np.finfo(np.float64).eps * _fir_convolve_reference(np.abs(x), np.abs(taps), d)
    assert np.all(np.abs(y - _fir_convolve_reference(x, taps, d)) <= bound)
