"""IQ file round trips, sidecar parsing, and decimation filter behavior."""

import numpy as np
import pytest

from cyclodet import (
    FormatError,
    IqBuffer,
    UnsupportedFormatError,
    decimate,
    load_iq,
    save_iq,
    synth_noise,
)
from cyclodet.iq_io import decimation_taps, read_cf32, read_meta, write_cf32


def _f32_buffer(m=257, seed=0, fs=1_083_333.3333333333):
    rng = np.random.default_rng(seed)
    samples = (
        rng.standard_normal(m).astype(np.float32).astype(np.float64)
        + 1j * rng.standard_normal(m).astype(np.float32).astype(np.float64)
    )
    return IqBuffer(samples=samples, sample_rate_hz=fs, center_freq_hz=869e6)


def test_round_trip_bit_identical(tmp_path):
    buf = _f32_buffer()
    data, meta = tmp_path / "a.iq", tmp_path / "a.iq.meta"
    save_iq(buf, data, meta)
    back = load_iq(data, meta)
    np.testing.assert_array_equal(back.samples, buf.samples)
    assert back.sample_rate_hz == buf.sample_rate_hz
    assert back.center_freq_hz == buf.center_freq_hz
    assert data.stat().st_size == 8 * len(buf)


def test_save_quantizes_to_float32(tmp_path):
    buf = synth_noise(100, 1.0, seed=1, sample_rate_hz=1e6)
    data, meta = tmp_path / "b.iq", tmp_path / "b.iq.meta"
    save_iq(buf, data, meta)
    back = load_iq(data, meta)
    expected = buf.samples.real.astype(np.float32).astype(np.float64) + 1j * buf.samples.imag.astype(np.float32).astype(np.float64)
    np.testing.assert_array_equal(back.samples, expected)


def test_sixteen_byte_file_is_two_samples(tmp_path):
    data = tmp_path / "two.iq"
    data.write_bytes(np.arange(4, dtype="<f4").tobytes())
    assert read_cf32(data).shape == (2,)


def test_truncated_file_rejected_without_partial_read(tmp_path):
    data, meta = tmp_path / "t.iq", tmp_path / "t.iq.meta"
    save_iq(_f32_buffer(m=4), data, meta)
    data.write_bytes(data.read_bytes()[:-3])
    with pytest.raises(FormatError):
        load_iq(data, meta)


def test_capture_cut_by_whole_samples_rejected(tmp_path):
    data, meta = tmp_path / "s.iq", tmp_path / "s.iq.meta"
    save_iq(_f32_buffer(m=20_000), data, meta)
    data.write_bytes(data.read_bytes()[: 8 * 15_000])
    with pytest.raises(FormatError, match="sample_count=20000"):
        load_iq(data, meta)


def test_missing_or_bad_sidecar(tmp_path):
    data = tmp_path / "c.iq"
    write_cf32(np.ones(4, dtype=complex), data)
    with pytest.raises(FormatError):
        load_iq(data, tmp_path / "nope.meta")
    meta = tmp_path / "c.iq.meta"
    meta.write_text("format=cs16le\nsample_rate_hz=1000\n")
    with pytest.raises(UnsupportedFormatError):
        load_iq(data, meta)
    meta.write_text("format=cf32le\n")
    with pytest.raises(FormatError):
        load_iq(data, meta)
    meta.write_text("sample_rate_hz=1000\ncenter_freq_hz=abc\n")
    with pytest.raises(FormatError, match="center_freq_hz"):
        load_iq(data, meta)


def test_empty_capture_rejected_but_raw_io_allows_it(tmp_path):
    data, meta = tmp_path / "e.iq", tmp_path / "e.iq.meta"
    write_cf32(np.zeros(0, dtype=complex), data)
    assert data.stat().st_size == 0
    assert read_cf32(data).size == 0
    meta.write_text("sample_rate_hz=1000\nformat=cf32le\n")
    with pytest.raises(FormatError):
        load_iq(data, meta)


def test_sidecar_keeps_twelve_significant_digits(tmp_path):
    buf = _f32_buffer(fs=1_083_333.3333333333)
    data, meta = tmp_path / "d.iq", tmp_path / "d.iq.meta"
    save_iq(buf, data, meta)
    fields = read_meta(meta)
    assert float(fields["sample_rate_hz"]) == buf.sample_rate_hz
    mantissa = fields["sample_rate_hz"].replace(".", "").lstrip("0")
    assert len(mantissa) >= 12


def test_decimate_identity():
    buf = _f32_buffer(m=1000)
    out = decimate(buf, 1)
    np.testing.assert_array_equal(out.samples, buf.samples)
    assert out.sample_rate_hz == buf.sample_rate_hz
    with pytest.raises(ValueError):
        decimate(buf, 0)


def test_decimation_filter_design_margins():
    for factor in (4, 16):
        taps = decimation_taps(factor)
        assert taps.size % 2 == 1
        freqs = np.fft.rfftfreq(1 << 16)  # in cycles/sample
        response = np.abs(np.fft.rfft(taps, 1 << 16))
        # passband: up to 0.7 * (Nyquist/factor) = 0.35/factor cycles/sample
        passband = response[freqs <= 0.35 / factor]
        assert np.max(np.abs(passband - 1.0)) < 0.01
        # stopband from the output Nyquist on: >= 60 dB down
        stopband = response[freqs >= 0.5 / factor]
        assert 20 * np.log10(np.max(stopband)) < -60.0


def test_decimate_tone_in_passband_amplitude():
    fs, factor = 1.0, 16
    f_tone = 0.1 * (fs / factor)
    m = 20_000
    t = np.arange(m) / fs
    buf = IqBuffer(samples=np.exp(2j * np.pi * f_tone * t), sample_rate_hz=fs)
    out = decimate(buf, factor)
    assert out.sample_rate_hz == fs / factor
    # amplitude oracle: the designed response evaluated at the tone frequency
    taps = decimation_taps(factor)
    h = np.abs(np.sum(taps * np.exp(-2j * np.pi * f_tone * np.arange(taps.size))))
    core = out.samples[taps.size // factor : -(taps.size // factor)]
    assert np.max(np.abs(np.abs(core) - h)) < 1e-6
    assert abs(h - 1.0) < 0.01


def test_decimate_tone_in_stopband_attenuated():
    fs, factor = 1.0, 16
    f_tone = 0.9 * (fs / 2)
    m = 20_000
    t = np.arange(m) / fs
    buf = IqBuffer(samples=np.exp(2j * np.pi * f_tone * t), sample_rate_hz=fs)
    out = decimate(buf, factor)
    taps = decimation_taps(factor)
    core = out.samples[taps.size // factor : -(taps.size // factor)]
    attenuation_db = -10 * np.log10(np.mean(np.abs(core) ** 2))
    assert attenuation_db >= 40.0


def test_decimate_group_delay_compensated():
    fs, factor = 1.0, 8
    m = 4096
    pulse = np.zeros(m, dtype=complex)
    center = 2000
    pulse[center - 50 : center + 50] = np.hanning(100)  # smooth in-band pulse
    out = decimate(IqBuffer(samples=pulse, sample_rate_hz=fs), factor)
    peak = int(np.argmax(np.abs(out.samples)))
    assert abs(peak - center / factor) <= 1.0


def test_decimate_preserves_inband_power():
    fs, factor = 1.0, 8
    m = 60_000
    t = np.arange(m)
    tones = sum(
        np.exp(2j * np.pi * f * t) for f in (0.001, 0.004, 0.013, 0.021, 0.03)
    )  # all below 0.7 * Nyquist/factor = 0.04375
    buf = IqBuffer(samples=tones, sample_rate_hz=fs)
    out = decimate(buf, factor)
    taps = decimation_taps(factor)
    core = out.samples[taps.size // factor : -(taps.size // factor)]
    assert np.mean(np.abs(core) ** 2) == pytest.approx(buf.mean_power(), rel=0.03)
