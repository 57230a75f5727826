"""IQ file round trips, sidecar parsing, and decimation filter behavior."""

import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.signal import firwin, kaiserord

from cyclodet import (
    FormatError,
    IqBuffer,
    IqFileMeta,
    UnsupportedFormatError,
    decimate,
    estimate_ccf,
    load_iq,
    save_iq,
    synth_noise,
)
import cyclodet
from cyclodet import iq_io
from cyclodet.iq_io import _READ_CHUNK, decimation_taps


def _f32_buffer(m=257, seed=0, fs=1_083_333.3333333333):
    rng = np.random.default_rng(seed)
    samples = (
        rng.standard_normal(m).astype(np.float32).astype(np.float64)
        + 1j * rng.standard_normal(m).astype(np.float32).astype(np.float64)
    )
    return IqBuffer(samples=samples, sample_rate_hz=fs, center_freq_hz=869e6)


def test_round_trip_bit_identical(tmp_path):
    buf = _f32_buffer()
    data = tmp_path / "a.iq"
    save_iq(buf, data)
    back = load_iq(data)
    np.testing.assert_array_equal(back.samples, buf.samples)
    assert back.sample_rate_hz == buf.sample_rate_hz
    assert back.center_freq_hz == buf.center_freq_hz
    assert data.stat().st_size == 8 * len(buf)


def test_save_quantizes_to_float32(tmp_path):
    buf = synth_noise(100, 1.0, seed=1, sample_rate_hz=1e6)
    data = tmp_path / "b.iq"
    save_iq(buf, data)
    back = load_iq(data)
    expected = buf.samples.real.astype(np.float32).astype(np.float64) + 1j * buf.samples.imag.astype(np.float32).astype(np.float64)
    np.testing.assert_array_equal(back.samples, expected)


@settings(max_examples=200, deadline=None)
@given(
    parts=arrays(np.float32, st.tuples(st.integers(1, 300), st.just(2)),
                 elements=st.floats(width=32, allow_nan=False, allow_infinity=False)),
    rate=st.floats(0.0, exclude_min=True, allow_nan=False, allow_infinity=False),
    center=st.none() | st.floats(allow_nan=False, allow_infinity=False),
)
def test_round_trip_property(parts, rate, center):
    assume(parts.any())  # load_iq refuses an all-zero capture
    buf = IqBuffer(parts.astype(np.float64).view(np.complex128).ravel(), rate, center)
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "p.iq"
        save_iq(buf, data)
        back = load_iq(data)
    assert back.samples.tobytes() == buf.samples.tobytes()
    assert (back.sample_rate_hz, back.center_freq_hz) == (rate, center)


def test_sixteen_byte_file_is_two_samples(tmp_path):
    data = tmp_path / "two.iq"
    data.write_bytes(np.arange(4, dtype="<f4").tobytes())
    IqFileMeta(sample_rate_hz=1000.0).write(tmp_path / "two.iq.meta")
    assert load_iq(data).samples.tolist() == [1j, 2 + 3j]


def test_truncated_file_rejected_without_partial_read(tmp_path):
    data = tmp_path / "t.iq"
    save_iq(_f32_buffer(m=4), data)
    data.write_bytes(data.read_bytes()[:-3])
    with pytest.raises(FormatError):
        load_iq(data)


def test_capture_cut_by_whole_samples_rejected(tmp_path):
    data = tmp_path / "s.iq"
    save_iq(_f32_buffer(m=20_000), data)
    data.write_bytes(data.read_bytes()[: 8 * 15_000])
    with pytest.raises(FormatError, match="sample_count=20000"):
        load_iq(data)


def test_missing_or_bad_sidecar(tmp_path):
    data = tmp_path / "c.iq"
    save_iq(IqBuffer(samples=np.ones(4), sample_rate_hz=1000.0), data)
    meta = tmp_path / "c.iq.meta"
    meta.unlink()
    with pytest.raises(FormatError, match="sidecar metadata file is missing"):
        load_iq(data)
    meta.write_text("format=cs16le\nsample_rate_hz=1000\n")
    with pytest.raises(UnsupportedFormatError):
        load_iq(data)
    meta.write_text("format=cf32le\n")
    with pytest.raises(FormatError):
        load_iq(data)
    meta.write_bytes(b"sample_rate_hz=1000\n\xff\xfe\n")
    with pytest.raises(FormatError, match="malformed line"):
        load_iq(data)
    for field, value in [
        ("center_freq_hz", "abc"),
        ("center_freq_hz", "inf"),
        ("sample_rate_hz", "-5"),
        ("sample_rate_hz", "0"),
        ("sample_rate_hz", "nan"),
        ("sample_rate_hz", "inf"),
    ]:
        fields = {"sample_rate_hz": "1000", field: value}
        meta.write_text("".join(f"{k}={v}\n" for k, v in fields.items()))
        with pytest.raises(FormatError, match=field) as exc:
            load_iq(data)
        assert str(meta) in str(exc.value)


def test_sidecar_may_not_repeat_a_key(tmp_path):
    # A repeated key would otherwise keep its last value: here the rate.
    data = tmp_path / "r.iq"
    save_iq(_f32_buffer(m=300), data)
    meta = tmp_path / "r.iq.meta"
    meta.write_text(meta.read_text() + "origin=a\norigin2=b\n")
    assert load_iq(data).sample_rate_hz == _f32_buffer(m=300).sample_rate_hz  # unknown keys pass
    for key in ("sample_rate_hz=2e6", "origin=c"):
        meta.write_text(meta.read_text() + key + "\n")
        with pytest.raises(FormatError, match=key.split("=")[0]) as exc:
            load_iq(data)
        assert str(meta) in str(exc.value)
        meta.write_text(meta.read_text().replace(key + "\n", ""))


def test_save_refuses_bad_metadata_before_writing(tmp_path):
    # A refused save leaves the capture it would replace as it was.
    data = tmp_path / "keep.iq"
    old = IqBuffer(samples=np.ones(300), sample_rate_hz=1e6)
    save_iq(old, data)
    files = {path: path.read_bytes() for path in (data, tmp_path / "keep.iq.meta")}
    new = IqBuffer(samples=np.full(600, 2.0), sample_rate_hz=7.68e6)
    object.__setattr__(new, "center_freq_hz", np.nan)  # past IqBuffer's own check
    with pytest.raises(FormatError, match="center_freq_hz"):
        save_iq(new, data)
    assert {path: path.read_bytes() for path in files} == files
    assert load_iq(data).sample_rate_hz == 1e6


def test_save_refuses_float32_overflow(tmp_path):
    data = tmp_path / "big.iq"
    samples = np.ones(16, dtype=np.complex128)
    samples[3] = 1e39
    with pytest.raises(FormatError, match=str(data)):
        save_iq(IqBuffer(samples=samples, sample_rate_hz=1000.0), data)
    assert not data.exists()
    assert not (tmp_path / "big.iq.meta").exists()


def test_empty_capture_rejected(tmp_path):
    data = tmp_path / "e.iq"
    data.write_bytes(b"")
    IqFileMeta(sample_rate_hz=1000.0, sample_count=0).write(tmp_path / "e.iq.meta")
    with pytest.raises(FormatError, match="no samples"):
        load_iq(data)


def _write_capture(tmp_path, samples, name="chunks.iq"):
    data = tmp_path / name
    np.asarray(samples, dtype="<c8").tofile(data)
    IqFileMeta(sample_rate_hz=1e6, sample_count=len(samples)).write(f"{data}.meta")
    return data


_LONG = 2 * _READ_CHUNK + 1234  # two whole chunks and a partial last one


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [_LONG - 1, 2 * _READ_CHUNK, _READ_CHUNK - 1])
def test_non_finite_sample_in_any_chunk_is_refused(tmp_path, bad, where):
    samples = np.ones(_LONG, dtype=np.complex64)
    samples.imag[where] = bad
    data = _write_capture(tmp_path, samples)
    with pytest.raises(FormatError, match=f"{data}: capture holds non-finite"):
        load_iq(data)


def test_all_zero_capture_longer_than_a_chunk_is_refused(tmp_path):
    data = _write_capture(tmp_path, np.zeros(_LONG))
    with pytest.raises(FormatError, match=f"{data}: capture holds only zero"):
        load_iq(data)
    # One nonzero sample in the first or the last chunk is enough; -0.0 is zero.
    for where in (0, _LONG - 1):
        samples = np.full(_LONG, -0.0 - 0.0j, dtype=np.complex64)
        samples[where] = 1e-45j  # rounds to the smallest float32 subnormal
        loaded = load_iq(_write_capture(tmp_path, samples, "one.iq")).samples
        assert loaded[where] == samples[where] != 0


@pytest.mark.parametrize("m", [1, _READ_CHUNK, _LONG])
def test_chunked_read_equals_whole_file_read(tmp_path, m):
    rng = np.random.default_rng(m)
    floats = rng.standard_normal(2 * m).astype(np.float32)
    floats[::7] = -0.0
    floats[3::11] = np.float32(1e-45) * rng.integers(-3, 4, floats[3::11].size)
    floats[0] = 1.0  # not all zero
    data = tmp_path / "w.iq"
    floats.astype("<f4").tofile(data)
    IqFileMeta(sample_rate_hz=1e6).write(f"{data}.meta")
    loaded = load_iq(data).samples
    expected = np.fromfile(data, "<c8").astype(np.complex128)
    assert loaded.dtype == expected.dtype and loaded.tobytes() == expected.tobytes()


def test_sidecar_keeps_twelve_significant_digits(tmp_path):
    buf = _f32_buffer(fs=1_083_333.3333333333)
    data, meta = tmp_path / "d.iq", tmp_path / "d.iq.meta"
    save_iq(buf, data)
    assert IqFileMeta.read(meta).sample_rate_hz == buf.sample_rate_hz
    line = meta.read_text().splitlines()[0]
    assert line.startswith("sample_rate_hz=")
    mantissa = line.split("=", 1)[1].replace(".", "").lstrip("0")
    assert len(mantissa) >= 12


def test_decimate_identity():
    buf = _f32_buffer(m=1000)
    out = decimate(buf, 1)
    np.testing.assert_array_equal(out.samples, buf.samples)
    assert out.sample_rate_hz == buf.sample_rate_hz
    with pytest.raises(ValueError):
        decimate(buf, 0)


def test_decimate_refuses_factor_above_length_before_design(monkeypatch):
    # At factor 1e7 the design alone would ask for 432M taps (3.5 GB).
    buf = _f32_buffer(m=1000)
    assert len(decimate(buf, 1000)) == 1
    monkeypatch.setattr("cyclodet.iq_io.decimation_taps", None)  # any design call fails
    with pytest.raises(ValueError, match=r"1000 samples.*10000000"):
        decimate(buf, 10_000_000)


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


def test_closed_form_taps_equal_scipy_design():
    # decimation_taps writes out Kaiser's formulas; scipy's kaiserord/firwin
    # implement the same design, so only the Bessel I0 rounding may differ.
    for factor in range(2, 65):
        numtaps, beta = kaiserord(70.0, width=0.2 / factor)
        numtaps += 1 - numtaps % 2
        ref = firwin(numtaps, cutoff=0.8 / factor, window=("kaiser", beta))
        taps = decimation_taps(factor)
        assert taps.size == ref.size
        assert np.all(np.abs(taps - ref) <= 1e-15 * np.abs(ref))


def test_import_leaves_scipy_unloaded():
    # scipy is a test dependency only: importing the package and its CLI,
    # which reach every module, must not load it.
    src = str(Path(cyclodet.__file__).parents[1])
    code = "import sys, cyclodet, cyclodet.cli; print([k for k in sys.modules if k.startswith('scipy')])"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"


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
    assert np.mean(np.abs(core) ** 2) == pytest.approx(estimate_ccf(buf, 0.0).value.real, rel=0.03)


def _decimate_reference(x, factor):
    """The documented design: a 70 dB Kaiser windowed sinc cut at 0.8/factor
    of Nyquist, made odd, delay-compensated, then every factor-th sample."""
    numtaps, beta = kaiserord(70.0, width=0.2 / factor)
    numtaps += 1 - numtaps % 2
    taps = firwin(numtaps, cutoff=0.8 / factor, window=("kaiser", beta))
    delay = (numtaps - 1) // 2
    return np.convolve(x, taps)[delay : delay + x.size : factor]


@settings(max_examples=40, deadline=None)
@example(seed=1, m=2, factor=2)
@example(seed=2, m=16, factor=16)
@example(seed=3, m=decimation_taps(5).size - 1, factor=5)
@example(seed=4, m=decimation_taps(16).size - 1, factor=16)
@example(seed=5, m=decimation_taps(3).size + 3, factor=3)
@example(seed=6, m=decimation_taps(16).size + 3, factor=16)
# Long enough for many overlap-save blocks and several batches of them.
@example(seed=7, m=300_001, factor=3)
@example(seed=8, m=300_001, factor=4)
@example(seed=9, m=300_001, factor=16)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 20_000), factor=st.integers(2, 16))
def test_decimate_matches_documented_filter(seed, m, factor):
    assume(m >= factor)
    x = synth_noise(m, 1.0, seed=seed, sample_rate_hz=1e6)
    out = decimate(x, factor)
    ref = _decimate_reference(x.samples, factor)
    assert out.sample_rate_hz == 1e6 / factor
    assert out.samples.shape == ref.shape
    rms = np.sqrt(np.mean(np.abs(ref) ** 2))
    assert np.max(np.abs(out.samples - ref)) <= 1e-12 * rms


@pytest.mark.parametrize("factor", [3, 4, 16])
def test_decimate_batching_does_not_change_output(monkeypatch, factor):
    # Neither the batch size nor the number of threads sharing the batches
    # changes a bit of the output, and no thread outlives the call.
    x = synth_noise(300_001, 1.0, seed=factor, sample_rate_hz=1e6)
    threads = threading.active_count()
    batched = decimate(x, factor).samples
    for chunk in (iq_io._CHUNK_SAMPLES, 1):  # 1: one block per batch
        monkeypatch.setattr(iq_io, "_CHUNK_SAMPLES", chunk)
        for cpus in (1, 2, 3):
            monkeypatch.setattr(iq_io, "_cpu_count", lambda: cpus)
            np.testing.assert_array_equal(decimate(x, factor).samples, batched)
            assert threading.active_count() == threads

    def fail_in_helpers(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("helper thread failed")
        return sliding_window_view(*args, **kwargs)

    sliding_window_view = iq_io.sliding_window_view
    monkeypatch.setattr(iq_io, "sliding_window_view", fail_in_helpers)
    with pytest.raises(MemoryError, match="helper thread failed"):
        decimate(x, factor)
    assert threading.active_count() == threads


@pytest.mark.parametrize("factor", [3, 4, 16])
def test_decimate_memory_stays_bounded(factor):
    x = synth_noise(1_000_000, 1.0, seed=0, sample_rate_hz=1e6)
    tracemalloc.start()
    try:
        decimate(x, factor)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * x.samples.nbytes  # 32 MB
