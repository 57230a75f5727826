"""Raw IQ capture files (cf32le + text sidecar) and anti-aliased decimation.

The one interchange format is interleaved 32-bit little-endian IEEE-754
floats, I then Q, with a ``key=value`` sidecar carrying at least
``sample_rate_hz`` and ``format``. Widely convertible from SDR capture tools.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.signal import fftconvolve, firwin, kaiserord

from .errors import FormatError, UnsupportedFormatError
from .signal_model import IqBuffer

SAMPLE_FORMAT_CF32LE = "cf32le"
_BYTES_PER_SAMPLE = 8


@dataclass(frozen=True)
class IqFileMeta:
    sample_rate_hz: float
    sample_count: int
    center_freq_hz: Optional[float] = None
    sample_format: str = SAMPLE_FORMAT_CF32LE

    def __post_init__(self) -> None:
        if not self.sample_rate_hz > 0:
            raise FormatError(f"sample_rate_hz must be > 0, got {self.sample_rate_hz}")
        if self.sample_count < 0:
            raise FormatError("sample_count must be >= 0")
        if self.sample_format != SAMPLE_FORMAT_CF32LE:
            raise UnsupportedFormatError(
                f"unsupported sample format {self.sample_format!r}; "
                f"only {SAMPLE_FORMAT_CF32LE!r} is implemented"
            )


def write_cf32(samples: np.ndarray, path) -> None:
    """Write complex samples as interleaved little-endian float32 I/Q."""
    samples = np.asarray(samples)
    interleaved = np.empty(2 * samples.size, dtype="<f4")
    interleaved[0::2] = samples.real.astype("<f4")
    interleaved[1::2] = samples.imag.astype("<f4")
    with open(path, "wb") as fh:
        fh.write(interleaved.tobytes())


def read_cf32(path) -> np.ndarray:
    """Read interleaved cf32le samples; rejects truncated files."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) % _BYTES_PER_SAMPLE != 0:
        raise FormatError(
            f"{path}: length {len(raw)} bytes is not a whole number of "
            f"{_BYTES_PER_SAMPLE}-byte cf32le samples"
        )
    interleaved = np.frombuffer(raw, dtype="<f4")
    return interleaved[0::2].astype(np.float64) + 1j * interleaved[1::2].astype(np.float64)


def write_meta(meta: IqFileMeta, meta_path) -> None:
    lines = [
        f"sample_rate_hz={meta.sample_rate_hz:.17g}",
        f"format={meta.sample_format}",
        f"sample_count={meta.sample_count}",
    ]
    if meta.center_freq_hz is not None:
        lines.insert(1, f"center_freq_hz={meta.center_freq_hz:.17g}")
    with open(meta_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_meta(meta_path) -> dict:
    if not os.path.exists(meta_path):
        raise FormatError(f"{meta_path}: sidecar metadata file is missing")
    fields = {}
    with open(meta_path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise FormatError(f"{meta_path}: malformed line {line!r}")
            key, value = line.split("=", 1)
            fields[key.strip()] = value.strip()
    return fields


def save_iq(buf: IqBuffer, path, meta_path) -> None:
    """Write a buffer as cf32le data plus sidecar; load_iq inverts it exactly
    (samples pass through float32, so save after load is bit-identical)."""
    write_cf32(buf.samples, path)
    write_meta(
        IqFileMeta(
            sample_rate_hz=buf.sample_rate_hz,
            sample_count=len(buf),
            center_freq_hz=buf.center_freq_hz,
        ),
        meta_path,
    )


def _meta_number(fields: dict, key: str, meta_path, kind=float):
    """A numeric sidecar field, or None when it is absent."""
    if key not in fields:
        return None
    try:
        return kind(fields[key])
    except ValueError:
        raise FormatError(f"{meta_path}: bad {key} {fields[key]!r}") from None


def load_iq(path, meta_path) -> IqBuffer:
    """Read a cf32le capture and its sidecar into an IqBuffer.

    A ``sample_count`` in the sidecar must match the data file, so a capture
    cut short by whole samples is rejected rather than analysed.
    """
    fields = read_meta(meta_path)
    fmt = fields.get("format", SAMPLE_FORMAT_CF32LE)
    if fmt != SAMPLE_FORMAT_CF32LE:
        raise UnsupportedFormatError(f"{meta_path}: unsupported format {fmt!r}")
    rate = _meta_number(fields, "sample_rate_hz", meta_path)
    if rate is None:
        raise FormatError(f"{meta_path}: missing sample_rate_hz")
    center = _meta_number(fields, "center_freq_hz", meta_path)
    count = _meta_number(fields, "sample_count", meta_path, int)
    samples = read_cf32(path)
    if samples.size == 0:
        raise FormatError(f"{path}: capture holds no samples")
    if count is not None and count != samples.size:
        raise FormatError(
            f"{path}: holds {samples.size} samples, but {meta_path} declares "
            f"sample_count={count}"
        )
    return IqBuffer(samples=samples, sample_rate_hz=rate, center_freq_hz=center)


_STOPBAND_DB = 70.0  # design margin beyond the 60 dB requirement


def decimation_taps(factor: int) -> np.ndarray:
    """Kaiser windowed-sinc anti-alias low-pass for one decimation factor.

    Cutoff at 0.8 * (Nyquist / factor) with the transition closing before the
    output Nyquist, >= 60 dB stopband (designed at 70), odd length for an
    integer group delay.
    """
    numtaps, beta = kaiserord(_STOPBAND_DB, width=0.2 / factor)
    if numtaps % 2 == 0:
        numtaps += 1
    return firwin(numtaps, cutoff=0.8 / factor, window=("kaiser", beta))


def decimate(buf: IqBuffer, factor: int) -> IqBuffer:
    """Low-pass filter and keep every factor-th sample.

    The filter's integer group delay is compensated, so the output stays
    aligned to the input start. factor=1 passes the samples through bit-exact.
    """
    if factor < 1:
        raise ValueError(f"decimation factor must be >= 1, got {factor}")
    if factor == 1:
        return buf
    taps = decimation_taps(factor)
    delay = (taps.size - 1) // 2
    full = fftconvolve(buf.samples, taps, mode="full")
    aligned = full[delay : delay + len(buf)]
    return IqBuffer(
        samples=aligned[::factor],
        sample_rate_hz=buf.sample_rate_hz / factor,
        center_freq_hz=buf.center_freq_hz,
    )
