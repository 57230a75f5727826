"""Raw IQ capture files (cf32le + text sidecar) and anti-aliased decimation.

The one interchange format is interleaved 32-bit little-endian IEEE-754
floats, I then Q, with a ``key=value`` sidecar ``<file>.meta`` carrying at
least ``sample_rate_hz``. Widely convertible from SDR capture tools.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.signal import fftconvolve, firwin, kaiserord

from .errors import FormatError, UnsupportedFormatError
from .signal_model import IqBuffer

SAMPLE_FORMAT_CF32LE = "cf32le"
_BYTES_PER_SAMPLE = 8
_NUMERIC_FIELDS = {"sample_rate_hz": float, "center_freq_hz": float, "sample_count": int}


def _meta_path(path) -> str:
    return f"{os.fspath(path)}.meta"


@dataclass(frozen=True)
class IqFileMeta:
    """The sidecar schema: every instance, written or read, passes these checks."""

    sample_rate_hz: float
    sample_count: Optional[int] = None
    center_freq_hz: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0 < self.sample_rate_hz < math.inf:
            raise FormatError(f"sample_rate_hz must be finite and > 0, got {self.sample_rate_hz}")
        if self.center_freq_hz is not None and not math.isfinite(self.center_freq_hz):
            raise FormatError(f"center_freq_hz must be finite, got {self.center_freq_hz}")
        if self.sample_count is not None and self.sample_count < 0:
            raise FormatError(f"sample_count must be >= 0, got {self.sample_count}")

    @classmethod
    def read(cls, meta_path) -> "IqFileMeta":
        """Parse a sidecar; every failure is a FormatError naming the file."""
        if not os.path.exists(meta_path):
            raise FormatError(f"{meta_path}: sidecar metadata file is missing")
        fields = {}  # undecodable bytes fail below as a malformed line or value
        with open(meta_path, encoding="utf-8", errors="replace") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise FormatError(f"{meta_path}: malformed line {line!r}")
                key, value = line.split("=", 1)
                fields[key.strip()] = value.strip()
        if "sample_rate_hz" not in fields:
            raise FormatError(f"{meta_path}: missing sample_rate_hz")
        values = {}
        for key, kind in _NUMERIC_FIELDS.items():
            if key in fields:
                try:
                    values[key] = kind(fields[key])
                except ValueError:
                    raise FormatError(f"{meta_path}: bad {key} {fields[key]!r}") from None
        if fields.get("format", SAMPLE_FORMAT_CF32LE) != SAMPLE_FORMAT_CF32LE:
            raise UnsupportedFormatError(
                f"{meta_path}: unsupported format {fields['format']!r}; "
                f"only {SAMPLE_FORMAT_CF32LE!r} is implemented"
            )
        try:
            return cls(**values)
        except FormatError as exc:
            raise type(exc)(f"{meta_path}: {exc}") from None

    def write(self, meta_path) -> None:
        lines = [f"sample_rate_hz={self.sample_rate_hz:.17g}"]
        if self.center_freq_hz is not None:
            lines.append(f"center_freq_hz={self.center_freq_hz:.17g}")
        lines.append(f"format={SAMPLE_FORMAT_CF32LE}")
        if self.sample_count is not None:
            lines.append(f"sample_count={self.sample_count}")
        with open(meta_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def save_iq(buf: IqBuffer, path) -> None:
    """Write a buffer as cf32le data plus its sidecar; load_iq inverts it
    exactly (samples pass through float32, so save after load is bit-identical).

    Writes nothing when a sample is non-finite in float32, since load_iq
    would reject the capture."""
    with np.errstate(over="ignore"):
        data = buf.samples.astype("<c8")
    if not np.isfinite(data).all():
        raise FormatError(f"{path}: not written, samples are non-finite or exceed float32")
    data.tofile(path)
    IqFileMeta(
        sample_rate_hz=buf.sample_rate_hz,
        sample_count=len(buf),
        center_freq_hz=buf.center_freq_hz,
    ).write(_meta_path(path))


def load_iq(path) -> IqBuffer:
    """Read a cf32le capture and its sidecar into an IqBuffer.

    Rejects, naming the file: a length that is not whole samples, an empty
    capture, a ``sample_count`` that differs from the data (a capture cut
    short by whole samples), and non-finite or all-zero samples.
    """
    meta = IqFileMeta.read(_meta_path(path))
    size = os.path.getsize(path)
    if size % _BYTES_PER_SAMPLE != 0:
        raise FormatError(
            f"{path}: length {size} bytes is not a whole number of "
            f"{_BYTES_PER_SAMPLE}-byte cf32le samples"
        )
    samples = np.fromfile(path, dtype="<c8")
    if samples.size == 0:
        raise FormatError(f"{path}: capture holds no samples")
    if meta.sample_count is not None and meta.sample_count != samples.size:
        raise FormatError(
            f"{path}: holds {samples.size} samples, but {_meta_path(path)} declares "
            f"sample_count={meta.sample_count}"
        )
    if not np.isfinite(samples).all():
        raise FormatError(f"{path}: capture holds non-finite samples")
    if not samples.any():
        raise FormatError(f"{path}: capture holds only zero samples")
    return IqBuffer(
        samples=samples.astype(np.complex128),
        sample_rate_hz=meta.sample_rate_hz,
        center_freq_hz=meta.center_freq_hz,
    )


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
    if not 1 <= factor <= len(buf):
        raise ValueError(
            f"decimation factor must be between 1 and the buffer's {len(buf)} samples, "
            f"got {factor}"
        )
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
