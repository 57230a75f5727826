"""Raw IQ capture files (cf32le + text sidecar) and anti-aliased decimation.

The one interchange format is interleaved 32-bit little-endian IEEE-754
floats, I then Q, with a ``key=value`` sidecar ``<file>.meta`` carrying at
least ``sample_rate_hz``. Widely convertible from SDR capture tools.

Decimation is a Kaiser windowed-sinc low-pass evaluated only at the samples
it keeps: overlap-save blocks whose spectra are folded to the output rate
before the inverse transform, run in batches of bounded size. The taps are
designed in closed form (Kaiser's formulas) and the transforms are
``numpy.fft``, so the package needs numpy alone.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


_READ_CHUNK = 1 << 16  # samples read and checked at a time, a multiple of 2**14


def read_chunks(path) -> tuple[IqFileMeta, int, Iterator[np.ndarray]]:
    """Open a cf32le capture: its sidecar, its sample count and an iterator
    over its samples, read once, in checked chunks.

    Refused at once, naming the file: a length that is not whole samples, an
    empty capture, and a ``sample_count`` that differs from the data (a
    capture cut short by whole samples). The iterator reads _READ_CHUNK
    samples at a time, from sample 0, into one reused complex64 buffer that
    is valid until the next chunk; it refuses the chunk that holds a
    non-finite sample, a file that ends before its first measured length,
    and, after the last chunk, a capture of zero samples only. The file is
    opened when the first chunk is read.
    """
    meta = IqFileMeta.read(_meta_path(path))
    size = os.path.getsize(path)
    if size % _BYTES_PER_SAMPLE != 0:
        raise FormatError(
            f"{path}: length {size} bytes is not a whole number of "
            f"{_BYTES_PER_SAMPLE}-byte cf32le samples"
        )
    count = size // _BYTES_PER_SAMPLE
    if count == 0:
        raise FormatError(f"{path}: capture holds no samples")
    if meta.sample_count is not None and meta.sample_count != count:
        raise FormatError(
            f"{path}: holds {count} samples, but {_meta_path(path)} declares "
            f"sample_count={meta.sample_count}"
        )
    return meta, count, _checked_chunks(path, count)


def _checked_chunks(path, count: int) -> Iterator[np.ndarray]:
    chunk = np.empty(min(count, _READ_CHUNK), dtype="<c8")
    nonzero = False
    with open(path, "rb") as fh:
        for start in range(0, count, chunk.size):
            part = chunk[: count - start]
            if fh.readinto(part.view(np.uint8)) != part.nbytes:
                raise FormatError(
                    f"{path}: capture ended before its {count * _BYTES_PER_SAMPLE} bytes"
                )
            floats = part.view("<f4")
            if not np.isfinite(floats).all():
                raise FormatError(f"{path}: capture holds non-finite samples")
            nonzero = nonzero or bool(floats.any())
            yield part
    if not nonzero:
        raise FormatError(f"{path}: capture holds only zero samples")


def load_iq(path) -> IqBuffer:
    """Read a cf32le capture and its sidecar into an IqBuffer.

    The samples pass every check of ``read_chunks`` and are widened chunk by
    chunk into the complex128 output, so no full-length float32 copy is made.
    """
    meta, count, chunks = read_chunks(path)
    samples = np.empty(count, dtype=np.complex128)
    start = 0
    for part in chunks:
        samples[start : start + part.size] = part
        start += part.size
    return IqBuffer(
        samples=samples,
        sample_rate_hz=meta.sample_rate_hz,
        center_freq_hz=meta.center_freq_hz,
    )


_STOPBAND_DB = 70.0  # design margin beyond the 60 dB requirement


def decimation_taps(factor: int) -> np.ndarray:
    """Kaiser windowed-sinc anti-alias low-pass for one decimation factor.

    Cutoff at 0.8 * (Nyquist / factor) with the transition closing before the
    output Nyquist, >= 60 dB stopband (designed at 70), odd length for an
    integer group delay.

    Kaiser's design formulas for attenuation A > 50 dB and a transition
    width given as a fraction of Nyquist: beta = 0.1102 (A - 8.7) and
    N = ceil((A - 7.95) / (2.285 pi width) + 1) taps, made odd. The ideal
    low-pass is windowed and scaled to unit gain at DC.
    """
    width = 0.2 / factor
    beta = 0.1102 * (_STOPBAND_DB - 8.7)
    numtaps = math.ceil((_STOPBAND_DB - 7.95) / 2.285 / (math.pi * width) + 1)
    numtaps += 1 - numtaps % 2
    cutoff = 0.8 / factor
    taps = cutoff * np.sinc(cutoff * (np.arange(numtaps) - (numtaps - 1) / 2))
    taps *= np.kaiser(numtaps, beta)
    return taps / taps.sum()


_BLOCK_PER_TAP = 4  # overlap-save block length, in filter lengths
_CHUNK_SAMPLES = 1 << 17  # input samples transformed per batch of blocks


def decimate(buf: IqBuffer, factor: int) -> IqBuffer:
    """Low-pass filter and keep every factor-th sample.

    The filter's integer group delay is compensated, so the output stays
    aligned to the input start: output k is the full-rate filter output at
    input sample factor*k, the input read as zero outside the buffer.
    factor=1 passes the samples through bit-exact.

    Only the kept samples are computed, by overlap-save with spectral
    folding. Each block of n input samples (n a multiple of factor) is
    transformed and multiplied by the filter's spectrum; summing its factor
    sub-bands of n/factor bins and dividing by factor is the spectrum of the
    block's circular output decimated by factor, so one inverse transform of
    n/factor points gives the kept samples. The taps are front-padded to
    1 + a multiple of factor taps, so each block's first valid output is one
    of them. Blocks are transformed in batches of about _CHUNK_SAMPLES input
    samples, so the working set does not grow with the buffer and the
    transform lengths depend on the factor alone.
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
    taps = np.concatenate((np.zeros(-(taps.size - 1) % factor), taps))
    overlap = taps.size - 1  # a multiple of factor
    need = -(-_BLOCK_PER_TAP * taps.size // factor)
    sub = 1 << (need - 1).bit_length()  # power-of-two transforms are numpy's fastest
    n = sub * factor
    hop = n - overlap  # input samples per block, factor times its kept outputs
    spectrum = np.fft.fft(taps, n)

    x = buf.samples
    out = np.empty(-(-x.size // factor), dtype=np.complex128)
    per_chunk = max(1, _CHUNK_SAMPLES // hop)
    # Buffers reused by every batch: fresh ones would fault in new pages each time.
    seg = np.empty((per_chunk - 1) * hop + n, dtype=np.complex128)
    frames = np.empty((per_chunk, n), dtype=np.complex128)
    folded = np.empty((per_chunk, sub), dtype=np.complex128)
    for first in range(0, out.size, per_chunk * hop // factor):
        blocks = min(per_chunk, -(-(out.size - first) * factor // hop))
        # Block b of this batch reads input samples lo + b*hop onwards.
        lo = first * factor - delay
        size = (blocks - 1) * hop + n
        start, stop = max(lo, 0), min(lo + size, x.size)
        seg[: start - lo] = 0
        seg[start - lo : stop - lo] = x[start:stop]
        seg[stop - lo : size] = 0
        spec = frames[:blocks]
        np.copyto(spec, sliding_window_view(seg[:size], n)[::hop])
        np.fft.fft(spec, axis=-1, out=spec)
        spec *= spectrum
        fold = spec.reshape(blocks, factor, sub).sum(axis=1, out=folded[:blocks])
        fold /= factor
        kept = np.fft.ifft(fold, axis=-1, out=fold)[:, overlap // factor :]
        count = min(kept.size, out.size - first)
        out[first : first + count] = kept.reshape(-1)[:count]
    return IqBuffer(
        samples=out,
        sample_rate_hz=buf.sample_rate_hz / factor,
        center_freq_hz=buf.center_freq_hz,
    )
