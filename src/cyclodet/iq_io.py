"""Raw IQ capture files (cf32le + text sidecar) and anti-aliased decimation.

The one interchange format is interleaved 32-bit little-endian IEEE-754
floats, I then Q, with a ``key=value`` sidecar ``<file>.meta`` carrying at
least ``sample_rate_hz``. Widely convertible from SDR capture tools.
``open_samples`` is the one sample source: a buffer or a capture, cut on
one grid of chunks, a capture's read and checked one at a time.

Decimation is a Kaiser windowed-sinc low-pass evaluated only at the samples
it keeps: overlap-save blocks whose spectra are folded to the output rate
before the inverse transform, run in batches of bounded size. The batches
run on every CPU the process may use, one thread each, and the output is
bit-identical for any CPU count; nothing about it can be set. The taps are
designed in closed form (Kaiser's formulas) and the transforms are
``numpy.fft``, so the package needs numpy alone.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import FormatError, UnsupportedFormatError
from .parallel import cpu_count as _cpu_count, run_shares
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
        fields = {}  # undecodable bytes fail below as a malformed line or value
        try:
            fh = open(meta_path, encoding="utf-8", errors="replace")
        except FileNotFoundError:
            raise FormatError(f"{meta_path}: sidecar metadata file is missing") from None
        with fh:
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


# Samples per chunk: whole 2**14-sample phasor blocks, so the block sums of
# each chunk start on a block of the record.
_READ_CHUNK = 1 << 16


class Samples(NamedTuple):
    """One pass over the samples of a buffer or of a cf32le capture file, as
    ``open_samples`` opens them."""

    sample_rate_hz: float
    center_freq_hz: Optional[float]
    m_r: int
    chunks: Iterator[np.ndarray]


def open_samples(r: "IqBuffer | str | os.PathLike") -> Samples:
    """Open a buffer or a cf32le capture for one pass over its samples, in
    chunks of _READ_CHUNK samples from sample 0 (the last may be shorter).

    A capture's sidecar is parsed here, and refused at once, naming the
    file: a length that is not whole samples, an empty capture, and a
    ``sample_count`` that differs from the data (a capture cut short by
    whole samples). The file is opened when the first chunk is read; each
    chunk is read into one reused complex64 buffer that is valid until the
    next. The chunk that holds a non-finite sample is refused, so is a file
    that ends before its first measured length, and, after the last chunk,
    a capture of zero samples only.
    """
    if isinstance(r, IqBuffer):
        starts = range(0, r.m_r, _READ_CHUNK)
        chunks = (r.samples[s : s + _READ_CHUNK] for s in starts)
        return Samples(r.sample_rate_hz, r.center_freq_hz, r.m_r, chunks)
    meta = IqFileMeta.read(_meta_path(r))
    size = os.path.getsize(r)
    if size % _BYTES_PER_SAMPLE != 0:
        raise FormatError(
            f"{r}: length {size} bytes is not a whole number of "
            f"{_BYTES_PER_SAMPLE}-byte cf32le samples"
        )
    count = size // _BYTES_PER_SAMPLE
    if count == 0:
        raise FormatError(f"{r}: capture holds no samples")
    if meta.sample_count is not None and meta.sample_count != count:
        raise FormatError(
            f"{r}: holds {count} samples, but {_meta_path(r)} declares "
            f"sample_count={meta.sample_count}"
        )
    return Samples(meta.sample_rate_hz, meta.center_freq_hz, count, _checked_chunks(r, count))


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
    """Read a cf32le capture and its sidecar into an IqBuffer: the chunks of
    ``open_samples``, with every check it runs, widened one by one into the
    complex128 output, so no full-length float32 copy is made.
    """
    rate, center, count, chunks = open_samples(path)
    samples = np.empty(count, dtype=np.complex128)
    for i, part in enumerate(chunks):
        samples[i * _READ_CHUNK : i * _READ_CHUNK + part.size] = part
    return IqBuffer(samples=samples, sample_rate_hz=rate, center_freq_hz=center)


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
_CHUNK_SAMPLES = 1 << 16  # input samples transformed per batch of blocks


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

    The batches are independent, so they are shared among one thread per CPU
    the process may run on (at most one per batch), each writing its own
    slices of the output. The blocks and their arithmetic do not depend on
    that count, so the output is bit-identical on any number of CPUs; there
    is nothing to set.
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
    skip, kept = overlap // factor, hop // factor  # outputs dropped and kept per block
    spectrum = np.fft.fft(taps, n)

    x = buf.samples
    count = -(-x.size // factor)
    out = np.empty(-(-count // kept) * kept, dtype=np.complex128)  # whole blocks
    per_chunk = max(1, _CHUNK_SAMPLES // hop)
    firsts = range(0, count, per_chunk * kept)  # each batch's first output
    workers = min(_cpu_count(), len(firsts))

    def run(share: range, seg: np.ndarray, frames: np.ndarray, folded: np.ndarray) -> None:
        for first in share:
            blocks = min(per_chunk, (out.size - first) // kept)
            # Block b of this batch reads input samples lo + b*hop onwards.
            lo = first * factor - delay
            size = (blocks - 1) * hop + n
            start, stop = max(lo, 0), min(lo + size, x.size)
            src = x[lo : lo + size]
            if start > lo or stop < lo + size:  # the batch reads past an edge of x
                src = seg[:size]
                src[: start - lo] = 0
                src[start - lo : stop - lo] = x[start:stop]
                src[stop - lo :] = 0
            spec = np.fft.fft(sliding_window_view(src, n)[::hop], axis=-1, out=frames[:blocks])
            spec *= spectrum
            fold = spec.reshape(blocks, factor, sub).sum(axis=1, out=folded[:blocks])
            fold /= factor
            np.fft.ifft(fold, axis=-1, out=fold)
            out[first : first + blocks * kept].reshape(blocks, kept)[...] = fold[:, skip:]

    # Every worker's buffers are allocated here, so no helper thread grows a
    # malloc arena of its own, and reused by each of its batches: fresh ones
    # would fault in new pages. The helpers call numpy alone.
    shares = [
        (
            firsts[w::workers],
            np.empty((per_chunk - 1) * hop + n, dtype=np.complex128),
            np.empty((per_chunk, n), dtype=np.complex128),
            np.empty((per_chunk, sub), dtype=np.complex128),
        )
        for w in range(workers)
    ]
    run_shares(run, shares)
    return IqBuffer(
        samples=out[:count],
        sample_rate_hz=buf.sample_rate_hz / factor,
        center_freq_hz=buf.center_freq_hz,
    )
