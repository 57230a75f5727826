"""Cyclic correlation function estimation.

``estimate_ccf`` evaluates the estimator

    C_hat(alpha, tau) = (1/M_r) * sum_m r(m) conj(r(m + tau)) exp(-j 2 pi alpha m T_s)

at exact cyclic frequencies, so frequencies such as 26000/15 Hz need no grid
tricks. Every sum is taken in blocks of 2**14 terms, each multiplied by a
cached phasor table, and the block sums are rotated by the phasors of the
block starts. At tau = 0 (the detector's operating point) one pass over the
samples of a buffer or a capture file gives every requested frequency from
one stacked table (``_zero_lag_sums``). ``cyclic_sum`` sums a lag product at
one frequency, or each row of a batch of records, as the detector's
noise-only batches need. ``ccf_spectrum`` evaluates the whole natural DFT
grid alpha_k = k / (M_r T_s) at once for plots; the two agree on every grid
point and that equivalence is enforced by tests.
"""

from __future__ import annotations

import csv
import functools
import math
import os
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .iq_io import load_iq, read_chunks
from .signal_model import CcfEstimate, IqBuffer

_PHASOR_BLOCK = 1 << 14


@functools.lru_cache(maxsize=16)
def _phasor_table(alpha_ts: float) -> np.ndarray:
    """Read-only exp(-j 2 pi alpha_ts n) for n = 0..2**14-1.

    The table depends on alpha_ts only, so Monte Carlo trials and captures at
    the same rate share it. 16 tables of 256 KB bound the cache at 4 MB.
    Built in place, so the table is the only array a cold build allocates.
    """
    table = np.arange(_PHASOR_BLOCK, dtype=np.complex128)
    table *= -2j * np.pi * alpha_ts
    np.exp(table, out=table)
    table.flags.writeable = False
    return table


def unit_phasors(alpha_ts: float, m: int) -> np.ndarray:
    """exp(-j 2 pi alpha_ts n) for n = 0..m-1, as a new array.

    Up to 2**14 angles are exponentiated directly. Longer arrays are built
    block-wise from the cached table and the block-start phasors, themselves
    unit phasors at the block rate, which keeps accumulated phase error below
    ~1e-12 rad even for multi-million-sample buffers.
    """
    block = _PHASOR_BLOCK
    if m <= block:
        return np.exp(-2j * np.pi * alpha_ts * np.arange(m))
    carriers = unit_phasors((alpha_ts * block) % 1.0, -(-m // block))
    return (carriers[:, None] * _phasor_table(alpha_ts)[None, :]).ravel()[:m]


def cyclic_sum(lag: np.ndarray, alpha_ts: float) -> complex | np.ndarray:
    """sum_m lag(m) exp(-j 2 pi alpha_ts m) along the last axis: one sum for
    a record, one per row for a batch of records.

    The phasor at sample b * 2**14 + i factors into the block-start phasor
    exp(-j 2 pi alpha_ts 2**14 b) times the cached table entry i, so each
    block is summed against the table and the block sums are dotted with the
    block-start phasors. A real lag takes one real product with the table's
    (2**14, 2) view; no phasor array as long as the record is built.
    """
    block = _PHASOR_BLOCK
    n_full, tail = divmod(lag.shape[-1], block)
    n_blocks = n_full + (tail > 0)
    table = _phasor_table(alpha_ts)
    sums = np.empty(lag.shape[:-1] + (n_blocks,), dtype=np.complex128)
    kernel, out = table[:, None], sums[..., None]
    if np.isrealobj(lag):
        kernel = table.view(np.float64).reshape(block, 2)
        out = sums.view(np.float64).reshape(sums.shape + (2,))
    full = lag[..., : n_full * block].reshape(lag.shape[:-1] + (n_full, block))
    np.matmul(full, kernel, out=out[..., :n_full, :])
    if tail:
        np.matmul(lag[..., n_full * block :], kernel[:tail], out=out[..., n_full, :])
    return sums @ unit_phasors((alpha_ts * block) % 1.0, n_blocks)


def _lag_product(r: IqBuffer, tau_samples: int) -> np.ndarray:
    """r(m) conj(r(m + tau)) for m = 0..M_r - tau - 1, or |r|^2 at tau = 0."""
    m = r.m_r
    if not 0 <= tau_samples < m:
        raise ValueError(f"tau_samples must be in [0, {m}), got {tau_samples}")
    if tau_samples:
        return r.samples[: m - tau_samples] * np.conj(r.samples[tau_samples:])
    return np.abs(r.samples) ** 2


# Samples of |r|^2 summed per product: whole phasor blocks, so every product
# but the record's last has one shape, and its rounding does not depend on
# how the samples arrive.
_GROUP = 4 * _PHASOR_BLOCK


@functools.lru_cache(maxsize=16)
def _stacked_table(alphas_ts: tuple[float, ...]) -> np.ndarray:
    """Read-only (2k, 2**14) table: the real and imaginary parts of
    exp(-j 2 pi alpha_ts n) as rows 2i and 2i + 1, one pair per cyclic
    frequency, with the entries of ``_phasor_table``."""
    phasors = np.arange(_PHASOR_BLOCK, dtype=np.complex128)[None, :] * (
        -2j * np.pi * np.array(alphas_ts)[:, None]
    )
    np.exp(phasors, out=phasors)
    table = np.stack((phasors.real, phasors.imag), axis=1).reshape(-1, _PHASOR_BLOCK)
    table.flags.writeable = False
    return table


class Samples(NamedTuple):
    """The sample rate, M_r and one pass of sample chunks of a buffer or of a
    cf32le capture file, as ``sample_chunks`` opens them."""

    sample_rate_hz: float
    m_r: int
    chunks: Iterator[np.ndarray]


def sample_chunks(r: "IqBuffer | str | os.PathLike") -> Samples:
    """Open a buffer or a cf32le capture file for one pass over its samples.
    A file's sidecar and length are checked here; the file itself is opened
    when its first chunk is read."""
    if isinstance(r, IqBuffer):
        starts = range(0, r.m_r, _GROUP)
        return Samples(r.sample_rate_hz, r.m_r, (r.samples[s : s + _GROUP] for s in starts))
    meta, count, chunks = read_chunks(r)
    return Samples(meta.sample_rate_hz, count, chunks)


def _abs_squared(x: np.ndarray, out: np.ndarray, squares: "np.ndarray | None") -> None:
    """|x|^2 into out. A cf32 sample's I^2 + Q^2 is formed in float64, where
    both squares are exact, so the sum is correctly rounded."""
    if x.dtype == np.complex64:
        sq = squares[: 2 * x.size]
        np.copyto(sq, x.view(np.float32))
        np.square(sq, out=sq)
        np.add(sq[0::2], sq[1::2], out=out)
    else:
        np.abs(x, out=out)
        np.square(out, out=out)


def _zero_lag_sums(
    chunks: Iterator[np.ndarray], m: int, alphas_ts: tuple[float, ...]
) -> tuple[float, list[complex]]:
    """sum_m |r(m)|^2 and, for each alpha_ts, sum_m |r(m)|^2 exp(-j 2 pi alpha_ts m),
    in one pass over the chunks of r.

    |r|^2 is written into a scratch of _GROUP samples. Each filled group is
    summed (``np.sum``; ``math.fsum`` over the group sums) and multiplied by
    the stacked table of every alpha_ts at once, which gives each 2**14-block
    sum; the block sums are dotted with the block-start phasors at the end.
    Groups start at fixed sample positions, so the sums do not depend on how
    the chunks are cut.
    """
    block = _PHASOR_BLOCK
    table = _stacked_table(alphas_ts)
    sums = np.empty((table.shape[0], -(-m // block)))
    power = np.empty(min(m, _GROUP))
    squares = None  # the cf32 squares, made at the first cf32 chunk
    totals, fill, done = [], 0, 0

    def flush(p: np.ndarray) -> None:
        nonlocal done
        totals.append(np.sum(p))
        full, tail = divmod(p.size, block)
        if full:
            np.matmul(table, p[: full * block].reshape(full, block).T,
                      out=sums[:, done : done + full])
        if tail:
            np.matmul(table[:, :tail], p[full * block :], out=sums[:, done + full])
        done += full + (tail > 0)

    for chunk in chunks:
        if squares is None and chunk.dtype == np.complex64:
            squares = np.empty(2 * power.size)
        pos = 0
        while pos < chunk.size:
            take = min(chunk.size - pos, _GROUP - fill)
            _abs_squared(chunk[pos : pos + take], power[fill : fill + take], squares)
            fill, pos = fill + take, pos + take
            if fill == _GROUP:
                flush(power)
                fill = 0
    if fill:
        flush(power[:fill])
    values = [
        complex((sums[2 * i] + 1j * sums[2 * i + 1]) @ unit_phasors((a * block) % 1.0, done))
        for i, a in enumerate(alphas_ts)
    ]
    return math.fsum(totals), values


def estimate_ccf(
    r: "IqBuffer | str | os.PathLike | Samples",
    alpha_hz: "float | np.ndarray",
    tau_samples: int = 0,
) -> CcfEstimate:
    """Estimate the CCF of ``r`` at one or more cyclic frequencies and one sample delay.

    ``r`` is a buffer, the path of a cf32le capture, or (at tau = 0 only)
    the unread ``Samples`` of either; ``value`` has the shape of ``alpha_hz``.
    The lag product is truncated at the record end while the normalization
    stays 1/M_r; at tau = 0 (the detector's operating point) the sum is exact.

    At tau = 0 every cyclic frequency comes from one pass over the samples
    (``_zero_lag_sums``): a capture file is read once, in chunks, in memory
    that does not grow with its length, and Ĉ(0, 0), the mean power, is the
    ``math.fsum`` of the group sums of |r|^2. For a cf32 capture |r|^2 is
    I^2 + Q^2 in float64, correctly rounded. A nonzero tau loads a capture
    with ``load_iq`` and sums its lag product once per cyclic frequency.
    """
    alphas = np.asarray(alpha_hz, dtype=np.float64)
    if tau_samples:
        if isinstance(r, Samples):
            raise ValueError("opened samples are summed at tau_samples = 0 only")
        buf = r if isinstance(r, IqBuffer) else load_iq(r)
        lag = _lag_product(buf, tau_samples)
        m = buf.m_r
        alphas_ts = alphas.ravel() * buf.sampling_period_s
        values = [cyclic_sum(lag, float(a)) / m for a in alphas_ts]
    else:
        rate, m, chunks = r if isinstance(r, Samples) else sample_chunks(r)
        alphas_ts = alphas.ravel() * (1.0 / rate)
        nonzero = tuple(float(a) for a in alphas_ts if a != 0.0)
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite buffers reach sigma's check
            total, sums = _zero_lag_sums(chunks, m, nonzero)
        sums = iter(sums)
        values = [(next(sums) if a != 0.0 else total) / m for a in alphas_ts]
    value = np.array(values, dtype=np.complex128).reshape(alphas.shape)
    return CcfEstimate(value=value if value.ndim else complex(value), m_r=m)


@dataclass(frozen=True)
class CcfSpectrum:
    """CCF magnitude on the natural grid alpha_k = k / (M_r T_s)."""

    alphas_hz: np.ndarray
    magnitudes: np.ndarray

    def __post_init__(self) -> None:
        alphas = np.asarray(self.alphas_hz, dtype=np.float64)
        mags = np.asarray(self.magnitudes, dtype=np.float64)
        if alphas.shape != mags.shape or alphas.ndim != 1:
            raise ValueError("alphas_hz and magnitudes must be 1-D and equally long")
        if alphas.size > 1 and not np.all(np.diff(alphas) > 0):
            raise ValueError("alphas_hz must be strictly increasing")
        object.__setattr__(self, "alphas_hz", alphas)
        object.__setattr__(self, "magnitudes", mags)

    @property
    def grid_spacing_hz(self) -> float:
        return float(self.alphas_hz[1] - self.alphas_hz[0]) if self.alphas_hz.size > 1 else np.inf


def ccf_spectrum(r: IqBuffer, tau_samples: int, max_alpha_hz: float) -> CcfSpectrum:
    """Evaluate |C_hat(alpha, tau)| on every grid point up to ``max_alpha_hz``."""
    if not 0 <= max_alpha_hz <= r.sample_rate_hz / 2:
        raise ValueError(
            f"max_alpha_hz must be in [0, Nyquist {r.sample_rate_hz / 2}], got {max_alpha_hz}"
        )
    lag = _lag_product(r, tau_samples)
    m = r.m_r
    grid_hz = r.sample_rate_hz / m
    k_max = int(np.floor(max_alpha_hz / grid_hz + 1e-12))
    # fft zero-pads the truncated lag product back to M_r points.
    spectrum = np.abs(np.fft.fft(lag, n=m)[: k_max + 1]) / m
    alphas = np.arange(k_max + 1) * grid_hz
    return CcfSpectrum(alphas_hz=alphas, magnitudes=spectrum)


class HarmonicPeak(NamedTuple):
    k: int
    magnitude: float
    alpha_hz: float


def harmonic_peaks(s: CcfSpectrum, fundamental_hz: float, k_max: int) -> list[HarmonicPeak]:
    """Per harmonic k = 1..k_max, the largest magnitude within one grid bin
    of k * fundamental_hz, with the grid frequency where it was found."""
    if k_max < 1:
        return []
    spacing = s.grid_spacing_hz
    if not fundamental_hz > spacing:
        raise ValueError(
            f"fundamental_hz {fundamental_hz} must exceed the grid spacing {spacing}"
        )
    peaks = []
    for k in range(1, k_max + 1):
        idx = int(round(k * fundamental_hz / spacing))
        if idx - 1 >= s.alphas_hz.size:
            break
        lo = max(idx - 1, 0)
        hi = min(idx + 2, s.alphas_hz.size)
        window = s.magnitudes[lo:hi]
        best = lo + int(np.argmax(window))
        peaks.append(HarmonicPeak(k=k, magnitude=float(s.magnitudes[best]),
                                  alpha_hz=float(s.alphas_hz[best])))
    return peaks


def spectrum_to_csv(s: CcfSpectrum, path) -> None:
    """Write the spectrum as ``alpha_hz,magnitude`` rows (UTF-8, LF)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["alpha_hz", "magnitude"])
        for a, mag in zip(s.alphas_hz, s.magnitudes):
            writer.writerow([f"{a:.12g}", f"{mag:.12g}"])


def ccf_flop_count(m_r: int) -> int:
    """Floating-point operation count of the direct estimator at one CF.

    The sum needs 2*M_r complex multiplications (lag product and phasor
    rotation) and M_r - 1 complex additions; at 6 flops per complex multiply
    and 2 per add that is 14*M_r - 2.
    """
    return 14 * m_r - 2
