"""Cyclic correlation function estimation.

``estimate_ccf`` evaluates the estimator

    C_hat(alpha, tau) = (1/M_r) * sum_m r(m) conj(r(m + tau)) exp(-j 2 pi alpha m T_s)

at exact cyclic frequencies, so frequencies such as 26000/15 Hz need no grid
tricks. Every sum is taken by one kernel: ``_block_sums`` sums each block of
2**14 real terms against one cached table that stacks the phasors of every
requested frequency, and ``_rotate`` dots each frequency's block sums with
the phasors of the block starts. It serves |r|^2 at tau = 0, one chunk of a
buffer or a capture file at a time as ``iq_io.open_samples`` cuts them
(``_zero_lag_sums``), the real and imaginary parts of a lag product at
tau != 0, and each row of the detector's batches of noise-only records.
``ccf_spectrum`` evaluates the whole natural DFT grid alpha_k = k / (M_r T_s)
at once for plots; the two agree on every grid point and that equivalence is
enforced by tests.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .iq_io import _READ_CHUNK, Samples, open_samples
from .parallel import locked_cache
from .signal_model import CcfEstimate, IqBuffer

_PHASOR_BLOCK = 1 << 14


def unit_phasors(alpha_ts: float, m: int) -> np.ndarray:
    """exp(-j 2 pi alpha_ts n) for n = 0..m-1, as a new array.

    Up to 2**14 angles are exponentiated directly. A longer array is one
    such block times its block-start phasors, themselves unit phasors at the
    block rate, which keeps accumulated phase error below ~1e-12 rad even
    for multi-million-sample buffers.
    """
    block = _PHASOR_BLOCK
    if m <= block:
        return np.exp(-2j * np.pi * alpha_ts * np.arange(m))
    carriers = unit_phasors((alpha_ts * block) % 1.0, -(-m // block))
    return (carriers[:, None] * unit_phasors(alpha_ts, block)[None, :]).ravel()[:m]


@locked_cache(maxsize=16)
def _stacked_table(alphas_ts: tuple[float, ...]) -> np.ndarray:
    """Read-only (2k, 2**14) table: the real and imaginary parts of
    exp(-j 2 pi alpha_ts n) as rows 2i and 2i + 1, one pair per cyclic
    frequency, so trials and captures at the same rates share it. 16 tables
    of 256 KB per frequency bound the cache at 8 MB for two frequencies.
    The rows are the cosine and sine of the angles, bit-equal to the parts
    of ``np.exp``, built in place, so the table is nearly all that a cold
    build allocates."""
    table = np.empty((2 * len(alphas_ts), _PHASOR_BLOCK))
    n = np.arange(_PHASOR_BLOCK)
    for i, a in enumerate(alphas_ts):
        angles = np.multiply(n, -2.0 * np.pi * a, out=table[2 * i])
        np.sin(angles, out=table[2 * i + 1])
        np.cos(angles, out=angles)
    table.flags.writeable = False
    return table


def _block_sums(
    p: np.ndarray, alphas_ts: tuple[float, ...], out: "np.ndarray | None" = None
) -> np.ndarray:
    """Sums of each 2**14-sample block of the real p (along its last axis)
    against every row of ``_stacked_table(alphas_ts)``, shaped
    (..., blocks, 2k): the real and imaginary parts of
    sum_i p(b 2**14 + i) exp(-j 2 pi alpha_ts i) side by side per frequency.
    Full blocks are one product with the table, the tail one more."""
    block = _PHASOR_BLOCK
    table = _stacked_table(alphas_ts)
    n_full, tail = divmod(p.shape[-1], block)
    if out is None:
        out = np.empty(p.shape[:-1] + (n_full + (tail > 0), table.shape[0]))
    full = p[..., : n_full * block].reshape(p.shape[:-1] + (n_full, block))
    np.matmul(full, table.T, out=out[..., :n_full, :])
    if tail:
        np.matmul(p[..., n_full * block :], table[:, :tail].T, out=out[..., n_full, :])
    return out


def _rotate(sums: np.ndarray, alphas_ts: tuple[float, ...]) -> np.ndarray:
    """sum_m p(m) exp(-j 2 pi alpha_ts m) for each alpha_ts, shaped (..., k),
    from the block sums of ``_block_sums``: the phasor at sample
    b 2**14 + i factors into the block-start phasor exp(-j 2 pi alpha_ts 2**14 b)
    times table entry i, so each frequency's block sums are dotted with its
    block-start phasors (from a contiguous copy: a strided dot rounds
    differently)."""
    blocks = sums.view(np.complex128)
    values = np.empty(blocks.shape[:-2] + (len(alphas_ts),), dtype=np.complex128)
    for i, a in enumerate(alphas_ts):
        carriers = unit_phasors((a * _PHASOR_BLOCK) % 1.0, blocks.shape[-2])
        values[..., i] = np.ascontiguousarray(blocks[..., i]) @ carriers
    return values


def _lag_product(r: IqBuffer, tau_samples: int) -> np.ndarray:
    """r(m) conj(r(m + tau)) for m = 0..M_r - tau - 1, or |r|^2 at tau = 0, as
    I^2 + Q^2 in float64 like the |r|^2 that ``_zero_lag_sums`` sums."""
    m = r.m_r
    if not 0 <= tau_samples < m:
        raise ValueError(f"tau_samples must be in [0, {m}), got {tau_samples}")
    if tau_samples:
        return r.samples[: m - tau_samples] * np.conj(r.samples[tau_samples:])
    return r.samples.real**2 + r.samples.imag**2


def _zero_lag_sums(
    chunks: Iterator[np.ndarray], m: int, alphas_ts: tuple[float, ...]
) -> tuple[float, np.ndarray]:
    """sum_m |r(m)|^2 and, for each alpha_ts, sum_m |r(m)|^2 exp(-j 2 pi alpha_ts m),
    in one pass over the chunks of r.

    Every chunk but the last is _READ_CHUNK samples, a whole number of
    2**14-sample blocks (the grid of ``open_samples``), so chunk i's block
    sums start at block i _READ_CHUNK / 2**14. Each chunk's |r|^2 is
    I^2 + Q^2 in float64, cf32 or complex128 alike: the chunk is copied into
    one reused complex128 scratch, whose float view is squared in place and
    added in pairs (for cf32 both squares are exact, so the sum is correctly
    rounded). It is summed (``np.sum``; ``math.fsum`` over the chunk sums),
    and its block sums are written into one array for the whole record. The
    iterator is read to its end, so a capture's checks after its last chunk
    run.
    """
    sums = np.empty((-(-m // _PHASOR_BLOCK), 2 * len(alphas_ts)))
    scratch = np.empty(min(m, _READ_CHUNK), dtype=np.complex128)
    power = np.empty(scratch.size)
    totals = []
    for i, chunk in enumerate(chunks):
        sq, p = scratch[: chunk.size], power[: chunk.size]
        np.copyto(sq, chunk)
        sq = sq.view(np.float64)
        np.square(sq, out=sq)
        np.add(sq[0::2], sq[1::2], out=p)
        totals.append(np.sum(p))
        start = i * (_READ_CHUNK // _PHASOR_BLOCK)
        _block_sums(p, alphas_ts, out=sums[start : start + -(-p.size // _PHASOR_BLOCK)])
    return math.fsum(totals), _rotate(sums, alphas_ts)


def estimate_ccf(
    r: "IqBuffer | Samples",
    alpha_hz: "float | np.ndarray",
    tau_samples: int = 0,
) -> CcfEstimate:
    """Estimate the CCF of ``r`` at one or more cyclic frequencies and one sample delay.

    ``r`` is a buffer or (at tau = 0 only) the unread ``Samples`` of a
    buffer or a cf32le capture from ``open_samples``; ``value`` has the
    shape of ``alpha_hz``. The lag product is truncated at the record end
    while the normalization stays 1/M_r; at tau = 0 (the detector's
    operating point) the sum is exact.

    At tau = 0 every cyclic frequency comes from one pass over the chunks
    (``_zero_lag_sums``): a capture file is read once, in memory that does
    not grow with its length, and Ĉ(0, 0), the mean power, is the
    ``math.fsum`` of the chunk sums of |r|^2, which is I^2 + Q^2 in float64
    for a buffer and a capture alike. A nonzero tau sums the real and
    imaginary parts of the buffer's lag product against every cyclic
    frequency at once.
    """
    if not isinstance(r, (IqBuffer, Samples)):
        raise TypeError(f"r must be an IqBuffer or opened Samples, got {type(r).__name__}")
    alphas = np.asarray(alpha_hz, dtype=np.float64)
    if tau_samples:
        if not isinstance(r, IqBuffer):
            raise ValueError("opened samples are summed at tau_samples = 0 only")
        lag = _lag_product(r, tau_samples)
        m = r.m_r
        alphas_ts = tuple(float(a) for a in alphas.ravel() * r.sampling_period_s)
        real, imag = _rotate(_block_sums(np.stack((lag.real, lag.imag)), alphas_ts), alphas_ts)
        values = (real + 1j * imag) / m
    else:
        rate, _, m, chunks = open_samples(r) if isinstance(r, IqBuffer) else r
        alphas_ts = alphas.ravel() * (1.0 / rate)
        nonzero = tuple(float(a) for a in alphas_ts if a != 0.0)
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite buffers reach sigma's check
            total, sums = _zero_lag_sums(chunks, m, nonzero)
        sums = iter(sums.tolist())
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
