"""Cyclic correlation function estimation.

``estimate_ccf`` evaluates the estimator

    C_hat(alpha, tau) = (1/M_r) * sum_m r(m) conj(r(m + tau)) exp(-j 2 pi alpha m T_s)

at one exact cyclic frequency, so frequencies such as 26000/15 Hz need no grid
tricks. The sum is ``cyclic_sum``, the one kernel behind every statistic,
the detector's noise-only batches included: each block of 2**14 lag
products is multiplied by one cached phasor table, and the block sums are
rotated by the phasors of the block starts. ``ccf_spectrum`` evaluates the
whole natural DFT grid alpha_k = k / (M_r T_s) at once for plots; the two
agree on every grid point and that equivalence is enforced by tests.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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
    """r(m) conj(r(m + tau)) for m = 0..M_r - tau - 1, or the buffer's |r|^2 at tau = 0."""
    m = r.m_r
    if not 0 <= tau_samples < m:
        raise ValueError(f"tau_samples must be in [0, {m}), got {tau_samples}")
    if tau_samples:
        return r.samples[: m - tau_samples] * np.conj(r.samples[tau_samples:])
    return r.power


def estimate_ccf(r: IqBuffer, alpha_hz: float, tau_samples: int = 0) -> CcfEstimate:
    """Estimate the CCF of ``r`` at one cyclic frequency and sample delay.

    The lag product is truncated at the buffer end while the normalization
    stays 1/M_r; at tau = 0 (the detector's operating point) the sum is exact.
    """
    lag = _lag_product(r, tau_samples)
    value = cyclic_sum(lag, alpha_hz * r.sampling_period_s) / r.m_r
    return CcfEstimate(value=complex(value), m_r=r.m_r)


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
