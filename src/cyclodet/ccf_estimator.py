"""Cyclic correlation function estimation.

``estimate_ccf`` evaluates the estimator

    C_hat(alpha, tau) = (1/M_r) * sum_m r(m) conj(r(m + tau)) exp(-j 2 pi alpha m T_s)

at one exact cyclic frequency by direct accumulation, so frequencies such as
26000/15 Hz need no grid tricks. ``ccf_spectrum`` evaluates the whole natural
DFT grid alpha_k = k / (M_r T_s) at once for plots; the two agree on every
grid point and that equivalence is enforced by tests.
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
    """
    table = np.exp(-2j * np.pi * alpha_ts * np.arange(_PHASOR_BLOCK))
    table.flags.writeable = False
    return table


def unit_phasors(alpha_ts: float, m: int) -> np.ndarray:
    """exp(-j 2 pi alpha_ts n) for n = 0..m-1, as a new array.

    Evaluated block-wise: one directly-exponentiated table per 2**14 samples
    and an exactly angle-reduced carrier per block, which keeps accumulated
    phase error below ~1e-12 rad even for multi-million-sample buffers.
    """
    block = _PHASOR_BLOCK
    table = _phasor_table(alpha_ts)
    if m <= block:
        return table[:m].copy()
    n_blocks = -(-m // block)
    # Reduce the block-start angles mod 1 before exponentiating.
    start_cycles = (alpha_ts * block) * np.arange(n_blocks) % 1.0
    carriers = np.exp(-2j * np.pi * start_cycles)
    return (carriers[:, None] * table[None, :]).ravel()[:m]


def _lag_product(r: IqBuffer, tau_samples: int) -> np.ndarray:
    """r(m) conj(r(m + tau)) for m = 0..M_r - tau - 1, or |r|^2 at tau = 0."""
    m = r.m_r
    if not 0 <= tau_samples < m:
        raise ValueError(f"tau_samples must be in [0, {m}), got {tau_samples}")
    if tau_samples:
        return r.samples[: m - tau_samples] * np.conj(r.samples[tau_samples:])
    return np.abs(r.samples) ** 2


def estimate_ccf(r: IqBuffer, alpha_hz: float, tau_samples: int = 0) -> CcfEstimate:
    """Estimate the CCF of ``r`` at one cyclic frequency and sample delay.

    The lag product is truncated at the buffer end while the normalization
    stays 1/M_r; at tau = 0 (the detector's operating point) the sum is exact.
    Accumulation relies on numpy's pairwise summation.
    """
    lag = _lag_product(r, tau_samples)
    phasors = unit_phasors(alpha_hz * r.sampling_period_s, lag.size)
    return CcfEstimate(value=complex(np.sum(lag * phasors) / r.m_r), m_r=r.m_r)


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
