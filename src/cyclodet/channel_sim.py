"""Propagation model: frequency-selective Rayleigh block fading with an
exponential power delay profile, AWGN at a target SNR, an optional random
timing offset, and an optional carrier frequency offset."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .signal_model import IqBuffer


@dataclass(frozen=True)
class ChannelConfig:
    """One channel realization is drawn per :func:`apply_channel` call.

    ``timing_offset_slot_samples=None`` disables the timing offset; an integer
    value makes the delay uniform over ``[0, slot_samples)``. ``snr_db`` is
    relative to the faded signal power and may be ``inf`` to disable noise.
    """

    snr_db: float
    num_taps: int = 4
    pdp_decay: float = 5.0
    timing_offset_slot_samples: Optional[int] = None
    cfo_hz: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_taps < 1:
            raise ConfigurationError("num_taps must be >= 1")
        if not self.pdp_decay > 0:
            raise ConfigurationError("pdp_decay must be > 0")
        if self.timing_offset_slot_samples is not None and self.timing_offset_slot_samples <= 0:
            raise ConfigurationError(
                "timing_offset_slot_samples must be > 0 when the uniform offset is enabled"
            )


def pdp_tap_variances(num_taps: int, pdp_decay: float = 5.0) -> np.ndarray:
    """Per-tap variances B_h * exp(-p / decay), normalized to unit total power."""
    if num_taps < 1:
        raise ConfigurationError("num_taps must be >= 1")
    var = np.exp(-np.arange(num_taps) / pdp_decay)
    return var / var.sum()


def draw_taps(cfg: ChannelConfig, rng: np.random.Generator) -> np.ndarray:
    """Independent zero-mean circularly-symmetric Gaussian taps."""
    var = pdp_tap_variances(cfg.num_taps, cfg.pdp_decay)
    return np.sqrt(var / 2.0) * (
        rng.standard_normal(cfg.num_taps) + 1j * rng.standard_normal(cfg.num_taps)
    )


def apply_channel(x: IqBuffer, cfg: ChannelConfig) -> IqBuffer:
    """Run one block-fading trial: y(m) = sum_p h_p x(m - p - d) + n(m).

    Taps are drawn once per call and held constant over the buffer. The delay
    d shifts the signal right with zero fill at the head (samples beyond the
    buffer end are dropped), so callers that need a fully-developed window can
    generate one extra slot and trim the head. The CFO rotation, when enabled,
    multiplies the faded signal by exp(j 2 pi cfo m T_s) before noise is added.

    RNG draw order is fixed (taps, offset, noise) so results are reproducible
    from ``cfg.seed`` alone.
    """
    rng = np.random.default_rng(cfg.seed)
    taps = draw_taps(cfg, rng)

    d = 0
    if cfg.timing_offset_slot_samples is not None:
        d = int(rng.integers(0, cfg.timing_offset_slot_samples))

    m = len(x)
    delayed = x.samples
    if d > 0:
        delayed = np.concatenate([np.zeros(d, dtype=np.complex128), x.samples[: m - d]])
    y = np.convolve(delayed, taps)[:m]

    if cfg.cfo_hz != 0.0:
        t = np.arange(m) / x.sample_rate_hz
        y = y * np.exp(2j * np.pi * cfg.cfo_hz * t)

    if np.isfinite(cfg.snr_db):
        noise_power = np.mean(np.abs(y) ** 2) / 10.0 ** (cfg.snr_db / 10.0)
        y = y + np.sqrt(noise_power / 2.0) * (
            rng.standard_normal(m) + 1j * rng.standard_normal(m)
        )

    return IqBuffer(samples=y, sample_rate_hz=x.sample_rate_hz, center_freq_hz=x.center_freq_hz)
