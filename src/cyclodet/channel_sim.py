"""Propagation model: frequency-selective Rayleigh block fading with an
exponential power delay profile, AWGN at a target SNR, an optional random
timing offset, and an optional carrier frequency offset."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .signal_model import IqBuffer

# Samples per block of the channel FIR's shift-add.
_FIR_BLOCK = 1 << 14


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
        # +inf turns noise off; NaN and -inf would silently do the same.
        if np.isnan(self.snr_db) or self.snr_db == -np.inf:
            raise ConfigurationError(f"snr_db must be finite or +inf, got {self.snr_db}")
        if not np.isfinite(self.cfo_hz):
            raise ConfigurationError(f"cfo_hz must be finite, got {self.cfo_hz}")
        if self.num_taps < 1:
            raise ConfigurationError("num_taps must be >= 1")
        if not self.pdp_decay > 0:
            raise ConfigurationError("pdp_decay must be > 0")
        if self.timing_offset_slot_samples is not None and self.timing_offset_slot_samples <= 0:
            raise ConfigurationError(
                "timing_offset_slot_samples must be > 0 when the uniform offset is enabled"
            )


def _add_complex_normal(
    rng: np.random.Generator, y: np.ndarray, power, scratch: np.ndarray
) -> np.ndarray:
    """Add circularly-symmetric complex Gaussian samples of the given power (a
    scalar or len(y) values) to the complex array y in place: all real parts
    are drawn first, then the imaginary, each into the float buffer scratch."""
    scale = np.sqrt(power / 2.0)
    for part in (y.real, y.imag):
        part += np.multiply(rng.standard_normal(out=scratch), scale, out=scratch)
    return y


def complex_normal(rng: np.random.Generator, n: int, power) -> np.ndarray:
    """n circularly-symmetric complex Gaussian samples of the given power (a
    scalar or n values): the n real parts are drawn first, then the imaginary."""
    return _add_complex_normal(rng, np.zeros(n, np.complex128), power, np.empty(n))


def pdp_tap_variances(num_taps: int, pdp_decay: float = 5.0) -> np.ndarray:
    """Per-tap variances B_h * exp(-p / decay), normalized to unit total power."""
    if num_taps < 1:
        raise ConfigurationError("num_taps must be >= 1")
    var = np.exp(-np.arange(num_taps) / pdp_decay)
    return var / var.sum()


def draw_taps(cfg: ChannelConfig, rng: np.random.Generator) -> np.ndarray:
    """Independent zero-mean circularly-symmetric Gaussian taps."""
    return complex_normal(rng, cfg.num_taps, pdp_tap_variances(cfg.num_taps, cfg.pdp_decay))


def apply_channel(x: IqBuffer, cfg: ChannelConfig) -> IqBuffer:
    """Run one block-fading trial: y(m) = sum_p h_p x(m - p - d) + n(m).

    Taps are drawn once per call and held constant over the buffer. The delay
    d shifts the signal right with zero fill at the head (samples beyond the
    buffer end are dropped), so callers that need a fully-developed window can
    generate one extra slot and trim the head. The CFO rotation, when enabled,
    multiplies the faded signal by exp(j 2 pi cfo m T_s) before noise is added.

    RNG draw order is fixed (taps, offset, noise) so results are reproducible
    from ``cfg.seed`` alone. An offset range longer than the buffer is refused.
    """
    m = len(x)
    if cfg.timing_offset_slot_samples is not None and cfg.timing_offset_slot_samples > m:
        raise ConfigurationError(
            f"timing_offset_slot_samples {cfg.timing_offset_slot_samples} exceeds the "
            f"buffer length {m}"
        )
    rng = np.random.default_rng(cfg.seed)
    taps = draw_taps(cfg, rng)

    d = 0
    if cfg.timing_offset_slot_samples is not None:
        d = int(rng.integers(0, cfg.timing_offset_slot_samples))

    # The delayed FIR as a shift-add, y[k:] += h_p x[:m - k] with k = p + d,
    # for each tap that reaches into the buffer. It runs in blocks, each
    # product going into one reused block buffer, so no temporary is made.
    # The sums run in tap order, so they round differently from
    # np.convolve's, by at most a few eps of sum_p |h_p| |x(m - p - d)| per
    # sample.
    y = np.zeros(m, dtype=np.complex128)
    block = np.empty(min(m, _FIR_BLOCK), dtype=np.complex128)
    for k, h in enumerate(taps[: m - d], start=d):
        for lo in range(k, m, _FIR_BLOCK):
            hi = min(lo + _FIR_BLOCK, m)
            y[lo:hi] += np.multiply(h, x.samples[lo - k : hi - k], out=block[: hi - lo])
    # Drop the input here: when the caller passed its last reference, the
    # signal is freed before the noise buffer is allocated.
    rate, center = x.sample_rate_hz, x.center_freq_hz
    del x, block

    if cfg.cfo_hz != 0.0:
        t = np.arange(m) / rate
        rot = np.exp(2j * np.pi * cfg.cfo_hz * t)
        # Operand order fixed as y * rot: with FMA a complex product rounds
        # differently in the other order, and `y * np.exp(...)` lets numpy
        # swap the operands when it reuses the temporary of a long buffer.
        y = np.multiply(y, rot, out=rot)

    if np.isfinite(cfg.snr_db):
        # One float buffer holds |y|^2, then each part of the noise in turn.
        scratch = np.abs(y, out=np.empty(m))
        noise_power = np.mean(np.square(scratch, out=scratch)) / 10.0 ** (cfg.snr_db / 10.0)
        _add_complex_normal(rng, y, noise_power, scratch)

    return IqBuffer(samples=y, sample_rate_hz=rate, center_freq_hz=center)
