"""Baseband GSM and LTE downlink waveform generators.

Both generators produce the slot-periodic pilot structure that the detector
exploits: the fixed 26-bit training midamble repeated in every GSM slot, and
the fixed cell-specific reference signals plus the PSS/SSS pair in the LTE
grid. Outputs are normalized to unit mean power so SNR settings downstream
are unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channel_sim import complex_normal
from .errors import ConfigurationError
from .signal_model import IqBuffer, Standard

GSM_SYMBOL_RATE_HZ = Fraction(1625000, 6)
GSM_SLOT_SYMBOLS = Standard.GSM.slot_duration_s * GSM_SYMBOL_RATE_HZ  # 156.25
GSM_GAUSSIAN_BT = 0.3  # GMSK pulse-shaping bandwidth-time product

# Normal-burst layout, in bits: 3 tail + 57 data + 1 flag + 26 training
# + 1 flag + 57 data + 3 tail, followed by 8.25 guard symbols.
GSM_BURST_BITS = 148
GSM_TRAINING_OFFSET = 3 + 57 + 1
GSM_TRAINING_LEN = 26
_GUARD_BITS = 9  # last one truncated to 0.25 symbol at the slot boundary
GSM_SLOT_SCHEDULE_LEN = GSM_BURST_BITS + _GUARD_BITS

# The eight standard 26-bit training sequences.
GSM_TRAINING_SEQUENCES = np.array(
    [
        [0,0,1,0,0,1,0,1,1,1,0,0,0,0,1,0,0,0,1,0,0,1,0,1,1,1],
        [0,0,1,0,1,1,0,1,1,1,0,1,1,1,1,0,0,0,1,0,1,1,0,1,1,1],
        [0,1,0,0,0,0,1,1,1,0,1,1,1,0,1,0,0,1,0,0,0,0,1,1,1,0],
        [0,1,0,0,0,1,1,1,1,0,1,1,0,1,0,0,0,1,0,0,0,1,1,1,1,0],
        [0,0,0,1,1,0,1,0,1,1,1,0,0,1,0,0,0,0,0,1,1,0,1,0,1,1],
        [0,1,0,0,1,1,1,0,1,0,1,1,0,0,0,0,0,1,0,0,1,1,1,0,1,0],
        [1,0,1,0,0,1,1,1,1,1,0,1,1,0,0,0,1,0,1,0,0,1,1,1,1,1],
        [1,1,1,0,1,1,1,1,0,0,0,1,0,0,1,0,1,1,1,0,1,1,1,1,0,0],
    ],
    dtype=np.int8,
)

# Guard-gate geometry for guard_mode="gated", in symbols relative to the slot
# start: raised-cosine ramp down across the trailing tail bits, carrier off for
# most of the guard, ramp back up into the next burst.
_GATE_DOWN_START = 146.0
_GATE_DOWN_END = 148.0
_GATE_UP_START = 155.25
_GATE_UP_END = 156.25

GUARD_MODES = ("random_bits", "gated")


@dataclass(frozen=True)
class GsmSynthConfig:
    num_slots: int
    oversample: int = 4
    training_sequence_index: int = 0
    seed: int = 0
    guard_mode: str = "random_bits"

    def __post_init__(self) -> None:
        if self.num_slots < 1:
            raise ConfigurationError("num_slots must be >= 1")
        if self.oversample < 2:
            raise ConfigurationError("oversample must be >= 2")
        if not 0 <= self.training_sequence_index <= 7:
            raise ConfigurationError("training_sequence_index must be in 0..7")
        if self.guard_mode not in GUARD_MODES:
            raise ConfigurationError(f"guard_mode must be one of {GUARD_MODES}")
        total = self.num_slots * GSM_SLOT_SYMBOLS * self.oversample
        if total.denominator != 1:
            raise ConfigurationError(
                "num_slots * 156.25 * oversample must be an integer sample count; "
                "use an oversample that is a multiple of 4, or an even num_slots"
            )

    @property
    def sample_rate_hz(self) -> float:
        return float(self.oversample * GSM_SYMBOL_RATE_HZ)

    @property
    def samples_per_slot(self) -> float:
        return float(GSM_SLOT_SYMBOLS * self.oversample)

    @property
    def total_samples(self) -> int:
        return int(self.num_slots * GSM_SLOT_SYMBOLS * self.oversample)


def gsm_bit_schedule(cfg: GsmSynthConfig) -> tuple[np.ndarray, np.ndarray]:
    """Bit start times (symbol units) and bit values for the whole burst train.

    Each slot contributes 157 entries: the 148 burst bits on integer symbol
    offsets from the slot start, then 9 guard bits of which the last is cut
    off by the next slot boundary at 156.25 symbols (continuous-carrier
    model: the modulator keeps running through the guard).
    """
    n = cfg.num_slots
    # The random bits of each slot are drawn as 57, 1, 1, 57 and 9 int8
    # values, in that order. An int8 draw takes one byte per value from
    # 32-bit words and drops the unused bytes of its last word, so each draw
    # uses ceil(count / 4) words. One (n, 140)-value draw therefore replays
    # the same stream: the five draws sit at columns [0:57], [60], [64],
    # [68:125] and [128:137]. This relies on numpy's Generator internals;
    # tests/test_waveform_synth.py pins it against the per-draw loop.
    rng = np.random.default_rng(cfg.seed)
    draws = rng.integers(0, 2, (n, 140), dtype=np.int8)
    tsc = GSM_TRAINING_SEQUENCES[cfg.training_sequence_index]
    tail = np.zeros((n, 3), dtype=np.int8)
    bits = np.concatenate(
        [
            tail,
            draws[:, 0:57],
            draws[:, 60:61],
            np.broadcast_to(tsc, (n, GSM_TRAINING_LEN)),
            draws[:, 64:65],
            draws[:, 68:125],
            tail,
            draws[:, 128 : 128 + _GUARD_BITS],
        ],
        axis=1,
    ).ravel()

    slot_starts = np.arange(n, dtype=np.float64) * float(GSM_SLOT_SYMBOLS)
    offsets = np.arange(GSM_SLOT_SCHEDULE_LEN, dtype=np.float64)
    starts = (slot_starts[:, None] + offsets[None, :]).ravel()
    return starts, bits


def _gaussian_kernel(oversample: int) -> np.ndarray:
    """Unit-sum Gaussian smoothing kernel for the NRZ drive, span +/-3 symbols."""
    sigma_symbols = np.sqrt(np.log(2.0)) / (2.0 * np.pi * GSM_GAUSSIAN_BT)
    n = np.arange(-3 * oversample, 3 * oversample + 1, dtype=np.float64)
    g = np.exp(-0.5 * (n / (oversample * sigma_symbols)) ** 2)
    return g / g.sum()


def _gate_envelope(rel_symbols: np.ndarray) -> np.ndarray:
    """Burst power gate vs slot-relative symbol time (raised-cosine edges)."""
    env = np.ones_like(rel_symbols)
    down = (rel_symbols >= _GATE_DOWN_START) & (rel_symbols < _GATE_DOWN_END)
    env[down] = 0.5 * (
        1.0 + np.cos(np.pi * (rel_symbols[down] - _GATE_DOWN_START) / (_GATE_DOWN_END - _GATE_DOWN_START))
    )
    env[(rel_symbols >= _GATE_DOWN_END) & (rel_symbols < _GATE_UP_START)] = 0.0
    up = rel_symbols >= _GATE_UP_START
    env[up] = 0.5 * (
        1.0 - np.cos(np.pi * (rel_symbols[up] - _GATE_UP_START) / (_GATE_UP_END - _GATE_UP_START))
    )
    return env


def synth_gsm(cfg: GsmSynthConfig) -> IqBuffer:
    """Generate a GMSK burst train of ``cfg.num_slots`` slots.

    The modulator integrates Gaussian-filtered (BT = 0.3) NRZ bits
    into phase with a +/- pi/2 shift per bit, which keeps the envelope exactly
    constant. With ``guard_mode="gated"`` a power gate with raised-cosine
    ramps is applied over the guard period instead, modeling carriers that
    ramp down between bursts.
    """
    starts, bits = gsm_bit_schedule(cfg)
    nrz = bits.astype(np.float64) * 2.0 - 1.0

    m = cfg.total_samples
    t_symbols = np.arange(m, dtype=np.float64) / cfg.oversample
    drive = nrz[np.searchsorted(starts, t_symbols, side="right") - 1]

    kernel = _gaussian_kernel(cfg.oversample)
    smoothed = np.convolve(drive, kernel, mode="same")
    phase = (np.pi / (2.0 * cfg.oversample)) * np.cumsum(smoothed)
    x = np.exp(1j * phase)

    if cfg.guard_mode == "gated":
        x = x * _gate_envelope(t_symbols % float(GSM_SLOT_SYMBOLS))

    x = x / np.sqrt(np.mean(np.abs(x) ** 2))
    return IqBuffer(samples=x, sample_rate_hz=cfg.sample_rate_hz)


LTE_SUBCARRIER_SPACING_HZ = 15000
LTE_SYMBOLS_PER_SLOT = 7
LTE_SLOTS_PER_FRAME = 20
_PSS_ROOT = 25
_QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j], dtype=np.complex128) / np.sqrt(2.0)


@dataclass(frozen=True)
class LteSynthConfig:
    num_slots: int
    n_rb: int = 6
    fft_size: int = 128
    rs_power_boost_db: float = 2.5
    cell_seed: int = 1
    seed: int = 0
    data_occupancy: float = 1.0

    def __post_init__(self) -> None:
        if self.num_slots < 1:
            raise ConfigurationError("num_slots must be >= 1")
        if self.n_rb < 1:
            raise ConfigurationError("n_rb must be >= 1")
        if self.fft_size < 12 * self.n_rb:
            raise ConfigurationError(
                f"fft_size {self.fft_size} cannot carry {12 * self.n_rb} subcarriers"
            )
        if self.fft_size % 128 != 0:
            raise ConfigurationError(
                "fft_size must be a multiple of 128 so cyclic-prefix lengths "
                "{10, 9} scale to whole samples"
            )
        if not 0.0 <= self.data_occupancy <= 1.0:
            raise ConfigurationError("data_occupancy must be in [0, 1]")
        with np.errstate(over="ignore"):
            ratio = np.float64(10.0) ** (self.rs_power_boost_db / 10.0)
        if not 0.0 < ratio < np.inf:
            raise ConfigurationError(
                f"rs_power_boost_db must give a finite power ratio > 0, got {self.rs_power_boost_db}"
            )

    @property
    def sample_rate_hz(self) -> float:
        return float(self.fft_size * LTE_SUBCARRIER_SPACING_HZ)

    @property
    def cp_lengths(self) -> tuple[int, ...]:
        scale = self.fft_size // 128
        return (10 * scale,) + (9 * scale,) * 6

    @property
    def samples_per_slot(self) -> int:
        return LTE_SYMBOLS_PER_SLOT * self.fft_size + sum(self.cp_lengths)

    @property
    def total_samples(self) -> int:
        return self.num_slots * self.samples_per_slot


def _pss_sequence() -> np.ndarray:
    """Length-63 Zadoff-Chu (root 25) with the DC element punctured."""
    n = np.arange(63)
    zc = np.exp(-1j * np.pi * _PSS_ROOT * n * (n + 1) / 63.0)
    return np.concatenate([zc[:31], zc[32:]])


def _cell_constants(cfg: LteSynthConfig):
    """Per-cell fixed quantities: RS placement/values and the SSS sequence."""
    crng = np.random.default_rng(cfg.cell_seed)
    nsc = 12 * cfg.n_rb
    v0 = int(crng.integers(0, 6))
    rs_cols_sym0 = np.arange(v0, nsc, 6)
    rs_cols_sym4 = np.arange((v0 + 3) % 6, nsc, 6)
    boost = 10.0 ** (cfg.rs_power_boost_db / 20.0)
    rs_sym0 = _QPSK[crng.integers(0, 4, rs_cols_sym0.size)] * boost
    rs_sym4 = _QPSK[crng.integers(0, 4, rs_cols_sym4.size)] * boost
    sss = (crng.integers(0, 2, 62).astype(np.float64) * 2.0 - 1.0).astype(np.complex128)
    return rs_cols_sym0, rs_sym0, rs_cols_sym4, rs_sym4, sss


def synth_lte(cfg: LteSynthConfig) -> IqBuffer:
    """Generate an FDD downlink slot train (normal cyclic prefix).

    Cell-specific reference signals sit on every 6th subcarrier of OFDM
    symbols 0 and 4 of each slot, carrying one fixed per-cell QPSK sequence
    boosted by ``rs_power_boost_db``. PSS/SSS occupy the last two symbols of
    slots 0 and 10 of every 20-slot frame on the center 62 subcarriers (DC
    nulled), with everything outside those 62 zeroed. Data resource elements
    carry fresh pseudorandom QPSK; ``data_occupancy`` < 1 leaves a random
    subset of them empty, modeling a lightly loaded cell.
    """
    rng = np.random.default_rng(cfg.seed)
    nsc = 12 * cfg.n_rb
    half = nsc // 2
    # Used subcarriers straddle DC, which itself stays empty.
    data_bins = np.concatenate([np.arange(-half, 0), np.arange(1, half + 1)]) % cfg.fft_size
    sync_bins = np.concatenate([np.arange(-31, 0), np.arange(1, 32)]) % cfg.fft_size

    rs_cols0, rs_vals0, rs_cols4, rs_vals4, sss = _cell_constants(cfg)
    pss = _pss_sequence()

    rows = np.arange(cfg.num_slots * LTE_SYMBOLS_PER_SLOT)
    sym = rows % LTE_SYMBOLS_PER_SLOT
    sync_slot = np.isin(rows // LTE_SYMBOLS_PER_SLOT % LTE_SLOTS_PER_FRAME, (0, 10))
    pss_rows = rows[sync_slot & (sym == 6)]
    sss_rows = rows[sync_slot & (sym == 5)]
    data_rows = rows[~(sync_slot & (sym >= 5))]

    # Each data row, in row order, draws nsc integers(0, 4) and then, when
    # data_occupancy < 1, nsc random() doubles. The integers take one 32-bit
    # half of a 64-bit word each, low half first, as value = half >> 30; the
    # doubles take one word each, as (word >> 11) * 2**-53. nsc = 12 * n_rb is
    # even, so no half-word carries from one row to the next, and one
    # (rows, nsc/2 [+ nsc]) draw of raw words replays the same stream. This
    # relies on numpy's Generator internals; tests/test_waveform_synth.py pins
    # it against the per-symbol loop.
    thinned = cfg.data_occupancy < 1.0
    words = rng.integers(0, 2**64, (data_rows.size, nsc // 2 + nsc * thinned), dtype=np.uint64)
    # Top two bits of the low half, then of the high half.
    qpsk_index = (words[:, : nsc // 2, None] >> np.array([30, 62], dtype=np.uint64)) & np.uint64(3)
    data = _QPSK[qpsk_index.reshape(data_rows.size, nsc)]
    if thinned:
        uniform = (words[:, nsc // 2 :] >> np.uint64(11)).astype(np.float64) * 2.0**-53
        data = data * (uniform < cfg.data_occupancy)

    grid = np.zeros((rows.size, cfg.fft_size), dtype=np.complex128)
    grid[np.ix_(pss_rows, sync_bins)] = pss
    grid[np.ix_(sss_rows, sync_bins)] = sss
    grid[np.ix_(data_rows, data_bins)] = data
    # Reference signals overwrite the data of symbols 0 and 4.
    grid[np.ix_(rows[sym == 0], data_bins[rs_cols0])] = rs_vals0
    grid[np.ix_(rows[sym == 4], data_bins[rs_cols4])] = rs_vals4

    bodies = np.fft.ifft(grid, axis=1)

    # One slot's sample order over its symbol bodies: each symbol's cyclic
    # prefix (the last n_cp samples of its body), then the body itself.
    n = cfg.fft_size
    slot_index = np.concatenate(
        [k * n + np.r_[n - n_cp : n, 0:n] for k, n_cp in enumerate(cfg.cp_lengths)]
    )
    out = bodies.reshape(cfg.num_slots, -1)[:, slot_index].ravel()

    out = out / np.sqrt(np.mean(np.abs(out) ** 2))
    return IqBuffer(samples=out, sample_rate_hz=cfg.sample_rate_hz)


def synth_noise(m_r: int, power: float, seed: int, sample_rate_hz: float = 1.0) -> IqBuffer:
    """Circularly-symmetric complex white Gaussian samples of the given power."""
    if m_r < 1:
        raise ConfigurationError("m_r must be >= 1")
    if not 0 < power < np.inf:
        raise ConfigurationError(f"power must be finite and > 0, got {power}")
    # Factor the scale as sqrt(power) * unit-power noise so that changing only
    # `power` rescales the same draw exactly.
    unit = complex_normal(np.random.default_rng(seed), m_r, 1.0)
    return IqBuffer(samples=np.sqrt(power) * unit, sample_rate_hz=sample_rate_hz)
