"""Baseband GSM and LTE downlink waveform generators.

Both generators produce the slot-periodic pilot structure that the detector
exploits: the fixed 26-bit training midamble repeated in every GSM slot, and
the fixed cell-specific reference signals plus the PSS/SSS pair in the LTE
grid. Outputs are normalized to unit mean power so SNR settings downstream
are unambiguous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channel_sim import complex_normal
from .errors import ConfigurationError
from .parallel import locked_cache
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


def _slot_gate(cfg: GsmSynthConfig) -> np.ndarray:
    """``_gate_envelope`` at every sample time of the burst train.

    With a power-of-two oversample, n / oversample is exact, so the gate
    repeats bit for bit after each whole number of samples that spans whole
    slots; one such period is evaluated and tiled. Any other oversample rounds
    n / oversample, and the gate is evaluated at every sample.
    """
    m = cfg.total_samples
    oversample = cfg.oversample
    power_of_two = oversample & (oversample - 1) == 0
    period = (GSM_SLOT_SYMBOLS * oversample).numerator if power_of_two else m
    t_symbols = np.arange(period, dtype=np.float64) / oversample
    return np.tile(_gate_envelope(t_symbols % float(GSM_SLOT_SYMBOLS)), m // period)


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

    # Sample n carries the last bit starting at or before n / oversample:
    # bit k first holds at sample ceil(starts[k] * oversample). A bit that
    # starts less than one sample before the next one holds at no sample.
    m = cfg.total_samples
    first = np.ceil(starts * cfg.oversample).astype(np.int64)
    drive = np.repeat(nrz, np.diff(first, append=m))

    kernel = _gaussian_kernel(cfg.oversample)
    phase = np.convolve(drive, kernel, mode="same")
    np.cumsum(phase, out=phase)
    phase *= np.pi / (2.0 * cfg.oversample)
    # cos/sin into the real and imaginary parts: bit-equal to exp(1j * phase).
    x = np.empty(m, dtype=np.complex128)
    np.cos(phase, out=x.real)
    np.sin(phase, out=x.imag)

    if cfg.guard_mode == "gated":
        x *= _slot_gate(cfg)
    return IqBuffer(samples=_to_unit_power(x), sample_rate_hz=cfg.sample_rate_hz)


def _to_unit_power(x: np.ndarray) -> np.ndarray:
    """x divided in place by its RMS. |x|^2 is formed in one float buffer,
    squared in place: the same bits as ``np.abs(x) ** 2``, in half the memory."""
    power = np.abs(x)
    x /= np.sqrt(np.mean(np.square(power, out=power)))
    return x


LTE_SUBCARRIER_SPACING_HZ = 15000
LTE_SYMBOLS_PER_SLOT = 7
LTE_SLOTS_PER_FRAME = 20
_PSS_ROOT = 25
_QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j], dtype=np.complex128) / np.sqrt(2.0)
# Index q | empty << 2: a kept resource element is the QPSK value itself, an
# emptied one that value times False, with that product's signed zeros.
_QPSK_OR_EMPTY = np.concatenate([_QPSK, _QPSK * False])


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


def _cell_constants(n_rb: int, rs_power_boost_db: float, cell_seed: int):
    """Per-cell fixed quantities: RS placement/values and the SSS sequence."""
    crng = np.random.default_rng(cell_seed)
    nsc = 12 * n_rb
    v0 = int(crng.integers(0, 6))
    rs_cols_sym0 = np.arange(v0, nsc, 6)
    rs_cols_sym4 = np.arange((v0 + 3) % 6, nsc, 6)
    boost = 10.0 ** (rs_power_boost_db / 20.0)
    rs_sym0 = _QPSK[crng.integers(0, 4, rs_cols_sym0.size)] * boost
    rs_sym4 = _QPSK[crng.integers(0, 4, rs_cols_sym4.size)] * boost
    sss = (crng.integers(0, 2, 62).astype(np.float64) * 2.0 - 1.0).astype(np.complex128)
    return rs_cols_sym0, rs_sym0, rs_cols_sym4, rs_sym4, sss


@locked_cache(maxsize=8)
def _lte_layout(
    num_slots: int, n_rb: int, fft_size: int, rs_power_boost_db: float, cell_seed: int
):
    """The grid layout of one cell over num_slots slots, as read-only arrays:
    the rows that carry data, the used subcarriers, and the flat grid positions
    and values of the PSS, SSS and reference signals.

    It depends on the cell fields and the slot count only, so every trial of
    a sweep shares it; the data draw is the only per-call part of a grid.
    """
    nsc = 12 * n_rb
    half = nsc // 2
    # Used subcarriers straddle DC, which itself stays empty.
    data_bins = np.concatenate([np.arange(-half, 0), np.arange(1, half + 1)]) % fft_size
    sync_bins = np.concatenate([np.arange(-31, 0), np.arange(1, 32)]) % fft_size
    rs_cols0, rs_vals0, rs_cols4, rs_vals4, sss = _cell_constants(
        n_rb, rs_power_boost_db, cell_seed
    )

    rows = np.arange(num_slots * LTE_SYMBOLS_PER_SLOT)
    sym = rows % LTE_SYMBOLS_PER_SLOT
    sync_slot = np.isin(rows // LTE_SYMBOLS_PER_SLOT % LTE_SLOTS_PER_FRAME, (0, 10))
    # PSS and SSS rows carry no data; the reference signals overwrite the
    # data of symbols 0 and 4, so they are written after it.
    placed = (
        (rows[sync_slot & (sym == 6)], sync_bins, _pss_sequence()),
        (rows[sync_slot & (sym == 5)], sync_bins, sss),
        (rows[sym == 0], data_bins[rs_cols0], rs_vals0),
        (rows[sym == 4], data_bins[rs_cols4], rs_vals4),
    )
    fixed = np.concatenate([(r[:, None] * fft_size + b).ravel() for r, b, _ in placed])
    values = np.concatenate([np.tile(v, r.size) for r, _, v in placed])
    layout = (rows[~(sync_slot & (sym >= 5))], data_bins, fixed, values)
    for array in layout:
        array.flags.writeable = False
    return layout


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
    data_rows, data_bins, fixed, fixed_values = _lte_layout(
        cfg.num_slots, cfg.n_rb, cfg.fft_size, cfg.rs_power_boost_db, cfg.cell_seed
    )

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
    # Little-endian words read as 32-bit halves put each low half first.
    qpsk_index = words[:, : nsc // 2].astype("<u8", copy=False).view("<u4") >> 30
    if thinned:
        # (word >> 11) * 2**-53 >= occupancy, in exact integer form: scaling
        # by 2**53 and the shift by 11 lose nothing.
        first_empty = np.uint64(math.ceil(cfg.data_occupancy * 2.0**53) << 11)
        qpsk_index |= (words[:, nsc // 2 :] >= first_empty).view(np.uint8) << 2
    # The draw goes before the grid is allocated, and the grid before the
    # output is normalised: no two full-size arrays are held beside a third.
    data = _QPSK_OR_EMPTY[qpsk_index]
    del words, qpsk_index

    grid = np.zeros((cfg.num_slots * LTE_SYMBOLS_PER_SLOT, cfg.fft_size), dtype=np.complex128)
    grid[data_rows[:, None], data_bins] = data
    del data
    grid.reshape(-1)[fixed] = fixed_values

    bodies = np.fft.ifft(grid, axis=1, out=grid)

    # Each slot's symbols in turn: the cyclic prefix (the last n_cp samples
    # of the body), then the body itself.
    n = cfg.fft_size
    bodies = bodies.reshape(cfg.num_slots, LTE_SYMBOLS_PER_SLOT, n)
    out = np.empty((cfg.num_slots, cfg.samples_per_slot), dtype=np.complex128)
    start = 0
    for k, n_cp in enumerate(cfg.cp_lengths):
        out[:, start : start + n_cp] = bodies[:, k, n - n_cp :]
        out[:, start + n_cp : start + n_cp + n] = bodies[:, k]
        start += n_cp + n
    del grid, bodies
    return IqBuffer(samples=_to_unit_power(out.ravel()), sample_rate_hz=cfg.sample_rate_hz)


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
