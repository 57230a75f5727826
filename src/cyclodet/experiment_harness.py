"""Monte Carlo harness: detection-probability sweeps over SNR, observation
time, and false-alarm target, plus false-alarm validation runs and CSV data
for the standard set of result figures."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .ccf_estimator import ccf_spectrum, spectrum_to_csv
from .channel_sim import ChannelConfig, apply_channel
from .detector import DetectorConfig, classify, null_statistics, threshold
from .errors import ConfigurationError
from .parallel import cpu_count as _cpu_count, run_jobs
from .signal_model import IqBuffer, Standard
from .waveform_synth import GsmSynthConfig, LteSynthConfig, synth_gsm, synth_lte

# Waveform variants used for over-the-air-style trials: GSM carriers that gate
# their power down during the guard period, and a lightly loaded LTE cell.
# Both put a strong slot-rate envelope on the signal, which dominates the
# detectable feature in practice; the continuous-guard / fully-loaded variants
# remain available through the synth configs directly.
REFERENCE_GSM_GUARD_MODE = "gated"
REFERENCE_LTE_DATA_OCCUPANCY = 0.1
# Every trial's channel; each trial sets its own SNR, timing offset and seed.
REFERENCE_CHANNEL = ChannelConfig(snr_db=0.0, num_taps=4, pdp_decay=5.0)


def _reference_config(standard: "str | Standard", num_slots: int = 1, seed: int = 0):
    """The trial waveform's synth config (oversample 4 / fft 128 defaults)."""
    if Standard.parse(standard) is Standard.GSM:
        return GsmSynthConfig(num_slots=num_slots, seed=seed, guard_mode=REFERENCE_GSM_GUARD_MODE)
    return LteSynthConfig(
        num_slots=num_slots, seed=seed, data_occupancy=REFERENCE_LTE_DATA_OCCUPANCY
    )


def default_sample_rate(standard: "str | Standard") -> float:
    """Each standard's trial sample rate."""
    return _reference_config(standard).sample_rate_hz


def slot_samples(standard: "str | Standard") -> int:
    return int(_reference_config(standard).samples_per_slot)


def reference_waveform(standard: "str | Standard", num_slots: int, seed: int) -> IqBuffer:
    """Default trial waveform: gated-guard GSM or 10%-occupancy LTE."""
    cfg = _reference_config(standard, num_slots, seed)
    return synth_gsm(cfg) if isinstance(cfg, GsmSynthConfig) else synth_lte(cfg)


@dataclass(frozen=True)
class SweepConfig:
    """A detection sweep of one standard over P_F, observation time and SNR.
    Each time's record, round(t f_s) samples at the trial sample rate, must
    pass ``DetectorConfig.check_record``, so no accepted sweep fails in a trial."""

    standard: Standard
    snr_db_list: tuple[float, ...]
    observation_times_s: tuple[float, ...]
    p_f_list: tuple[float, ...] = (1e-2,)
    n_trials: int = 1000
    master_seed: int = 0

    def __post_init__(self) -> None:
        # Trials compare the label with the enum by identity.
        object.__setattr__(self, "standard", Standard.parse(self.standard))
        if self.n_trials < 1:
            raise ConfigurationError("n_trials must be >= 1")
        if not self.snr_db_list or not self.observation_times_s or not self.p_f_list:
            raise ConfigurationError("sweep lists must be nonempty")
        # Build each trial channel and detector config once, so a bad SNR or
        # P_F anywhere in the lists fails before any trial runs.
        for snr_db in self.snr_db_list:
            replace(REFERENCE_CHANNEL, snr_db=snr_db)
        det_cfgs = [DetectorConfig(p_f) for p_f in self.p_f_list]
        fs = default_sample_rate(self.standard)
        for t in self.observation_times_s:
            if not np.isfinite(t):
                raise ConfigurationError(f"observation time must be finite, got {t} s")
            det_cfgs[0].check_record(fs, round(t * fs))

    @property
    def csv_columns(self) -> tuple[str, ...]:
        """The sweep's CSV layout: Pd vs SNR per observation time for one P_F
        (fig7/fig8), Pd per P_F and standard for one time (fig9), else the
        full record, the only layout whose rows stay distinct."""
        if len(self.p_f_list) == 1:
            return ("snr_db", "obs_time_ms", "pd", "n_trials")
        if len(self.observation_times_s) == 1:
            return ("snr_db", "p_f", "standard", "pd", "n_trials")
        return SWEEP_CSV_COLUMNS


@dataclass(frozen=True)
class SweepCell:
    standard: Standard
    snr_db: float
    obs_time_s: float
    p_f: float
    pd: float
    n_trials: int


# One formatter per sweep CSV column; a layout is a tuple of column names.
_SWEEP_COLUMNS = {
    "standard": lambda c: c.standard.value,
    "snr_db": lambda c: f"{c.snr_db:g}",
    "obs_time_ms": lambda c: f"{c.obs_time_s * 1e3:g}",
    "p_f": lambda c: f"{c.p_f:g}",
    "pd": lambda c: f"{c.pd:.6g}",
    "n_trials": lambda c: str(c.n_trials),
}
SWEEP_CSV_COLUMNS = tuple(_SWEEP_COLUMNS)


@dataclass(frozen=True)
class SweepResult:
    cells: tuple[SweepCell, ...]

    def cell(self, snr_db: float, obs_time_s: float, p_f: float) -> SweepCell:
        for c in self.cells:
            # Relative tolerance only: P_F targets can sit far below any absolute one.
            if all(
                math.isclose(a, b, rel_tol=1e-9)
                for a, b in ((c.snr_db, snr_db), (c.obs_time_s, obs_time_s), (c.p_f, p_f))
            ):
                return c
        raise KeyError(f"no cell ({snr_db}, {obs_time_s}, {p_f})")

    def to_csv(self, columns: Sequence[str] = SWEEP_CSV_COLUMNS) -> str:
        """The cells as CSV text (LF line ends) with the given columns."""
        lines = [",".join(columns)]
        lines += [",".join(_SWEEP_COLUMNS[name](c) for name in columns) for c in self.cells]
        return "\n".join(lines) + "\n"

    def write_csv(self, path, columns: Sequence[str] = SWEEP_CSV_COLUMNS) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(self.to_csv(columns))


def _trial_seeds(*key: int) -> tuple[int, int]:
    """Waveform and channel seeds: two 63-bit words of SeedSequence(key)."""
    words = np.random.SeedSequence(key).generate_state(4, np.uint64)
    return int(words[0] >> 1), int(words[1] >> 1)


def run_single_trial(
    standard: Standard,
    snr_db: float,
    m_r: int,
    detector_cfg: DetectorConfig,
    wf_seed: int,
    ch_seed: int,
) -> bool:
    """One independent trial: fresh bits, taps, offset, noise; True if the
    classifier labels the window with the transmitted standard."""
    n_slot = slot_samples(standard)
    num_slots = int(np.ceil(m_r / n_slot)) + 1
    ch = replace(REFERENCE_CHANNEL, snr_db=snr_db, timing_offset_slot_samples=n_slot, seed=ch_seed)
    # Nothing here holds the waveform, so apply_channel frees it after its FIR.
    y = apply_channel(reference_waveform(standard, num_slots, wf_seed), ch)
    # Skip one slot so the analysis window is fully inside the delayed signal;
    # the slot phase at the window start stays uniform.
    window = IqBuffer(
        samples=y.samples[n_slot : n_slot + m_r], sample_rate_hz=y.sample_rate_hz
    )
    report = classify(window, detector_cfg)
    return report.label is standard


def run_detection_sweep(cfg: SweepConfig) -> SweepResult:
    """Empirical P(label = standard | standard) over the sweep grid.

    Per-trial RNG streams derive from (master_seed, cell index, trial index)
    only, so results are reproducible and independent of execution order.
    The trials are shared among one thread per CPU the process may run on
    by ``run_jobs``, longest records first, and their outcomes are summed
    per cell here. So the cells do not depend on the CPU count, and one
    trial per thread is in memory at a time. A failed trial stops every
    thread after the trial in its hands.
    """
    fs = default_sample_rate(cfg.standard)
    grid = [
        (detector, obs_t, snr_db)
        for detector in [DetectorConfig(p_f=p_f) for p_f in cfg.p_f_list]
        for obs_t in cfg.observation_times_s
        for snr_db in cfg.snr_db_list
    ]
    m_rs = [int(round(obs_t * fs)) for _, obs_t, _ in grid]
    # The longest records first, so no long trial is left to run alone at the end.
    jobs = sorted(
        ((cell, trial) for cell in range(len(grid)) for trial in range(cfg.n_trials)),
        key=lambda job: m_rs[job[0]],
        reverse=True,
    )

    def run(cell: int, trial: int) -> bool:
        detector, _, snr_db = grid[cell]
        wf_seed, ch_seed = _trial_seeds(cfg.master_seed, cell, trial)
        return run_single_trial(cfg.standard, snr_db, m_rs[cell], detector, wf_seed, ch_seed)

    hits = [0] * len(grid)
    for (cell, _), hit in zip(jobs, run_jobs(run, jobs, [()] * min(_cpu_count(), len(jobs)))):
        hits[cell] += hit
    return SweepResult(
        cells=tuple(
            SweepCell(
                standard=cfg.standard,
                snr_db=snr_db,
                obs_time_s=obs_t,
                p_f=detector.p_f,
                pd=hits[cell] / cfg.n_trials,
                n_trials=cfg.n_trials,
            )
            for cell, (detector, obs_t, snr_db) in enumerate(grid)
        )
    )


def run_false_alarm(
    noise_power: float,
    m_r: int,
    p_f: float,
    n_trials: int,
    profile: "str | Standard" = Standard.GSM,
    master_seed: int = 0,
) -> float:
    """Fraction of noise-only trials a given profile's test declares detected.

    Runs ``null_statistics`` at the profile's slot rate and trial sample rate;
    each trial scales the closed-form unit-power threshold by its own
    sigma_r^2. m_r must be a record classify accepts for the profile alone
    at its trial sample rate (``DetectorConfig.check_record``).
    """
    if not 0 < noise_power < np.inf:
        raise ConfigurationError(f"noise_power must be finite and > 0, got {noise_power}")
    if n_trials < 1:
        raise ConfigurationError(f"n_trials must be >= 1, got {n_trials}")
    profile = Standard.parse(profile)
    det_cfg = DetectorConfig(p_f=p_f, profiles=(profile,))
    fs = default_sample_rate(profile)
    det_cfg.check_record(fs, m_r)
    unit = threshold(det_cfg, 1.0, m_r)
    alpha_ts = profile.fundamental_cf_float / fs
    rng = np.random.default_rng(np.random.SeedSequence((master_seed, 0xFA)))
    stats, powers = null_statistics(rng, n_trials, m_r, alpha_ts, noise_power)
    return int(np.count_nonzero(stats > powers * unit)) / n_trials


_SPECTRUM_SLOTS = 1000
_SPECTRUM_SNR_DB = 20.0
_SPECTRUM_MAX_ALPHA_HZ = 20_000.0
_SWEEP_SNR_GRID = tuple(np.arange(-15.0, 10.1, 2.5))

# Figure presets. A spectrum figure names its standard; a sweep figure names
# (standards, observation times in s, P_F targets).
_SPECTRUM_FIGURES = {"fig3": Standard.GSM, "fig4": Standard.LTE}
_SWEEP_FIGURES = {
    "fig7": ((Standard.GSM,), (0.010, 0.050), (1e-2,)),
    "fig8": ((Standard.LTE,), (0.010, 0.050), (1e-2,)),
    "fig9": ((Standard.GSM, Standard.LTE), (0.010,), (1e-1, 1e-2, 1e-3)),
}
FIGURES = tuple(_SPECTRUM_FIGURES) + tuple(_SWEEP_FIGURES)


def _spectrum_figure(standard: Standard, master_seed: int):
    wf_seed, ch_seed = _trial_seeds(master_seed, 3 if standard is Standard.GSM else 4)
    x = reference_waveform(standard, _SPECTRUM_SLOTS, wf_seed)
    ch = replace(REFERENCE_CHANNEL, snr_db=_SPECTRUM_SNR_DB, seed=ch_seed)
    y = apply_channel(x, ch)
    return ccf_spectrum(y, tau_samples=0, max_alpha_hz=_SPECTRUM_MAX_ALPHA_HZ)


def emit_figure_data(
    which: str,
    out_path,
    n_trials: int = SweepConfig.n_trials,
    master_seed: int = SweepConfig.master_seed,
    snr_db_list: Optional[Sequence[float]] = None,
) -> None:
    """Write the CSV behind one of the bundled result figures.

    fig3/fig4: CCF magnitude vs cyclic frequency for a 1000-slot GSM / LTE
    signal through the 4-tap exponential-PDP channel at 20 dB SNR
    (``alpha_hz,magnitude``). fig7/fig8: detection probability vs SNR for
    10 and 50 ms observations at P_F = 1e-2
    (``snr_db,obs_time_ms,pd,n_trials``). fig9: both standards at 10 ms for
    P_F in {1e-1, 1e-2, 1e-3} (``snr_db,p_f,standard,pd,n_trials``).
    """
    if which in _SPECTRUM_FIGURES:
        spectrum_to_csv(_spectrum_figure(_SPECTRUM_FIGURES[which], master_seed), out_path)
        return
    if which not in _SWEEP_FIGURES:
        raise ConfigurationError(f"unknown figure {which!r}; expected one of {FIGURES}")
    standards, obs_times, p_fs = _SWEEP_FIGURES[which]
    snrs = tuple(snr_db_list) if snr_db_list is not None else _SWEEP_SNR_GRID
    cells = ()
    for standard in standards:
        cfg = SweepConfig(standard, snrs, obs_times, p_fs, n_trials, master_seed)
        cells += run_detection_sweep(cfg).cells
    SweepResult(cells=cells).write_csv(out_path, cfg.csv_columns)
