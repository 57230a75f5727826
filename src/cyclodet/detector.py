"""Constant-false-alarm-rate identification of GSM/LTE from the CCF at tau=0.

For each candidate standard the magnitude of the cyclic correlation estimate
at that standard's fundamental cyclic frequency is compared against a
threshold derived from the requested false-alarm probability, one per record;
the profile with the largest statistic becomes the label if it crosses.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .ccf_estimator import _block_sums, _rotate, estimate_ccf
from .errors import ConfigurationError
from .iq_io import open_samples
from .signal_model import IqBuffer, Standard

THRESHOLD_MODES = ("calibrated", "empirical_null")

# Fixed seed for the empirical-null Monte Carlo so classify stays deterministic.
_NULL_SEED = 0x5EED_CA1B
# Null draws are CF-independent once the mean-power leakage is removed, so the
# empirical mode simulates at one canonical off-grid cyclic frequency.
_NULL_ALPHA_TS = 0.36787944117144233  # 1/e
# Samples per batch of noise-only records (at least one record per batch).
_NULL_BATCH_SAMPLES = 2**18


@dataclass(frozen=True)
class DetectorConfig:
    p_f: float
    threshold_mode: str = "calibrated"
    profiles: tuple[Standard, ...] = tuple(Standard)
    empirical_null_trials: int = 10_000

    def __post_init__(self) -> None:
        object.__setattr__(self, "profiles", tuple(Standard.parse(p) for p in self.profiles))
        if not 0.0 < self.p_f < 1.0:
            raise ConfigurationError(f"p_f must be in (0, 1), got {self.p_f}")
        if self.threshold_mode not in THRESHOLD_MODES:
            raise ConfigurationError(f"threshold_mode must be one of {THRESHOLD_MODES}")
        if not self.profiles:
            raise ConfigurationError("profiles must be nonempty")
        standards = [p.value for p in self.profiles]
        if len(set(standards)) < len(standards):
            raise ConfigurationError(f"profiles repeat a standard: {standards}")
        if self.empirical_null_trials < 1:
            raise ConfigurationError("empirical_null_trials must be >= 1")
        if self.threshold_mode == "empirical_null" and self.p_f * self.empirical_null_trials < 1:
            raise ConfigurationError(  # the quantile stops tracking p_f below one exceedance
                f"empirical_null with empirical_null_trials={self.empirical_null_trials} "
                f"needs p_f >= {1 / self.empirical_null_trials:g}, got p_f={self.p_f}"
            )

    def minimum_samples(self, sample_rate_hz: float) -> int:
        """Smallest record classify accepts: two slots of the slowest profile."""
        if not 0 < sample_rate_hz < np.inf:
            raise ConfigurationError(f"sample rate must be finite and > 0, got {sample_rate_hz}")
        longest = max(p.slot_duration_float for p in self.profiles)
        return int(np.ceil(2.0 * longest * sample_rate_hz))

    def check_record(self, sample_rate_hz: float, m_r: int) -> None:
        """Refuse a record of m_r samples at sample_rate_hz on which the
        threshold does not hold its false-alarm rate, before a sample is read.

        A record shorter than two slots of the slowest profile does not
        resolve its slot rate. A profile is refused when its slot rate alpha
        is less than one bin (f_s / M_r) below its image f_s - alpha,
        (f_s - 2 alpha) M_r < f_s, which covers every alpha at or above
        Nyquist: within one bin the image folds onto alpha and the noise-only
        statistic is no longer Rayleigh. ``classify``, ``SweepConfig`` and
        ``run_false_alarm`` all refuse through here, with one message per rule.
        """
        need = self.minimum_samples(sample_rate_hz)
        if m_r < need:
            raise ConfigurationError(
                f"m_r {m_r} is below the {need} samples classify needs: too short to "
                f"resolve the slot rate (two slots of the longest-slot profile at "
                f"{sample_rate_hz:g} Hz)"
            )
        for profile in self.profiles:
            alpha = profile.fundamental_cf_float
            if (sample_rate_hz - 2 * alpha) * m_r < sample_rate_hz:
                raise ConfigurationError(
                    f"sample rate {sample_rate_hz:g} Hz is not one bin "
                    f"({sample_rate_hz / m_r:g} Hz at {m_r} samples) above twice the "
                    f"{profile.value} slot rate {alpha:g} Hz"
                )


def estimate_variance(r: IqBuffer) -> float:
    """Mean received power (the variance under the zero-mean assumption), Ĉ(0, 0)."""
    return estimate_ccf(r, 0.0).value.real


def mean_power_leakage(alpha_hz: float, sample_rate_hz: float, m_r: int) -> complex:
    """Dirichlet kernel D(alpha) = (1/M) sum_m exp(-j 2 pi alpha m T_s).

    This is the response of the CCF estimator at alpha to a unit constant,
    i.e. the amount of the DC (mean-power) line that a finite record leaks
    into cyclic frequency alpha. It is exactly zero on DFT grid points.
    """
    theta = 2.0 * np.pi * alpha_hz / sample_rate_hz
    half = theta / 2.0
    denom = np.sin(half)
    if abs(denom) < 1e-300:
        return complex(1.0)
    return complex(
        np.exp(-1j * half * (m_r - 1)) * np.sin(m_r * half) / (m_r * denom)
    )


def null_statistics(
    rng: np.random.Generator, n: int, m_r: int, alpha_ts: float, noise_power: float
) -> tuple[np.ndarray, np.ndarray]:
    """Statistic at alpha_ts = alpha * T_s and mean power of each of n noise-only
    records of length m_r.

    Under H0 |r(m)|^2 is exactly noise_power * Exp(1), so the records are drawn
    as unit exponentials p(m) and both outputs are scaled by noise_power at the
    end. A batch of records is the rows of one exponential draw into one reused
    buffer, filled in order, so the records do not depend on the batch size.
    Each row's statistic is |Ĉ(alpha, 0) - mean(p) D(alpha_ts)|: its CCF, from
    the block sums that ``estimate_ccf`` takes, less the mean-power leakage,
    the statistic ``classify`` computes for a record."""
    leak = mean_power_leakage(alpha_ts, 1.0, m_r)
    alphas_ts = (alpha_ts,)
    rows = min(n, max(1, _NULL_BATCH_SAMPLES // m_r))
    draws = np.empty((rows, m_r))
    stats, powers = np.empty(n), np.empty(n)
    for start in range(0, n, rows):
        power = rng.standard_exponential(out=draws[: min(rows, n - start)])
        batch = slice(start, start + power.shape[0])
        powers[batch] = power.mean(axis=1)
        sums = _rotate(_block_sums(power, alphas_ts), alphas_ts)[:, 0]
        stats[batch] = np.abs(sums / m_r - powers[batch] * leak)
    return stats * noise_power, powers * noise_power


@lru_cache(maxsize=32)
def _unit_null_quantile(p_f: float, m_r: int, trials: int) -> float:
    """(1 - p_f) quantile of the detection statistic on unit-power noise."""
    stats, _ = null_statistics(np.random.default_rng(_NULL_SEED), trials, m_r, _NULL_ALPHA_TS, 1.0)
    return float(np.quantile(stats, 1.0 - p_f))


def threshold(cfg: DetectorConfig, sigma_r_sq: float, m_r: int) -> float:
    """Detection threshold for the configured false-alarm probability.

    Every mode returns sigma_r_sq times a unit-power threshold: the
    noise-only statistic is exactly proportional to the received power.

    calibrated (default): Gamma = sigma_r_sq * sqrt(-ln(p_f) / m_r), from the
    asymptotic Rayleigh law of the noise-only statistic whose real/imag parts
    each have variance sigma_r_sq**2 / (2 m_r). This closed form holds the
    false-alarm rate across record lengths.

    empirical_null: the (1 - p_f) quantile of the statistic over
    ``empirical_null_trials`` unit-power noise-only draws of length m_r.
    """
    if not 0 < sigma_r_sq < np.inf:
        raise ConfigurationError(f"sigma_r_sq must be finite and > 0, got {sigma_r_sq}")
    if m_r < 1:
        raise ConfigurationError(f"m_r must be >= 1, got {m_r}")
    if cfg.threshold_mode == "calibrated":
        unit = float(np.sqrt(-np.log(cfg.p_f) / m_r))
    else:
        unit = _unit_null_quantile(cfg.p_f, m_r, cfg.empirical_null_trials)
    return float(sigma_r_sq * unit)


@dataclass(frozen=True)
class ProfileDecision:
    standard: Standard
    statistic: float
    detected: bool


@dataclass(frozen=True)
class DecisionReport:
    decisions: tuple[ProfileDecision, ...]
    label: Optional[Standard]
    threshold: float
    sigma_r_sq: float
    m_r: int

    @property
    def label_name(self) -> str:
        return self.label.value if self.label is not None else "unknown"

    def decision_for(self, standard: "str | Standard") -> ProfileDecision:
        std = Standard.parse(standard)
        for d in self.decisions:
            if d.standard is std:
                return d
        raise KeyError(f"no decision for {std}")

    def to_csv(self) -> str:
        lines = ["profile,statistic,threshold,detected,label"]
        for d in self.decisions:
            lines.append(
                f"{d.standard.value},{d.statistic:.12g},{self.threshold:.12g},"
                f"{str(d.detected).lower()},{self.label_name}"
            )
        return "\n".join(lines) + "\n"

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "label": self.label_name,
                "sigma_r_sq": self.sigma_r_sq,
                "m_r": self.m_r,
                "profiles": [
                    {
                        "profile": d.standard.value,
                        "statistic": d.statistic,
                        "threshold": self.threshold,
                        "detected": d.detected,
                    }
                    for d in self.decisions
                ],
            }
        )


def classify(r: "IqBuffer | str | os.PathLike", cfg: DetectorConfig) -> DecisionReport:
    """Test every configured profile's fundamental CF and label the record.

    ``r`` is a buffer or the path of a cf32le capture, opened once by
    ``open_samples``, so a capture's sidecar is parsed once, and checked by
    ``cfg.check_record`` before a sample is read. One ``estimate_ccf`` call
    gives sigma_r^2 = Ĉ(0, 0) and every profile's Ĉ(alpha, 0), so a capture
    file is read once, in memory that does not grow with its length. |r|^2
    is I^2 + Q^2 in float64 for every record, so a buffer and its saved
    capture give the same bits.
    Every profile shares one threshold, so the label goes to the profile
    with the largest statistic if that profile crosses it (the first listed
    on a tie), and stays unknown otherwise.
    Deterministic for fixed inputs; the empirical-null mode runs its Monte
    Carlo from a fixed internal seed.
    """
    samples = open_samples(r)
    rate, m_r = samples.sample_rate_hz, samples.m_r
    cfg.check_record(rate, m_r)
    alphas = [p.fundamental_cf_float for p in cfg.profiles]
    est = estimate_ccf(samples, [0.0, *alphas])
    sigma_r_sq = float(est.value[0].real)
    gamma = threshold(cfg, sigma_r_sq, m_r)
    decisions = []
    for profile, alpha, value in zip(cfg.profiles, alphas, est.value[1:]):
        # Removing the power's leakage keeps the noise-only statistic Rayleigh
        # at any (alpha, sample rate), which the CFAR threshold relies on.
        leak = sigma_r_sq * mean_power_leakage(alpha, rate, m_r)
        stat = abs(complex(value) - leak)
        decisions.append(ProfileDecision(profile, stat, detected=stat > gamma))
    best = max(decisions, key=lambda d: d.statistic)
    return DecisionReport(
        decisions=tuple(decisions),
        label=best.standard if best.detected else None,
        threshold=gamma,
        sigma_r_sq=sigma_r_sq,
        m_r=m_r,
    )
