"""Constant-false-alarm-rate identification of GSM/LTE from the CCF at tau=0.

For each candidate standard the magnitude of the cyclic correlation estimate
at that standard's fundamental cyclic frequency is compared against a
threshold derived from the requested false-alarm probability, one per record;
the profile with the largest statistic becomes the label if it crosses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .ccf_estimator import estimate_ccf, unit_phasors
from .errors import ConfigurationError
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


def estimate_variance(r: IqBuffer) -> float:
    """Mean received power (the variance under the zero-mean assumption)."""
    return float(np.mean(np.abs(r.samples) ** 2))


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


def detection_statistic(
    r: IqBuffer, alpha_hz: float, sigma_r_sq: Optional[float] = None
) -> float:
    """|C_hat(alpha, 0)| with the mean-power leakage removed.

    The received power leaks sigma^2 * D(alpha) into the estimate on finite
    records; subtracting it keeps the noise-only statistic Rayleigh at any
    (alpha, sample rate) combination, which the constant-false-alarm
    thresholds rely on.
    """
    if sigma_r_sq is None:
        sigma_r_sq = estimate_variance(r)
    est = estimate_ccf(r, alpha_hz, 0)
    leak = sigma_r_sq * mean_power_leakage(alpha_hz, r.sample_rate_hz, r.m_r)
    return abs(est.value - leak)


def centered_power_statistic(power: np.ndarray, phasors: np.ndarray) -> np.ndarray:
    """|sum_m (p(m) - mean p) phasors(m)| / M for a record p or each row of a batch.

    With p = |r|^2 and phasors = exp(-j 2 pi alpha m T_s) this equals
    ``detection_statistic``: C_hat(alpha, 0) - sigma^2 D(alpha) is exactly the
    transform of the mean-removed power. p is real, so the transform is one
    real product with the phasors' (M, 2) real/imaginary view.
    """
    centered = power - power.mean(axis=-1, keepdims=True)
    parts = phasors.view(np.float64).reshape(-1, 2)
    re, im = parts.T @ centered.T
    return np.hypot(re, im) / power.shape[-1]


def null_statistics(
    rng: np.random.Generator, n: int, m_r: int, alpha_ts: float, noise_power: float
) -> tuple[np.ndarray, np.ndarray]:
    """Statistic at alpha_ts = alpha * T_s and mean power of each of n noise-only
    records of length m_r. Under H0 |r(m)|^2 is exactly noise_power * Exp(1), so
    a batch of records is the rows of one exponential draw, filled in order (the
    records do not depend on the batch size); both outputs are linear in p."""
    phasors = unit_phasors(alpha_ts, m_r)
    rows = max(1, _NULL_BATCH_SAMPLES // m_r)
    stats, powers = np.empty(n), np.empty(n)
    for start in range(0, n, rows):
        power = rng.standard_exponential((min(rows, n - start), m_r))
        batch = slice(start, start + power.shape[0])
        stats[batch] = centered_power_statistic(power, phasors)
        powers[batch] = power.mean(axis=1)
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


def minimum_samples(cfg: DetectorConfig, sample_rate_hz: float) -> int:
    """Smallest buffer classify accepts: two slots of the slowest profile."""
    longest = max(p.slot_duration_float for p in cfg.profiles)
    return int(np.ceil(2.0 * longest * sample_rate_hz))


def classify(r: IqBuffer, cfg: DetectorConfig) -> DecisionReport:
    """Test every configured profile's fundamental CF and label the buffer.

    Every profile shares one threshold, so the label goes to the profile
    with the largest statistic if that profile crosses it (the first listed
    on a tie), and stays unknown otherwise.
    Deterministic for fixed inputs; the empirical-null mode runs its Monte
    Carlo from a fixed internal seed.
    """
    for profile in cfg.profiles:
        if r.sample_rate_hz <= 2 * profile.fundamental_cf_float:
            raise ValueError(
                f"sample rate {r.sample_rate_hz:g} Hz is at or below twice the "
                f"{profile.value} slot rate {profile.fundamental_cf_float:g} Hz"
            )
    need = minimum_samples(cfg, r.sample_rate_hz)
    if r.m_r < need:
        raise ValueError(
            f"buffer too short to resolve the slot rate: got {r.m_r} samples, "
            f"need at least {need} (two slots of the longest-slot profile at "
            f"{r.sample_rate_hz:g} Hz)"
        )
    sigma_r_sq = estimate_variance(r)
    gamma = threshold(cfg, sigma_r_sq, r.m_r)
    decisions = []
    for profile in cfg.profiles:
        stat = detection_statistic(r, profile.fundamental_cf_float, sigma_r_sq)
        decisions.append(ProfileDecision(profile, stat, detected=stat > gamma))
    best = max(decisions, key=lambda d: d.statistic)
    return DecisionReport(
        decisions=tuple(decisions),
        label=best.standard if best.detected else None,
        threshold=gamma,
        sigma_r_sq=sigma_r_sq,
        m_r=r.m_r,
    )
