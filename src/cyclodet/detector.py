"""Constant-false-alarm-rate identification of GSM/LTE from the CCF at tau=0.

For each candidate standard the magnitude of the cyclic correlation estimate
at that standard's fundamental cyclic frequency is compared against a
threshold derived from the requested false-alarm probability; the winning
detection (largest statistic/threshold ratio) becomes the label.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .ccf_estimator import estimate_ccf, unit_phasors
from .errors import ConfigurationError
from .signal_model import (
    GSM_PROFILE,
    LTE_PROFILE,
    IqBuffer,
    Standard,
    StandardProfile,
)

THRESHOLD_MODES = ("uncalibrated", "calibrated", "empirical_null")

# Fixed seed for the empirical-null Monte Carlo so classify stays deterministic.
_NULL_SEED = 0x5EED_CA1B
# Null draws are CF-independent once the mean-power leakage is removed, so the
# empirical mode simulates at one canonical off-grid cyclic frequency.
_NULL_ALPHA_TS = 0.36787944117144233  # 1/e


@dataclass(frozen=True)
class DetectorConfig:
    p_f: float
    threshold_mode: str = "calibrated"
    profiles: tuple[StandardProfile, ...] = (GSM_PROFILE, LTE_PROFILE)
    empirical_null_trials: int = 10_000

    def __post_init__(self) -> None:
        if not 0.0 < self.p_f < 1.0:
            raise ConfigurationError(f"p_f must be in (0, 1), got {self.p_f}")
        if self.threshold_mode not in THRESHOLD_MODES:
            raise ConfigurationError(f"threshold_mode must be one of {THRESHOLD_MODES}")
        if not self.profiles:
            raise ConfigurationError("profiles must be nonempty")
        if self.empirical_null_trials < 1:
            raise ConfigurationError("empirical_null_trials must be >= 1")


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
    """|sum_m (p(m) - mean p) phasors(m)| / M over the last axis of ``power``.

    With p = |r|^2 and phasors = exp(-j 2 pi alpha m T_s) this equals
    ``detection_statistic``: C_hat(alpha, 0) - sigma^2 D(alpha) is exactly the
    transform of the mean-removed power. The noise-only runs use this form,
    one row of ``power`` per draw.
    """
    centered = power - power.mean(axis=-1, keepdims=True)
    return np.abs(centered @ phasors) / power.shape[-1]


@lru_cache(maxsize=32)
def _unit_null_quantile(p_f: float, m_r: int, trials: int) -> float:
    """(1 - p_f) quantile of the detection statistic on unit-power noise."""
    rng = np.random.default_rng(_NULL_SEED)
    phasors = unit_phasors(_NULL_ALPHA_TS, m_r)
    values = np.empty(trials)
    chunk = max(1, int(2_000_000 // m_r))
    done = 0
    while done < trials:
        n = min(chunk, trials - done)
        noise = np.sqrt(0.5) * (
            rng.standard_normal((n, m_r)) + 1j * rng.standard_normal((n, m_r))
        )
        values[done : done + n] = centered_power_statistic(np.abs(noise) ** 2, phasors)
        done += n
    return float(np.quantile(values, 1.0 - p_f))


def threshold(cfg: DetectorConfig, sigma_r_sq: float, m_r: int) -> float:
    """Detection threshold for the configured false-alarm probability.

    calibrated (default): Gamma = sigma_r_sq * sqrt(-ln(p_f) / m_r), from the
    asymptotic Rayleigh law of the noise-only statistic whose real/imag parts
    each have variance sigma_r_sq**2 / (2 m_r). This is the only closed form
    that holds the false-alarm rate across record lengths.

    uncalibrated: Gamma = sqrt(-sigma_r_sq * ln p_f), the direct inversion of
    P_F = exp(-Gamma^2 / sigma_r^2) on the received-power estimate. Kept for
    comparison; it has no m_r dependence and is not CFAR across record
    lengths.

    empirical_null: the (1 - p_f) quantile of the statistic over
    ``empirical_null_trials`` noise-only draws of length m_r, scaled by
    sigma_r_sq (the null statistic is exactly proportional to power).
    """
    if not 0 < sigma_r_sq < np.inf:
        raise ConfigurationError(f"sigma_r_sq must be finite and > 0, got {sigma_r_sq}")
    if m_r < 1:
        raise ConfigurationError(f"m_r must be >= 1, got {m_r}")
    if cfg.threshold_mode == "uncalibrated":
        return float(np.sqrt(-sigma_r_sq * np.log(cfg.p_f)))
    if cfg.threshold_mode == "calibrated":
        return float(sigma_r_sq * np.sqrt(-np.log(cfg.p_f) / m_r))
    return sigma_r_sq * _unit_null_quantile(cfg.p_f, m_r, cfg.empirical_null_trials)


@dataclass(frozen=True)
class ProfileDecision:
    standard: Standard
    statistic: float
    threshold: float
    detected: bool

    @property
    def ratio(self) -> float:
        return self.statistic / self.threshold


@dataclass(frozen=True)
class DecisionReport:
    decisions: tuple[ProfileDecision, ...]
    label: Optional[Standard]
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
                f"{d.standard.value},{d.statistic:.12g},{d.threshold:.12g},"
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
                        "threshold": d.threshold,
                        "detected": d.detected,
                    }
                    for d in self.decisions
                ],
            }
        )


def minimum_samples(cfg: DetectorConfig, sample_rate_hz: float) -> int:
    """Smallest buffer classify accepts: two slots of the slowest profile."""
    longest = max(float(p.slot_duration_s) for p in cfg.profiles)
    return int(np.ceil(2.0 * longest * sample_rate_hz))


def classify(r: IqBuffer, cfg: DetectorConfig) -> DecisionReport:
    """Test every configured profile's fundamental CF and label the buffer.

    The label goes to the detected profile with the largest
    statistic/threshold ratio, or stays unknown when nothing crosses.
    Deterministic for fixed inputs; the empirical-null mode runs its Monte
    Carlo from a fixed internal seed.
    """
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
        decisions.append(
            ProfileDecision(
                standard=profile.standard,
                statistic=stat,
                threshold=gamma,
                detected=stat > gamma,
            )
        )
    detected = [d for d in decisions if d.detected]
    label = max(detected, key=lambda d: d.ratio).standard if detected else None
    return DecisionReport(
        decisions=tuple(decisions), label=label, sigma_r_sq=sigma_r_sq, m_r=r.m_r
    )
