"""Shared domain types: IQ sample buffers, standards with their slot timing, CCF values.

Cyclic frequencies are carried as exact rationals and converted to float only
at the DSP boundary, so that harmonics ``k * alpha`` stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import ConfigurationError


# Slot duration and secondary cyclic frequency of each standard, exact.
# GSM: symbol rate 1625000/6 Bd, 156.25 symbols per slot, hence a slot lasts
# exactly 15/26000 s and the slot rate is 26000/15 Hz.
# LTE: 0.5 ms slots; the sync channels recur every 10 slots (200 Hz).
_TIMING = {"gsm": (Fraction(15, 26000), None), "lte": (Fraction(1, 2000), Fraction(200))}


class Standard(Enum):
    """A standard and the cyclic frequencies its slot timing induces (read-only)."""

    GSM = "gsm"
    LTE = "lte"

    @property
    def slot_duration_s(self) -> Fraction:
        return _TIMING[self.value][0]

    @property
    def secondary_cf_hz(self) -> Optional[Fraction]:
        return _TIMING[self.value][1]

    @property
    def fundamental_cf_hz(self) -> Fraction:
        """The slot rate, the exact reciprocal of the slot duration."""
        return 1 / self.slot_duration_s

    @property
    def fundamental_cf_float(self) -> float:
        return float(self.fundamental_cf_hz)

    @property
    def slot_duration_float(self) -> float:
        return float(self.slot_duration_s)

    @classmethod
    def parse(cls, name: "str | Standard") -> "Standard":
        if isinstance(name, Standard):
            return name
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ConfigurationError(
                f"unknown standard {name!r}; expected one of "
                f"{[s.value for s in cls]}"
            ) from None


# The name-or-member lookup under its older name.
profile_for = Standard.parse


@dataclass(frozen=True)
class IqBuffer:
    """Complex baseband samples plus sampling metadata.

    The sampling period is derived from ``sample_rate_hz``, never stored.
    """

    samples: np.ndarray
    sample_rate_hz: float
    center_freq_hz: Optional[float] = None

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.complex128)
        if samples.ndim != 1 or samples.size < 1:
            raise ConfigurationError("IqBuffer needs a 1-D sample vector of length >= 1")
        if not 0 < self.sample_rate_hz < np.inf:
            raise ConfigurationError(
                f"sample_rate_hz must be finite and > 0, got {self.sample_rate_hz}"
            )
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate_hz", float(self.sample_rate_hz))

    def __len__(self) -> int:
        return self.samples.size

    @property
    def m_r(self) -> int:
        """Number of received samples."""
        return self.samples.size

    @property
    def sampling_period_s(self) -> float:
        return 1.0 / self.sample_rate_hz

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz


@dataclass(frozen=True)
class CcfEstimate:
    """Cyclic-correlation values, one per cyclic frequency asked for (a
    complex for one frequency), and the record length they were estimated over."""

    value: "complex | np.ndarray"
    m_r: int
