"""Domain type tests: exact rational profiles and buffer validation."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from cyclodet import (
    ConfigurationError,
    GSM_PROFILE,
    IqBuffer,
    LTE_PROFILE,
    Standard,
    profile_for,
)


def test_gsm_profile_exact_rationals():
    p = profile_for("gsm")
    assert p.slot_duration_s == Fraction(15, 26000)
    assert p.fundamental_cf_hz == Fraction(26000, 15)
    assert p.fundamental_cf_float == pytest.approx(1733.3333333, abs=1e-6)
    assert p.secondary_cf_hz is None


def test_lte_profile_exact_rationals():
    p = profile_for("lte")
    assert p.slot_duration_s == Fraction(1, 2000)
    assert p.fundamental_cf_hz == 2000
    assert p.secondary_cf_hz == 200


@pytest.mark.parametrize("profile", [GSM_PROFILE, LTE_PROFILE])
def test_reciprocal_invariant_exact(profile):
    assert profile.fundamental_cf_hz * profile.slot_duration_s == 1


def test_profiles_are_value_objects():
    assert profile_for("gsm") == profile_for(Standard.GSM)
    assert profile_for("LTE") == profile_for("lte")
    with pytest.raises(dataclasses.FrozenInstanceError):
        GSM_PROFILE.slot_duration_s = Fraction(1, 2)


def test_unknown_standard_rejected():
    with pytest.raises(ConfigurationError):
        profile_for("wimax")


def test_iq_buffer_validation():
    buf = IqBuffer(samples=np.ones(4), sample_rate_hz=8.0)
    assert buf.m_r == 4
    assert buf.sampling_period_s == 0.125
    assert buf.duration_s == 0.5
    assert buf.samples.dtype == np.complex128
    with pytest.raises(ConfigurationError):
        IqBuffer(samples=np.array([]), sample_rate_hz=1.0)
    with pytest.raises(ConfigurationError):
        IqBuffer(samples=np.ones(4), sample_rate_hz=0.0)
    with pytest.raises(ConfigurationError):
        IqBuffer(samples=np.ones(4), sample_rate_hz=np.inf)
    with pytest.raises(ConfigurationError):
        IqBuffer(samples=np.ones((2, 2)), sample_rate_hz=1.0)
