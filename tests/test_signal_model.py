"""Domain type tests: exact rational slot timing and buffer validation."""

from fractions import Fraction

import numpy as np
import pytest

from cyclodet import (
    ConfigurationError,
    IqBuffer,
    Standard,
    profile_for,
)


def test_gsm_profile_exact_rationals():
    p = Standard.parse("gsm")
    assert p.slot_duration_s == Fraction(15, 26000)
    assert p.fundamental_cf_hz == Fraction(26000, 15)
    assert p.fundamental_cf_float == pytest.approx(1733.3333333, abs=1e-6)
    assert p.secondary_cf_hz is None


def test_lte_profile_exact_rationals():
    p = Standard.parse("lte")
    assert p.slot_duration_s == Fraction(1, 2000)
    assert p.fundamental_cf_hz == 2000
    assert p.secondary_cf_hz == 200


@pytest.mark.parametrize("profile", [Standard.GSM, Standard.LTE], ids=["profile0", "profile1"])
def test_reciprocal_invariant_exact(profile):
    assert profile.fundamental_cf_hz * profile.slot_duration_s == 1


def test_profiles_are_value_objects():
    assert Standard.parse("gsm") is Standard.parse(Standard.GSM) is Standard.GSM
    assert Standard.parse("LTE") is Standard.parse("lte")
    assert profile_for("gsm") is Standard.GSM
    with pytest.raises(AttributeError):
        Standard.GSM.slot_duration_s = Fraction(1, 2)
    assert Standard.GSM.slot_duration_s == Fraction(15, 26000)


def test_unknown_standard_rejected():
    with pytest.raises(ConfigurationError):
        Standard.parse("wimax")


def test_iq_buffer_validation():
    buf = IqBuffer(samples=np.ones(4), sample_rate_hz=8.0)
    assert buf.m_r == 4
    assert buf.sampling_period_s == 0.125
    assert len(buf) / buf.sample_rate_hz == 0.5
    assert buf.samples.dtype == np.complex128
    with pytest.raises(ConfigurationError):
        IqBuffer(samples=np.array([]), sample_rate_hz=1.0)
    with pytest.raises(ConfigurationError):
        IqBuffer(samples=np.ones(4), sample_rate_hz=0.0)
    with pytest.raises(ConfigurationError):
        IqBuffer(samples=np.ones(4), sample_rate_hz=np.inf)
    with pytest.raises(ConfigurationError):
        IqBuffer(samples=np.ones((2, 2)), sample_rate_hz=1.0)
    for center in (np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigurationError, match="center_freq_hz"):
            IqBuffer(samples=np.ones(4), sample_rate_hz=1.0, center_freq_hz=center)

