"""CCF estimator tests: exactness identities, grid equivalence, peak readout."""

import math

import numpy as np
import pytest

from cyclodet import (
    IqBuffer,
    ccf_flop_count,
    ccf_spectrum,
    estimate_ccf,
    estimate_variance,
    harmonic_peaks,
    spectrum_to_csv,
    synth_noise,
)
from cyclodet.ccf_estimator import _block_sums, _lag_product, _rotate, unit_phasors
from cyclodet.iq_io import _READ_CHUNK


def _buf(samples, fs=1.0):
    return IqBuffer(samples=np.asarray(samples, dtype=np.complex128), sample_rate_hz=fs)


def test_all_ones_dc_value():
    est = estimate_ccf(_buf(np.ones(1000)), alpha_hz=0.0, tau_samples=0)
    assert est.value == pytest.approx(1.0 + 0.0j, abs=1e-15)
    assert est.m_r == 1000


def test_pure_tone_vanishes_on_nonzero_grid_alpha():
    m, fs = 4096, 1.0
    t = np.arange(m) / fs
    r = _buf(np.exp(2j * np.pi * 0.1234 * t), fs)
    for k in (1, 5, 100):
        est = estimate_ccf(r, alpha_hz=k * fs / m, tau_samples=0)
        assert abs(est.value) < 1e-12


def test_dc_equals_mean_power():
    r = synth_noise(5000, 1.7, seed=2)
    est = estimate_ccf(r, 0.0, 0)
    assert est.value.real == pytest.approx(estimate_variance(r), rel=1e-12)
    assert abs(est.value.imag) < 1e-12


def test_scaling_quadratic_at_zero_lag():
    r = synth_noise(3000, 1.0, seed=3)
    big = _buf(2.0 * r.samples, r.sample_rate_hz)
    a = estimate_ccf(r, 0.317, 0).value
    b = estimate_ccf(big, 0.317, 0).value
    assert b == pytest.approx(4.0 * a, rel=1e-12)


def test_cfo_and_phase_invariance_at_zero_lag():
    r = synth_noise(4000, 1.0, seed=4, sample_rate_hz=1e5)
    t = np.arange(len(r)) / r.sample_rate_hz
    rotated = _buf(r.samples * np.exp(2j * np.pi * 1234.5 * t + 0.7j), r.sample_rate_hz)
    a = estimate_ccf(r, 2000.0, 0).value
    b = estimate_ccf(rotated, 2000.0, 0).value
    assert b == pytest.approx(a, rel=1e-12, abs=1e-15)


def test_conjugate_symmetry_at_zero_lag():
    r = synth_noise(3000, 1.0, seed=5)
    a = estimate_ccf(r, 0.0731, 0).value
    b = estimate_ccf(r, -0.0731, 0).value
    assert b == pytest.approx(np.conj(a), rel=1e-12, abs=1e-15)


def test_circular_shift_covariance_on_grid():
    m = 2048
    r = synth_noise(m, 1.0, seed=6)
    k, s = 17, 303
    alpha = k / m  # fs = 1
    base = estimate_ccf(r, alpha, 0).value
    # advance by s samples: C picks up the factor exp(+j 2 pi alpha s T_s)
    shifted = estimate_ccf(_buf(np.roll(r.samples, -s)), alpha, 0).value
    assert shifted == pytest.approx(base * np.exp(2j * np.pi * alpha * s), rel=1e-10, abs=1e-15)
    assert abs(shifted) == pytest.approx(abs(base), rel=1e-12)


def test_tau_argument_validation():
    r = synth_noise(100, 1.0, seed=7)
    with pytest.raises(ValueError):
        estimate_ccf(r, 0.0, -1)
    with pytest.raises(ValueError):
        estimate_ccf(r, 0.0, 100)
    with pytest.raises(ValueError):
        ccf_spectrum(r, tau_samples=0, max_alpha_hz=0.51)  # beyond Nyquist at fs=1


def test_spectrum_matches_direct_estimates():
    rng = np.random.default_rng(8)
    for m in (1000, 4097, 20_000):
        r = _buf(rng.standard_normal(m) + 1j * rng.standard_normal(m), fs=2.0)
        for tau in (0, 3):
            spec = ccf_spectrum(r, tau, max_alpha_hz=1.0)
            ks = rng.integers(0, spec.alphas_hz.size, 12)
            for k in ks:
                direct = estimate_ccf(r, spec.alphas_hz[k], tau)
                denom = max(abs(direct.value), 1e-300)
                assert abs(spec.magnitudes[k] - abs(direct.value)) / denom < 1e-9


def test_spectrum_dc_bin_is_mean_power():
    r = synth_noise(10_000, 1.3, seed=9)
    spec = ccf_spectrum(r, 0, max_alpha_hz=0.4)
    assert spec.magnitudes[0] == pytest.approx(estimate_variance(r), rel=1e-12)
    assert spec.alphas_hz[0] == 0.0


def test_spectrum_squares_the_samples_as_the_estimator_does():
    # At tau = 0 both paths square a sample as I^2 + Q^2 in float64, so the
    # spectrum's lag product, summed chunk by chunk, gives the estimator's
    # C(0, 0) bit for bit.
    r = synth_noise(200_003, 1.0, seed=5, sample_rate_hz=1e6)
    lag = _lag_product(r, 0)
    assert np.array_equal(lag, r.samples.real**2 + r.samples.imag**2)
    sums = [np.sum(lag[i : i + _READ_CHUNK]) for i in range(0, lag.size, _READ_CHUNK)]
    assert math.fsum(sums) / r.m_r == estimate_variance(r)


@pytest.mark.parametrize("m", [1, 2, 3, 4096, 100_003])
def test_spectrum_up_to_nyquist_stays_within_the_record(m):
    fs = 3.0
    r = IqBuffer(samples=np.random.default_rng(m).standard_normal(m) + 1j, sample_rate_hz=fs)
    spec = ccf_spectrum(r, 0, max_alpha_hz=fs / 2)
    assert spec.alphas_hz[-1] <= fs / 2
    assert spec.magnitudes.size == spec.alphas_hz.size == m // 2 + 1


def test_white_noise_spectrum_stays_below_rayleigh_bound():
    # Under H0 each nonzero grid bin is Rayleigh with scale sigma^2/sqrt(2M);
    # the 6 sigma^2/sqrt(M) bound is 6*sqrt(2) Rayleigh scales, exceeded with
    # probability exp(-36) per bin, so even 1e5 bins stay below it essentially
    # always. One seeded draw plus a small Monte Carlo over fresh draws.
    m = 100_000
    r = synth_noise(m, 1.0, seed=10)
    spec = ccf_spectrum(r, 0, max_alpha_hz=0.5)
    bound = 6.0 / np.sqrt(m) * estimate_variance(r)
    assert np.max(spec.magnitudes[1:]) < bound
    for seed in range(30):
        rr = synth_noise(4096, 1.0, seed=100 + seed)
        s = ccf_spectrum(rr, 0, max_alpha_hz=0.5)
        assert np.max(s.magnitudes[1:]) < 6.0 / np.sqrt(4096) * estimate_variance(rr)


def test_harmonic_peaks_on_constructed_power_pattern():
    # |r|^2 = 1 + 0.6 cos(2 pi m / P) + 0.3 cos(4 pi m / P) has lines of
    # magnitude 0.3 and 0.15 at alpha = 1/P and 2/P exactly (M multiple of P).
    p, reps = 128, 64
    m = p * reps
    pattern = 1.0 + 0.6 * np.cos(2 * np.pi * np.arange(m) / p) + 0.3 * np.cos(
        4 * np.pi * np.arange(m) / p
    )
    r = _buf(np.sqrt(pattern))
    spec = ccf_spectrum(r, 0, max_alpha_hz=0.5)
    peaks = harmonic_peaks(spec, fundamental_hz=1.0 / p, k_max=2)
    assert [pk.k for pk in peaks] == [1, 2]
    assert peaks[0].alpha_hz == pytest.approx(1.0 / p, abs=1e-12)
    assert peaks[1].alpha_hz == pytest.approx(2.0 / p, abs=1e-12)
    assert peaks[0].magnitude == pytest.approx(0.3, rel=1e-9)
    assert peaks[1].magnitude == pytest.approx(0.15, rel=1e-9)


def test_harmonic_peaks_edge_cases():
    r = synth_noise(1000, 1.0, seed=11)
    spec = ccf_spectrum(r, 0, max_alpha_hz=0.5)
    assert harmonic_peaks(spec, 0.1, 0) == []
    with pytest.raises(ValueError):
        harmonic_peaks(spec, spec.grid_spacing_hz / 2, 3)
    # harmonics beyond the spectrum end are dropped
    peaks = harmonic_peaks(spec, 0.2, 10)
    assert [pk.k for pk in peaks] == [1, 2]


def test_phasor_grid_accuracy_on_long_buffers():
    alpha_ts = (26000.0 / 15.0) / 1_083_333.3333333333
    m = 1_000_000
    fast = unit_phasors(alpha_ts, m)
    n = np.arange(m, dtype=np.float64)
    direct = np.exp(-2j * np.pi * ((alpha_ts * n) % 1.0))
    assert np.max(np.abs(fast - direct)) < 1e-10
    assert np.max(np.abs(np.abs(fast) - 1.0)) < 1e-12


def _unit_phasors_uncached(alpha_ts, m):
    """Reference: the block formula with the table built on every call."""
    block = 1 << 14
    table = np.exp(-2j * np.pi * alpha_ts * np.arange(min(block, m)))
    if m <= block:
        return table
    carriers = _unit_phasors_uncached((alpha_ts * block) % 1.0, -(-m // block))
    return (carriers[:, None] * table[None, :]).ravel()[:m]


@pytest.mark.parametrize("m", [1, 100, 16384, 16385, 96000, 1_000_001])
def test_cached_phasors_match_uncached_formula(m):
    for alpha_ts in (26000 / 15 / (1625000 / 6 * 4), 2000 / 1.92e6, 0.0731):
        fast = unit_phasors(alpha_ts, m)
        ref = _unit_phasors_uncached(alpha_ts, m)
        assert fast.dtype == ref.dtype
        np.testing.assert_array_equal(fast, ref)


def test_phasor_cache_hands_out_fresh_arrays():
    alpha_ts = 0.0417
    for m in (100, 40_000):
        first = unit_phasors(alpha_ts, m)
        expected = first.copy()
        first[:] = 0.0
        np.testing.assert_array_equal(unit_phasors(alpha_ts, m), expected)


def exact_phasors(alpha_ts, m):
    """exp(-j 2 pi alpha_ts n) for n = 0..m-1, with alpha_ts * n reduced mod 1
    in exact integer arithmetic and rounded once."""
    num, den = float(alpha_ts).as_integer_ratio()
    cycles = np.array([num * n % den / den for n in range(m)])
    return np.exp(-2j * np.pi * cycles)


@pytest.mark.parametrize("m", [(1 << 14) + 1, 96_000])
def test_long_phasors_match_exact_angles(m):
    # Block-start phasors are unit phasors at the block rate, so the error is
    # the rounding of one block's angles, alpha_ts * n for n < 2**14, and does
    # not grow with m.
    eps = np.finfo(np.float64).eps
    for alpha_ts in (26000 / 15 / (1625000 / 6 * 4), 0.0731, 0.999):
        err = np.max(np.abs(unit_phasors(alpha_ts, m) - exact_phasors(alpha_ts, m)))
        assert err <= 4 * np.pi * eps * (alpha_ts * (1 << 14) + -(-m // (1 << 14)))


def _cyclic_sums(p, alphas_ts):
    """sum_m p(m) exp(-j 2 pi alpha_ts m) along the last axis, for each
    alpha_ts: a complex p as its real and imaginary parts, as estimate_ccf
    sums a lag product."""
    if np.isrealobj(p):
        return _rotate(_block_sums(p, alphas_ts), alphas_ts)
    real, imag = _rotate(_block_sums(np.stack((p.real, p.imag)), alphas_ts), alphas_ts)
    return real + 1j * imag


@pytest.mark.parametrize("m", [100, 1 << 14, 40_000])
def test_cyclic_sum_of_a_batch_is_the_sums_of_its_rows(m):
    rng = np.random.default_rng(m)
    real = rng.standard_exponential((3, m))
    alphas_ts = (0.0731, 0.4)
    for batch in (real, real * np.exp(2j * np.pi * rng.random((3, m)))):
        rows = [_cyclic_sums(row, alphas_ts) for row in batch]
        np.testing.assert_allclose(_cyclic_sums(batch, alphas_ts), rows, rtol=1e-12)
        # Each frequency's sums do not depend on the others in the table.
        alone = _cyclic_sums(batch, alphas_ts[1:])[:, 0]
        np.testing.assert_allclose(alone, [row[1] for row in rows], rtol=1e-12)


@pytest.mark.parametrize("m", [1, (1 << 14) - 1, 1 << 14, (1 << 14) + 1, 40_000, 96_000])
def test_blocked_sum_matches_exact_sum(m):
    # The blocked estimate against correctly rounded sums of lag * phasor.
    # Any summation order errs by a few eps * sum|lag| / M, so that sum, not
    # the value, scales the bound: the transform may cancel. The table rounds
    # the angle alpha_ts * n of each entry, an error that grows with
    # alpha_ts * 2**14; at this slot-rate-like alpha_ts it fits the bound.
    r = synth_noise(m, 1.0, seed=4, sample_rate_hz=1e6)
    alpha_hz = 1733.3
    alpha_ts = alpha_hz * r.sampling_period_s
    phasors = exact_phasors(alpha_ts, m)
    s = r.samples
    for tau in (0, 3):
        if tau >= m:
            continue
        lag = s[: m - tau] * np.conj(s[tau:]) if tau else np.abs(s) ** 2
        terms = lag * phasors[: lag.size]
        exact = complex(math.fsum(terms.real), math.fsum(terms.imag)) / m
        bound = 4 * np.finfo(np.float64).eps * math.fsum(np.abs(lag)) / m
        assert abs(estimate_ccf(r, alpha_hz, tau).value - exact) <= bound


def test_spectrum_csv_round_trip(tmp_path):
    r = synth_noise(512, 1.0, seed=12)
    spec = ccf_spectrum(r, 0, max_alpha_hz=0.3)
    out = tmp_path / "spec.csv"
    spectrum_to_csv(spec, out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "alpha_hz,magnitude"
    assert len(lines) == 1 + spec.alphas_hz.size
    alpha, mag = lines[5].split(",")
    assert float(alpha) == pytest.approx(spec.alphas_hz[4], rel=1e-10)
    assert float(mag) == pytest.approx(spec.magnitudes[4], rel=1e-10)


def test_flop_count_formula_matches_counted_reference():
    # Reference estimator that counts complex multiplies and adds as it goes.
    m = 257
    rng = np.random.default_rng(13)
    r = _buf(rng.standard_normal(m) + 1j * rng.standard_normal(m), fs=1.0)
    alpha = 0.0923
    mults = adds = 0
    acc = 0.0 + 0.0j
    for n in range(m):
        term = r.samples[n] * np.conj(r.samples[n])
        mults += 1
        term = term * np.exp(-2j * np.pi * alpha * n)
        mults += 1
        if n == 0:
            acc = term
        else:
            acc = acc + term
            adds += 1
    counted = acc / m
    assert mults == 2 * m and adds == m - 1
    assert 6 * mults + 2 * adds == ccf_flop_count(m) == 14 * m - 2
    est = estimate_ccf(r, alpha, 0)
    assert est.value == pytest.approx(counted, rel=1e-9)
