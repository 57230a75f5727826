#!/usr/bin/env python3
"""Why the threshold must be calibrated against the record length.

Under noise the zero-delay cyclic correlation magnitude is asymptotically
Rayleigh with scale sigma^2 / sqrt(2 M_r), so a threshold that holds the
false-alarm rate has to shrink as 1/sqrt(M_r):

    Gamma = sigma_r^2 * sqrt(-ln(P_F) / M_r)          (calibrated, default)

The empirical-null mode replaces the closed form with a Monte Carlo quantile
of the same statistic and agrees with it. Both are sigma_r^2 times a
unit-power threshold.

Reading P_F = exp(-Gamma^2 / sigma_r^2) literally instead gives
Gamma = sqrt(-sigma_r^2 ln P_F), with no record-length dependence. At unit
power that is sqrt(-ln P_F) at every M_r; under the Rayleigh law above it
would be crossed with probability exp(-M_r Gamma^2) = P_F ** M_r, which is 0
in double precision at these lengths. The last table shows that arithmetic.

Runs a couple of minutes (tens of millions of noise samples per row).
"""

import math

from cyclodet import DetectorConfig, Standard, run_false_alarm, threshold

P_F = 1e-2
TRIALS = 2000
MODES = ("calibrated", "empirical_null")

if __name__ == "__main__":
    print(f"target false-alarm rate: {P_F}")
    print("\nempirical rate on noise-only input, by mode and record length:")
    print("   profile    M_r     calibrated   empirical_null")
    for profile in Standard:
        for m_r in (10_000, 30_000):
            rates = [
                run_false_alarm(1.0, m_r, P_F, TRIALS, mode=mode, profile=profile)
                for mode in MODES
            ]
            print(f"   {profile.value:4s}   {m_r:7d}   {rates[0]:10.4f}"
                  f"   {rates[1]:14.4f}")

    literal = math.sqrt(-math.log(P_F))
    print("\nthresholds at unit power, and the literal reading sqrt(-ln P_F):")
    print("   M_r      calibrated    empirical_null   literal   its P_F ** M_r")
    for m_r in (10_000, 30_000):
        gammas = [
            threshold(DetectorConfig(p_f=P_F, threshold_mode=mode,
                                     empirical_null_trials=20_000), 1.0, m_r)
            for mode in MODES
        ]
        print(f"   {m_r:6d}   {gammas[0]:.6f}      {gammas[1]:.6f}       "
              f"{literal:.4f}    {P_F ** m_r:g}")
