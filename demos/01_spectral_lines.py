#!/usr/bin/env python3
"""Slot-rate spectral lines of GSM and LTE downlink signals.

Both standards repeat pilot material every time slot, so the instantaneous
power of a received capture carries periodic components: GSM at multiples of
26000/15 Hz (~1733.33 Hz, one slot every 15/26000 s) and LTE at multiples of
2 kHz, plus a 200 Hz family from the sync channels that recur every 10 slots.
This script pushes both waveforms through the 4-tap Rayleigh channel at 20 dB
SNR, evaluates the cyclic correlation magnitude on the natural grid, and
prints where the peaks land.
"""

import numpy as np

from cyclodet import (
    ChannelConfig,
    Standard,
    apply_channel,
    ccf_spectrum,
    harmonic_peaks,
    reference_waveform,
    spectrum_to_csv,
)

SLOTS = 300          # ~0.17 s of GSM, 0.15 s of LTE; plenty for clean lines
SNR_DB = 20.0
MAX_ALPHA_HZ = 20_000.0


def show(standard: str, seed: int) -> None:
    profile = Standard.parse(standard)
    x = reference_waveform(standard, SLOTS, seed=seed)
    y = apply_channel(x, ChannelConfig(snr_db=SNR_DB, num_taps=4, pdp_decay=5.0, seed=seed + 1))
    spec = ccf_spectrum(y, tau_samples=0, max_alpha_hz=MAX_ALPHA_HZ)

    background = float(np.median(spec.magnitudes[3:]))
    fundamental = profile.fundamental_cf_float
    print(f"\n{standard.upper()}: slot rate {fundamental:.2f} Hz, "
          f"grid spacing {spec.grid_spacing_hz:.3f} Hz")
    for pk in harmonic_peaks(spec, fundamental, k_max=5):
        print(f"  k={pk.k}: |C| = {pk.magnitude:.5f} at {pk.alpha_hz:10.2f} Hz "
              f"({pk.magnitude / background:6.1f}x the background median)")
    if profile.secondary_cf_hz is not None:
        sec = float(profile.secondary_cf_hz)
        idx = int(round(sec / spec.grid_spacing_hz))
        line = spec.magnitudes[idx - 1 : idx + 2].max()
        print(f"  sync channels: |C| = {line:.5f} near {sec:.0f} Hz "
              f"({line / background:6.1f}x background)")

    out = f"spectrum_{standard}.csv"
    spectrum_to_csv(spec, out)
    print(f"  full spectrum written to {out}")


if __name__ == "__main__":
    show("gsm", seed=1)
    show("lte", seed=2)
