#!/usr/bin/env python3
"""Off-the-air-style workflow on capture files.

Wideband receivers record at a high rate and decimate down to the band of
interest before analysis; the identifier does not need to know the exact
signal bandwidth as long as the signal sits inside the capture. This demo
fakes that flow entirely on disk: synthesize GSM at 4x the usual rate,
write cf32le + sidecar, read it back, decimate by 4 with the anti-alias
filter, and classify the result.

The same steps are available from the command line:

    cyclodet synth-gsm --slots 60 --oversample 16 --guard-mode gated \
        --seed 3 --out wide.iq
    cyclodet channel --in wide.iq --snr-db 10 --timing-offset uniform \
        --standard gsm --seed 4 --out rx.iq
    cyclodet decimate --in rx.iq --factor 4 --out rx_low.iq
    cyclodet classify --in rx_low.iq --pf 0.01
"""

import tempfile
from pathlib import Path

from cyclodet import (
    ChannelConfig,
    DetectorConfig,
    GsmSynthConfig,
    apply_channel,
    classify,
    decimate,
    load_iq,
    save_iq,
    synth_gsm,
)

if __name__ == "__main__":
    # 16x oversampled GSM ~ 4.33 MHz capture rate, through the fading channel
    x = synth_gsm(GsmSynthConfig(num_slots=60, oversample=16, seed=3, guard_mode="gated"))
    rx = apply_channel(
        x,
        ChannelConfig(snr_db=10.0, timing_offset_slot_samples=16 * 625 // 4, seed=4),
    )
    with tempfile.TemporaryDirectory(prefix="cyclodet_demo_") as workdir:
        wide_path = Path(workdir) / "rx_wide.iq"  # sidecar: rx_wide.iq.meta
        save_iq(rx, wide_path)
        print(f"wrote {wide_path} ({wide_path.stat().st_size} bytes at {rx.sample_rate_hz:.0f} Hz)")
        back = load_iq(wide_path)

    low = decimate(back, factor=4)
    print(f"decimated to {low.sample_rate_hz:.0f} Hz, {len(low)} samples")

    report = classify(low, DetectorConfig(p_f=1e-2))
    print(report.to_csv())
    print(f"label: {report.label_name}")
