"""cyclodet: GSM/LTE signal identification from baseband IQ samples.

The slot-periodic pilot structure of both standards (the GSM training
midamble every 15/26000 s, the LTE reference/sync signals every 0.5 ms)
makes their second-order statistics cyclostationary at the slot rate. This
package estimates the cyclic correlation function at those standard-specific
cyclic frequencies, applies a constant-false-alarm-rate test, and ships the
synthesis, channel, and Monte Carlo machinery to evaluate the detector end
to end at desk scale.
"""

from .ccf_estimator import (
    CcfSpectrum,
    HarmonicPeak,
    ccf_flop_count,
    ccf_spectrum,
    estimate_ccf,
    harmonic_peaks,
    spectrum_to_csv,
)
from .channel_sim import ChannelConfig, apply_channel, draw_taps, pdp_tap_variances
from .detector import (
    DecisionReport,
    DetectorConfig,
    ProfileDecision,
    classify,
    estimate_variance,
    mean_power_leakage,
    threshold,
)
from .errors import ConfigurationError, CyclodetError, FormatError, UnsupportedFormatError
from .experiment_harness import (
    SweepCell,
    SweepConfig,
    SweepResult,
    default_sample_rate,
    emit_figure_data,
    reference_waveform,
    run_detection_sweep,
    run_false_alarm,
    slot_samples,
)
from .iq_io import IqFileMeta, decimate, load_iq, save_iq
from .signal_model import CcfEstimate, IqBuffer, Standard, profile_for
from .waveform_synth import (
    GsmSynthConfig,
    LteSynthConfig,
    synth_gsm,
    synth_lte,
    synth_noise,
)

__version__ = "0.1.0"

__all__ = [
    "CcfEstimate",
    "CcfSpectrum",
    "ChannelConfig",
    "ConfigurationError",
    "CyclodetError",
    "DecisionReport",
    "DetectorConfig",
    "FormatError",
    "GsmSynthConfig",
    "HarmonicPeak",
    "IqBuffer",
    "IqFileMeta",
    "LteSynthConfig",
    "ProfileDecision",
    "Standard",
    "SweepCell",
    "SweepConfig",
    "SweepResult",
    "UnsupportedFormatError",
    "apply_channel",
    "ccf_flop_count",
    "ccf_spectrum",
    "classify",
    "decimate",
    "default_sample_rate",
    "draw_taps",
    "emit_figure_data",
    "estimate_ccf",
    "estimate_variance",
    "harmonic_peaks",
    "load_iq",
    "mean_power_leakage",
    "pdp_tap_variances",
    "profile_for",
    "reference_waveform",
    "run_detection_sweep",
    "run_false_alarm",
    "save_iq",
    "slot_samples",
    "spectrum_to_csv",
    "synth_gsm",
    "synth_lte",
    "synth_noise",
    "threshold",
]
