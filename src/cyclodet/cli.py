"""Command-line surface tying synthesis, channel, estimation, detection,
and the Monte Carlo harness together.

Data files are cf32le with a ``<file>.meta`` sidecar next to them. Exit
codes: 0 success, 1 classify found nothing, 2 usage error, 3 I/O or format
error. Every randomized command requires an explicit ``--seed``. ``main``
may be called many times in one process; the calls share one parser.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import re
import sys

import numpy as np

from .ccf_estimator import ccf_spectrum, spectrum_to_csv
from .channel_sim import ChannelConfig, apply_channel
from .detector import DetectorConfig, classify
from .errors import ConfigurationError, FormatError
from .experiment_harness import SweepConfig, run_detection_sweep
from .iq_io import decimate, load_iq, save_iq
from .signal_model import Standard
from .waveform_synth import GsmSynthConfig, GUARD_MODES, LteSynthConfig, synth_gsm, synth_lte

EXIT_OK = 0
EXIT_NO_DETECTION = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _parse_float_list(text: str) -> tuple[float, ...]:
    """Comma list ('10,50') or inclusive range ('-15:1:5' = start:step:stop)."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigurationError(f"range must be start:step:stop, got {text!r}")
        start, step, stop = (float(p) for p in parts)
        if step <= 0:
            raise ConfigurationError("range step must be > 0")
        return tuple(np.arange(start, stop + step / 2.0, step))
    return tuple(float(p) for p in text.split(","))


def _config(args: argparse.Namespace, config: type):
    """``config`` built from the parsed options whose destinations name its fields."""
    return config(**{f.name: getattr(args, f.name) for f in dataclasses.fields(config)})


def _cmd_synth_gsm(args: argparse.Namespace) -> int:
    save_iq(synth_gsm(_config(args, GsmSynthConfig)), args.out)
    return EXIT_OK


def _cmd_synth_lte(args: argparse.Namespace) -> int:
    save_iq(synth_lte(_config(args, LteSynthConfig)), args.out)
    return EXIT_OK


def _cmd_channel(args: argparse.Namespace) -> int:
    buf = load_iq(args.infile)
    # A slot length, given or derived from a standard, turns on the offset.
    if args.standard is not None:
        slot_s = Standard.parse(args.standard).slot_duration_float
        args.timing_offset_slot_samples = int(round(slot_s * buf.sample_rate_hz))
    save_iq(apply_channel(buf, _config(args, ChannelConfig)), args.out)
    return EXIT_OK


def _cmd_ccf_spectrum(args: argparse.Namespace) -> int:
    buf = load_iq(args.infile)
    spectrum = ccf_spectrum(buf, tau_samples=args.tau, max_alpha_hz=args.max_alpha)
    spectrum_to_csv(spectrum, args.out)
    return EXIT_OK


def _cmd_classify(args: argparse.Namespace) -> int:
    cfg = DetectorConfig(p_f=args.pf, profiles=args.profiles.split(","))
    report = classify(args.infile, cfg)
    if args.json:
        print(report.to_json_line())
    else:
        sys.stdout.write(report.to_csv())
    return EXIT_OK if report.label is not None else EXIT_NO_DETECTION


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = SweepConfig(
        standard=Standard.parse(args.standard),
        snr_db_list=_parse_float_list(args.snr),
        observation_times_s=tuple(t / 1e3 for t in _parse_float_list(args.obs_ms)),
        p_f_list=_parse_float_list(args.pf),
        n_trials=args.trials,
        master_seed=args.seed,
    )
    run_detection_sweep(cfg).write_csv(args.out, cfg.csv_columns)
    return EXIT_OK


def _cmd_decimate(args: argparse.Namespace) -> int:
    buf = load_iq(args.infile)
    save_iq(decimate(buf, args.factor), args.out)
    return EXIT_OK


# P_F is tested per profile, so noise gets some label more often than P_F.
_PF_HELP = "per profile: with K profiles, noise gets some label at about 1 - (1 - P_F)^K"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclodet",
        description="GSM/LTE identification from IQ captures via slot-rate cyclostationarity",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    standards = tuple(s.value for s in Standard)

    # An option that sets a config field takes the field's name as its dest.
    p = sub.add_parser("synth-gsm", help="generate a GMSK burst train")
    p.add_argument("--slots", dest="num_slots", type=int, required=True)
    p.add_argument("--oversample", type=int, default=GsmSynthConfig.oversample)
    p.add_argument("--tsc", dest="training_sequence_index", type=int,
                   default=GsmSynthConfig.training_sequence_index,
                   help="training sequence index 0..7")
    p.add_argument("--guard-mode", choices=GUARD_MODES, default=GsmSynthConfig.guard_mode)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth_gsm)

    p = sub.add_parser("synth-lte", help="generate an LTE downlink slot train")
    p.add_argument("--slots", dest="num_slots", type=int, required=True)
    p.add_argument("--rb", dest="n_rb", type=int, default=LteSynthConfig.n_rb,
                   help="resource blocks")
    p.add_argument("--fft-size", type=int, default=LteSynthConfig.fft_size)
    p.add_argument("--rs-boost-db", dest="rs_power_boost_db", type=float,
                   default=LteSynthConfig.rs_power_boost_db)
    p.add_argument("--cell-seed", type=int, default=LteSynthConfig.cell_seed)
    p.add_argument("--occupancy", dest="data_occupancy", type=float,
                   default=LteSynthConfig.data_occupancy, help="data RE fill fraction")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth_lte)

    p = sub.add_parser("channel", help="fade, offset, rotate, and add noise")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--snr-db", type=float, required=True)
    p.add_argument("--taps", dest="num_taps", type=int, default=ChannelConfig.num_taps)
    p.add_argument("--decay", dest="pdp_decay", type=float, default=ChannelConfig.pdp_decay)
    offset = p.add_mutually_exclusive_group()
    offset.add_argument("--timing-slot-samples", dest="timing_offset_slot_samples", type=int,
                        help="uniform timing offset over [0, N) samples")
    offset.add_argument("--standard", choices=standards,
                        help="uniform timing offset over one slot of this standard")
    p.add_argument("--cfo-hz", type=float, default=ChannelConfig.cfo_hz)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_channel)

    p = sub.add_parser("ccf-spectrum", help="CCF magnitude on the natural grid, as CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--tau", type=int, default=0)
    p.add_argument("--max-alpha", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ccf_spectrum)

    p = sub.add_parser("classify", help="run the detector; prints the decision report")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--pf", type=float, default=SweepConfig.p_f_list[0],
                   help="false-alarm target " + _PF_HELP)
    p.add_argument("--profiles", default=",".join(standards))
    p.add_argument("--json", action="store_true", help="emit a JSON record instead of CSV")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("sweep", help="Monte Carlo detection-probability sweep")
    p.add_argument("--standard", choices=standards, required=True)
    p.add_argument("--snr", required=True, help="comma list or start:step:stop")
    p.add_argument("--obs-ms", required=True, help="comma list of observation times, ms")
    p.add_argument("--pf", default=",".join(map(str, SweepConfig.p_f_list)),
                   help="comma list of false-alarm targets, each " + _PF_HELP)
    p.add_argument("--trials", type=int, default=SweepConfig.n_trials)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("decimate", help="anti-aliased sample-rate reduction")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--factor", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_decimate)

    # No option starts with '-' and a digit or '.': read '-1e3' or '-15:1:5' as a value.
    for p in sub.choices.values():
        p._negative_number_matcher = re.compile(r"^-\.?\d")
    return parser


_parser = functools.cache(build_parser)  # built on the first main call


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, OSError) as exc:  # before ValueError: a FormatError is one
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
