"""The three benchmark workloads: their inputs, operations and checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one returns. Operations come in fixed blocks whose mix,
order and sizes do not depend on the seed; the seed only draws the data. A
run always ends on a whole block, so every run measures the same mix, and
every run allocates in the same order (scipy's FFT plan cache makes peak
memory depend on that order).

Each operation times only the calls into cyclodet. Preparing its inputs and
checking its outputs happen outside the timed region, and the checks never
call into cyclodet, so a traced run records spans from the operations alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time

import numpy as np

import cyclodet
from cyclodet import cli

PHI = (math.sqrt(5.0) - 1.0) / 2.0
P_F = 1e-2
GSM_CF_HZ = 26000.0 / 15.0
LTE_CF_HZ = 2000.0


def derive(*words: int) -> int:
    """A 63-bit seed derived from the run seed and an operation's indices."""
    return int(np.random.SeedSequence(words).generate_state(1, np.uint64)[0] >> 1)


def stratified(n: int, lo: float, hi: float) -> float:
    """n-th value of a log-uniform low-discrepancy sequence on [lo, hi].

    The first value is ``hi``, so the largest size is always in the run.
    """
    u = 1.0 - (n * PHI) % 1.0
    return lo * (hi / lo) ** u


def binom_cdf(k: int, n: int, p: float) -> float:
    """P(X <= k) for X ~ Binomial(n, p)."""
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    log_p, log_q = math.log(p), math.log1p(-p)
    terms = [
        math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
        + i * log_p + (n - i) * log_q
        for i in range(k + 1)
    ]
    top = max(terms)
    return min(1.0, math.exp(top) * sum(math.exp(t - top) for t in terms))


def check(name: str, ok: bool, detail: str) -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def errors_check(name: str, results: list) -> dict:
    """Passes when none of the op results carries an error."""
    errors = [e for r in results for e in r["errors"]]
    return check(name, not errors, "; ".join(errors) or "ok")


# --------------------------------------------------------------------------
# capture: on-disk captures through the command line, in process


_NATIVE_S = (0.05, 1.0)
_WIDE_S = (0.05, 0.25)
_WIDE_FACTOR = 4
_CAPTURE_SNR_DB = 10.0
_BASE_MARGIN_S = 0.2
_REF_CHUNK = 1 << 16
_NOISE_RATE_HZ = 1.6e6
# Largest difference allowed between the decimated file and the reference,
# relative to the reference RMS. Storing float32 alone costs up to about 3e-7
# at a 4x-RMS peak.
_DEC_TOL = 1e-6


def _bases() -> dict:
    """Base recordings the captures are cut from: name -> (rate, truth, wide).

    Each kind has its own rate and each op of a kind its own length, so no
    two captures share a (rate, length) pair and nothing keyed on the record
    can be reused from one capture to the next.
    """
    gsm = cyclodet.default_sample_rate("gsm")
    lte = cyclodet.default_sample_rate("lte")
    return {
        "gsm": (gsm, "gsm", False),
        "lte": (lte, "lte", False),
        "noise": (_NOISE_RATE_HZ, None, False),
        "wide_gsm": (_WIDE_FACTOR * gsm, "gsm", True),
        "wide_lte": (_WIDE_FACTOR * lte, "lte", True),
        "wide_noise": (_WIDE_FACTOR * _NOISE_RATE_HZ, None, True),
    }


def _write_capture(path: str, samples: np.ndarray, rate: float) -> None:
    """cf32le data plus sidecar, written without going through cyclodet."""
    interleaved = np.empty(2 * samples.size, dtype="<f4")
    interleaved[0::2] = samples.real
    interleaved[1::2] = samples.imag
    interleaved.tofile(path)
    _write_meta(path, rate, samples.size)


def _write_meta(path: str, rate: float, count: int) -> None:
    with open(path + ".meta", "w", encoding="utf-8") as fh:
        fh.write(f"sample_rate_hz={rate:.17g}\nformat=cf32le\nsample_count={count}\n")


def _read_meta(path: str) -> dict:
    with open(path + ".meta", encoding="utf-8") as fh:
        return dict(line.strip().split("=", 1) for line in fh if "=" in line)


def reference_decision(path: str, rate: float) -> dict:
    """sigma^2, both profiles' statistics and the calibrated threshold of a
    capture file, computed block by block straight from the file.

    Uses the closed form |sum (|r|^2 - sigma^2) e^{-j 2 pi alpha m T_s}| / M,
    independently of the package's estimator.
    """
    m = os.path.getsize(path) // 8
    alphas = np.array([GSM_CF_HZ, LTE_CF_HZ]) / rate
    # e^{-j 2 pi a (start + i)} = carrier(start) * table(i), with the carrier
    # angle reduced mod 1 so that long files keep full phase accuracy.
    table = np.exp(-2j * np.pi * alphas[:, None] * np.arange(_REF_CHUNK)[None, :])
    s_p = 0.0
    s_pphi = np.zeros(2, dtype=np.complex128)
    s_phi = np.zeros(2, dtype=np.complex128)
    with open(path, "rb") as fh:
        for start in range(0, m, _REF_CHUNK):
            x = np.fromfile(fh, dtype="<c8", count=min(_REF_CHUNK, m - start))
            p = np.abs(x.astype(np.complex128)) ** 2
            phi = np.exp(-2j * np.pi * ((alphas * start) % 1.0))[:, None] * table[:, : x.size]
            s_p += float(np.sum(p))
            s_pphi += phi @ p
            s_phi += phi.sum(axis=1)
    sigma = s_p / m
    stats = np.abs(s_pphi - sigma * s_phi) / m
    return {
        "m_r": m,
        "sigma_r_sq": sigma,
        "stats": {"gsm": float(stats[0]), "lte": float(stats[1])},
        "threshold": sigma * math.sqrt(-math.log(P_F) / m),
    }


def reference_decimate(path: str, factor: int) -> np.ndarray:
    """The documented anti-alias decimation of a capture file, designed and
    applied here rather than by the package.

    Kaiser windowed sinc with a 70 dB stopband, transition width 0.2/factor,
    cutoff 0.8/factor and odd length; direct convolution in float64 with the
    integer group delay removed; every factor-th sample kept.
    """
    # Imported here, after the op, so that a set-up probe charges scipy.signal
    # to the package only when the package imports it.
    from scipy.signal import firwin, kaiserord

    numtaps, beta = kaiserord(70.0, width=0.2 / factor)
    numtaps += 1 - numtaps % 2
    taps = firwin(numtaps, cutoff=0.8 / factor, window=("kaiser", beta))
    x = np.fromfile(path, dtype="<c8").astype(np.complex128)
    delay = (numtaps - 1) // 2
    return np.convolve(x, taps)[delay : delay + x.size : factor]


def _close(a: float, b: float, rel: float = 1e-8) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


class Capture:
    name = "capture"
    routes = (
        "cli.main", "iq_io.load_iq", "iq_io.decimate", "iq_io.save_iq",
        "detector.classify", "detector.threshold",
        "ccf_estimator.estimate_ccf", "ccf_estimator.unit_phasors",
    )
    params = {
        "op": "one capture: cyclodet classify --json, after cyclodet decimate --factor 4 "
              "for wideband captures",
        "block": "gsm, lte, noise, gsm, lte, noise at the native rate, then 2 wideband "
                 "at 4x (gsm, lte, noise in turn)",
        "native_duration_s": list(_NATIVE_S),
        "wideband_duration_s": list(_WIDE_S),
        "duration_law": "log-uniform, golden-ratio stratified, first op of each kind longest",
        "snr_db": _CAPTURE_SNR_DB,
        "channel": "4 taps, pdp decay 5, uniform timing offset",
        "p_f": P_F,
        "threshold_mode": "calibrated",
    }

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.bases = _bases()

    def _base_path(self, name: str) -> str:
        return os.path.join(self.workdir, f"base_{name}.iq")

    def prepare(self) -> None:
        """Synthesize, fade and store one base recording per capture kind."""
        from cyclodet import ChannelConfig, GsmSynthConfig, LteSynthConfig

        for i, (name, (rate, truth, wide)) in enumerate(self.bases.items()):
            span_s = (_WIDE_S if wide else _NATIVE_S)[1] + _BASE_MARGIN_S
            wf_seed, ch_seed = derive(self.seed, 0, i, 0), derive(self.seed, 0, i, 1)
            if truth is None:
                x = cyclodet.synth_noise(int(span_s * rate), 1.0, wf_seed, rate)
                _write_capture(self._base_path(name), x.samples, rate)
                continue
            profile = cyclodet.profile_for(truth)
            slots = int(math.ceil(span_s / profile.slot_duration_float))
            factor = _WIDE_FACTOR if wide else 1
            if truth == "gsm":
                x = cyclodet.synth_gsm(GsmSynthConfig(
                    num_slots=slots, oversample=4 * factor, seed=wf_seed,
                    guard_mode=cyclodet.experiment_harness.REFERENCE_GSM_GUARD_MODE))
            else:
                x = cyclodet.synth_lte(LteSynthConfig(
                    num_slots=slots, fft_size=128 * factor, seed=wf_seed,
                    data_occupancy=cyclodet.experiment_harness.REFERENCE_LTE_DATA_OCCUPANCY))
            slot_samples = int(round(profile.slot_duration_float * rate))
            y = cyclodet.apply_channel(x, ChannelConfig(
                snr_db=_CAPTURE_SNR_DB, num_taps=4, pdp_decay=5.0,
                timing_offset_slot_samples=slot_samples, seed=ch_seed))
            _write_capture(self._base_path(name), y.samples, rate)

    def _spec(self, kind: str, occurrence: int, rng) -> dict:
        rate, truth, wide = self.bases[kind]
        n = int(round(stratified(occurrence, *(_WIDE_S if wide else _NATIVE_S)) * rate))
        total = os.path.getsize(self._base_path(kind)) // 8
        return {"kind": kind, "n": n, "offset": int(rng.integers(0, total - n + 1))}

    def block(self, b: int) -> list:
        rng = np.random.default_rng(derive(self.seed, 1, b))
        specs = [self._spec(kind, 2 * b + i, rng)
                 for i in range(2) for kind in ("gsm", "lte", "noise")]
        wide = ("wide_gsm", "wide_lte", "wide_noise")
        return specs + [self._spec(wide[j % 3], j // 3, rng) for j in (2 * b, 2 * b + 1)]

    def setup_ops(self) -> list:
        """One short native and one short wideband capture."""
        rng = np.random.default_rng(derive(self.seed, 2))
        specs = [self._spec("gsm", 1, rng), self._spec("wide_lte", 1, rng)]
        for spec in specs:
            spec["n"] = int(round(_NATIVE_S[0] * self.bases[spec["kind"]][0]))
        return specs

    warmup_ops = setup_ops

    def _cut(self, spec: dict, path: str) -> None:
        """Copy the capture's byte range out of its base recording."""
        rate = self.bases[spec["kind"]][0]
        with open(self._base_path(spec["kind"]), "rb") as src, open(path, "wb") as dst:
            os.sendfile(dst.fileno(), src.fileno(), 8 * spec["offset"], 8 * spec["n"])
        _write_meta(path, rate, spec["n"])

    def run(self, spec: dict) -> dict:
        rate, truth, wide = self.bases[spec["kind"]]
        cap = os.path.join(self.workdir, "op.iq")
        dec = os.path.join(self.workdir, "op_dec.iq")
        classified = dec if wide else cap
        classified_rate = rate / _WIDE_FACTOR if wide else rate
        self._cut(spec, cap)
        out = io.StringIO()
        t0 = time.perf_counter()
        dec_code = cli.main(["decimate", "--in", cap, "--factor", str(_WIDE_FACTOR),
                             "--out", dec]) if wide else 0
        with contextlib.redirect_stdout(out):
            code = cli.main(["classify", "--in", classified, "--json"])
        latency = time.perf_counter() - t0

        errors = []
        if dec_code != 0:
            errors.append(f"decimate exit {dec_code}")
        elif wide:
            meta = _read_meta(dec)
            want = -(-spec["n"] // _WIDE_FACTOR)
            if int(meta["sample_count"]) != want or not _close(
                float(meta["sample_rate_hz"]), classified_rate, 1e-12
            ):
                errors.append(f"decimated sidecar {meta}, want {want} samples")
            ref = reference_decimate(cap, _WIDE_FACTOR)
            got_dec = np.fromfile(dec, dtype="<c8")
            rms = math.sqrt(float(np.mean(np.abs(ref) ** 2)))
            dev = float(np.max(np.abs(got_dec - ref))) if got_dec.size == ref.size else math.inf
            if not dev <= _DEC_TOL * rms:
                errors.append(f"decimated samples differ from the reference by {dev:.3g} "
                              f"({got_dec.size} vs {ref.size} samples, RMS {rms:.3g})")
        report = json.loads(out.getvalue())
        label = report["label"]
        if code != (0 if label != "unknown" else 1):
            errors.append(f"exit {code} with label {label}")
        if truth is not None and label != truth:
            errors.append(f"label {label}, transmitted {truth}")
        ref = reference_decision(classified, classified_rate)
        got = {d["profile"]: d for d in report["profiles"]}
        if report["m_r"] != ref["m_r"] or not _close(report["sigma_r_sq"], ref["sigma_r_sq"]):
            errors.append(f"m_r/sigma {report['m_r']}/{report['sigma_r_sq']} vs reference "
                          f"{ref['m_r']}/{ref['sigma_r_sq']}")
        for profile, stat in ref["stats"].items():
            d = got[profile]
            if not (_close(d["statistic"], stat) and _close(d["threshold"], ref["threshold"])):
                errors.append(f"{profile} statistic/threshold {d['statistic']}/"
                              f"{d['threshold']} vs reference {stat}/{ref['threshold']}")
        for path in (cap, dec):
            for p in (path, path + ".meta"):
                if os.path.exists(p):
                    os.remove(p)
        return {
            "latency_s": latency,
            "samples": spec["n"],
            "kind": spec["kind"],
            "errors": errors,
            "record": {
                "kind": spec["kind"], "n": spec["n"], "offset": spec["offset"], "exit": code,
                "label": label, "sigma_r_sq": report["sigma_r_sq"],
                "statistics": {p: d["statistic"] for p, d in got.items()},
                "threshold": got["gsm"]["threshold"],
            },
        }

    def gates(self, ops: list) -> list:
        return []

    def named_metrics(self, ops: list) -> dict:
        return {}


# --------------------------------------------------------------------------
# mc_detect: detection sweeps through synthesis, channel and classify


_DETECT_SNR_DB = (-5.0, 5.0)
_DETECT_OBS_S = (0.010, 0.050)
# Acceptance operating points: (standard, snr_db, obs_s, minimum Pd).
_PD_GATES = (("gsm", 5.0, 0.010, 0.95), ("gsm", -5.0, 0.050, 0.90), ("lte", -5.0, 0.010, 0.95))
# A gate fails when the hits reject "Pd >= target" at this one-sided level.
_PD_ALPHA = 1e-3


def _cell_key(standard: str, snr_db: float, obs_s: float) -> str:
    return f"{standard}/{snr_db:+g}dB/{obs_s * 1e3:g}ms"


class McDetect:
    name = "mc_detect"
    routes = (
        "waveform_synth.synth_gsm", "waveform_synth.synth_lte",
        "waveform_synth.gsm_bit_schedule", "channel_sim.apply_channel",
        "detector.classify", "detector.threshold",
        "ccf_estimator.estimate_ccf", "ccf_estimator.unit_phasors",
        "experiment_harness.run_single_trial", "experiment_harness.run_detection_sweep",
    )
    params = {
        "op": "one round: run_detection_sweep for gsm and for lte, one trial per cell",
        "snr_db": list(_DETECT_SNR_DB),
        "observation_times_s": list(_DETECT_OBS_S),
        "trials_per_op": 8,
        "waveforms": "reference (gated gsm, 10% occupancy lte)",
        "channel": "SweepConfig default: 4 taps, pdp decay 5",
        "p_f": P_F,
        "pd_gates": [list(g) for g in _PD_GATES],
        "pd_gate_alpha": _PD_ALPHA,
    }

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.trial_samples = sum(
            int(round(obs * cyclodet.default_sample_rate(std))) * len(_DETECT_SNR_DB)
            for std in ("gsm", "lte") for obs in _DETECT_OBS_S
        )

    def prepare(self) -> None:
        pass

    def block(self, b: int) -> list:
        return [{"kind": "round", "master_seed": derive(self.seed, 3, b)}]

    def setup_ops(self) -> list:
        return [{"kind": "round", "master_seed": derive(self.seed, 4)}]

    warmup_ops = setup_ops

    def run(self, spec: dict) -> dict:
        configs = [
            cyclodet.SweepConfig(
                standard=cyclodet.Standard.parse(std), snr_db_list=_DETECT_SNR_DB,
                observation_times_s=_DETECT_OBS_S, p_f_list=(P_F,), n_trials=1,
                master_seed=spec["master_seed"],
            )
            for std in ("gsm", "lte")
        ]
        t0 = time.perf_counter()
        results = [cyclodet.run_detection_sweep(cfg) for cfg in configs]
        latency = time.perf_counter() - t0
        hits = {}
        for result in results:
            for c in result.cells:
                hits[_cell_key(c.standard.value, c.snr_db, c.obs_time_s)] = round(c.pd * c.n_trials)
        errors = [] if len(hits) == 8 else [f"expected 8 cells, got {sorted(hits)}"]
        return {"latency_s": latency, "samples": self.trial_samples, "kind": "round",
                "errors": errors, "record": {"hits": hits}}

    def gates(self, ops: list) -> list:
        out = []
        for std, snr, obs, target in _PD_GATES:
            key = _cell_key(std, snr, obs)
            hits = sum(o["record"]["hits"].get(key, 0) for o in ops)
            n = len(ops)
            p_value = binom_cdf(hits, n, target)
            out.append(check(f"pd {key}", n > 0 and p_value >= _PD_ALPHA,
                             f"{hits}/{n} detected; P(X <= hits | Pd = {target}) = "
                             f"{p_value:.3g}, fails below {_PD_ALPHA:g}"))
        return out

    def named_metrics(self, ops: list) -> dict:
        return {}


# --------------------------------------------------------------------------
# mc_null: false-alarm runs and cold empirical-null thresholds


_FA_LENGTHS = ((10_000, 20), (100_000, 5))  # (M_r, trials) per false-alarm op
_CAL_M_R = 1400
_CAL_M_SPREAD = 200
_CAL_TRIALS = 2000
# Relative tolerance of an empirical threshold against the closed form. The
# quantile of 2000 draws has a standard error near 2.4%; 15% is over six of
# them and still catches a wrong scale such as a missing sqrt(2).
_CAL_TOL = 0.15
# Two-sided level of the binomial interval on the pooled false-alarm count.
_FA_ALPHA = 1e-5


class McNull:
    name = "mc_null"
    routes = ("experiment_harness.run_false_alarm", "detector.threshold",
              "ccf_estimator.unit_phasors")
    params = {
        "op": "false alarm: run_false_alarm at each (M_r, trials); calibrate: cold "
              "empirical_null threshold at a record length not used before in the run",
        "block": "4 false-alarm ops, then 1 calibrate op",
        "false_alarm": [list(x) for x in _FA_LENGTHS],
        "false_alarm_profiles": "gsm and lte in turn",
        "calibrate_m_r": [_CAL_M_R, _CAL_M_R + _CAL_M_SPREAD - 1],
        "calibrate_trials": _CAL_TRIALS,
        "calibrate_tolerance": _CAL_TOL,
        "false_alarm_alpha": _FA_ALPHA,
        "p_f": P_F,
    }

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        rng = np.random.default_rng(derive(self.seed, 5))
        self.cal_offsets = rng.permutation(_CAL_M_SPREAD)

    def prepare(self) -> None:
        pass

    def _fa(self, j: int) -> dict:
        return {"kind": "false_alarm", "profile": ("gsm", "lte")[j % 2],
                "master_seed": derive(self.seed, 6, j)}

    def _cal(self, i: int) -> dict:
        return {"kind": "calibrate",
                "m_r": _CAL_M_R + int(self.cal_offsets[i % _CAL_M_SPREAD])}

    def block(self, b: int) -> list:
        return [self._fa(4 * b + i) for i in range(4)] + [self._cal(b)]

    def setup_ops(self) -> list:
        """One false-alarm op and one calibrate op, as a fresh process sees them."""
        return [{"kind": "false_alarm", "profile": "gsm", "master_seed": derive(self.seed, 8)},
                {"kind": "calibrate", "m_r": _CAL_M_R + _CAL_M_SPREAD}]

    warmup_ops = setup_ops

    def run(self, spec: dict) -> dict:
        if spec["kind"] == "calibrate":
            m_r = spec["m_r"]
            cfg = cyclodet.DetectorConfig(p_f=P_F, threshold_mode="empirical_null",
                                          empirical_null_trials=_CAL_TRIALS)
            t0 = time.perf_counter()
            gamma = cyclodet.threshold(cfg, 1.0, m_r)
            latency = time.perf_counter() - t0
            closed = math.sqrt(-math.log(P_F) / m_r)
            errors = []
            if not abs(gamma / closed - 1.0) <= _CAL_TOL:
                errors.append(f"empirical threshold {gamma} vs closed form {closed} at "
                              f"M_r={m_r}: beyond {_CAL_TOL:.0%}")
            return {"latency_s": latency, "samples": _CAL_TRIALS * m_r, "kind": "calibrate",
                    "errors": errors, "record": {"m_r": m_r, "threshold": gamma}}
        profile = cyclodet.profile_for(spec["profile"])
        t0 = time.perf_counter()
        rates = [
            cyclodet.run_false_alarm(1.0, m_r, P_F, trials, profile=profile,
                                     master_seed=spec["master_seed"])
            for m_r, trials in _FA_LENGTHS
        ]
        latency = time.perf_counter() - t0
        hits = {str(m_r): round(rate * trials) for (m_r, trials), rate in zip(_FA_LENGTHS, rates)}
        return {"latency_s": latency, "samples": sum(m * t for m, t in _FA_LENGTHS),
                "kind": "false_alarm", "errors": [],
                "record": {"profile": spec["profile"], "hits": hits}}

    def gates(self, ops: list) -> list:
        fa = [o for o in ops if o["kind"] == "false_alarm"]
        out = []
        for m_r, trials in _FA_LENGTHS:
            n = trials * len(fa)
            hits = sum(o["record"]["hits"][str(m_r)] for o in fa)
            low = binom_cdf(hits, n, P_F)
            high = 1.0 - binom_cdf(hits - 1, n, P_F)
            ok = n > 0 and min(low, high) > _FA_ALPHA / 2
            out.append(check(f"false_alarm M_r={m_r}", ok,
                             f"{hits}/{n} false alarms at p_f={P_F:g}; binomial tails "
                             f"{low:.3g}/{high:.3g}, each must exceed {_FA_ALPHA / 2:g}"))
        return out

    def named_metrics(self, ops: list) -> dict:
        fa = [o for o in ops if o["kind"] == "false_alarm"]
        cal = [o["latency_s"] for o in ops if o["kind"] == "calibrate"]
        trials = sum(t for _, t in _FA_LENGTHS)
        return {
            "null_trials_per_s": trials * len(fa) / sum(o["latency_s"] for o in fa),
            "calibrate_p50_s": percentile(cal, 0.5),
        }


def percentile(values: list, q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


WORKLOADS = {w.name: w for w in (Capture, McDetect, McNull)}
