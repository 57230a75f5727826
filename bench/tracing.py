"""Span tracing of the cyclodet layers, installed from outside the package.

Each traced function is replaced by a wrapper at every name it is bound to
inside the loaded ``cyclodet`` modules. Several modules bind functions with
``from .x import y``, so patching only the defining module would miss the
calls made through those names. Spans are kept in memory and written out by
the caller when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _flops(m_r):
    """Exact flop count of one estimator call, from the package's own model."""
    return sys.modules["cyclodet.ccf_estimator"].ccf_flop_count(m_r)


# (span, size of one call for the span's rate, rate name, rate unit, scale).
# The size functions see (args, kwargs, result).
SPANS = (
    ("waveform_synth.synth_gsm", lambda a, k, r: len(r), "msamples_per_s", "Msample/s", 1e-6),
    ("waveform_synth.synth_lte", lambda a, k, r: len(r), "msamples_per_s", "Msample/s", 1e-6),
    ("waveform_synth.gsm_bit_schedule",
     lambda a, k, r: _arg(a, k, 0, "cfg").total_samples, "msamples_per_s", "Msample/s", 1e-6),
    ("channel_sim.apply_channel", lambda a, k, r: len(r), "msamples_per_s", "Msample/s", 1e-6),
    ("detector.classify", lambda a, k, r: r.m_r, "msamples_per_s", "Msample/s", 1e-6),
    ("detector.threshold", None, None, None, None),
    ("ccf_estimator.estimate_ccf", lambda a, k, r: _flops(r.m_r), "gflop_per_s", "GFLOP/s", 1e-9),
    ("ccf_estimator.unit_phasors", lambda a, k, r: len(r), "msamples_per_s", "Msample/s", 1e-6),
    ("experiment_harness.run_single_trial", None, None, None, None),
    ("experiment_harness.run_detection_sweep", None, None, None, None),
    ("experiment_harness.run_false_alarm", None, None, None, None),
    ("iq_io.load_iq",
     lambda a, k, r: os.path.getsize(_arg(a, k, 0, "path")), "mb_per_s", "MB/s", 1e-6),
    ("iq_io.decimate", lambda a, k, r: len(_arg(a, k, 0, "buf")), "msamples_per_s", "Msample/s", 1e-6),
    ("iq_io.save_iq", None, None, None, None),
    ("cli.main", None, None, None, None),
)

SPAN_NAMES = tuple(s[0] for s in SPANS)


class Tracer:
    """In-memory span recorder for one single-threaded process.

    A span is ``[name, start_ns, end_ns, parent_index, op_id, size]``;
    ``parent_index`` is -1 for a span opened outside any other span.
    """

    def __init__(self):
        self.spans = []
        self.phasor_keys = []
        self.op_id = -1
        self._stack = []
        self.missing = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op_id, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name, fn, sizer):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if sizer is not None:
                self.spans[idx][5] = sizer(args, kwargs, result)
            if name == "ccf_estimator.unit_phasors":
                self.phasor_keys.append((float(_arg(args, kwargs, 0, "alpha_ts")), len(result)))
            return result

        return traced

    def install(self):
        """Wrap every listed function at every binding site; record the ones
        that no longer exist in ``self.missing``."""
        for module_name in sorted({name.split(".")[0] for name in SPAN_NAMES}):
            importlib.import_module(f"cyclodet.{module_name}")
        loaded = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "cyclodet" or key.startswith("cyclodet."))
        ]
        for name, sizer, *_ in SPANS:
            module_name, func_name = name.split(".")
            original = getattr(sys.modules[f"cyclodet.{module_name}"], func_name, None)
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original, sizer)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)


def layer_metrics(tracer: Tracer, wall_ns: int) -> tuple[dict, dict]:
    """Per-span calls, self time, share of ``wall_ns`` and rates.

    Returns ``(metrics, layers)``: the flat per-layer metrics reported by the
    benchmark, and a per-span table that also holds self and total times.
    Self time is a span's duration minus the time its child spans cover; the
    self times of all spans plus the untraced gap add up to ``wall_ns``.
    """
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for name, t0, t1, parent, _op, _size in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    layers = {
        name: {"calls": 0, "self_ns": 0, "total_ns": 0, "size": 0}
        for name in SPAN_NAMES
    }
    root_ns = 0
    for i, (name, t0, t1, parent, _op, size) in enumerate(spans):
        row = layers[name]
        row["calls"] += 1
        row["self_ns"] += (t1 - t0) - child_ns[i]
        row["total_ns"] += t1 - t0
        row["size"] += size or 0
        if parent < 0:
            root_ns += t1 - t0

    metrics = {}
    for name, sizer, rate, unit, scale in SPANS:
        row = layers[name]
        row["self_ms"] = row["self_ns"] / 1e6
        row["share"] = row["self_ns"] / wall_ns
        metrics[f"{name}.calls"] = {"value": row["calls"], "unit": "count"}
        metrics[f"{name}.share"] = {"value": row["share"], "unit": "frac"}
        if rate is None:
            continue
        amount = row["size"] * scale
        # Flops are spent in the estimator's own body, so its rate uses self
        # time; the other rates are per second of the whole call.
        busy_ns = row["total_ns"]
        if rate == "gflop_per_s":
            busy_ns = row["self_ns"]
            row["gflop"] = amount
            metrics[f"{name}.gflop"] = {"value": amount, "unit": "GFLOP"}
        value = amount / (busy_ns * 1e-9) if busy_ns > 0 else 0.0
        row[rate] = value
        metrics[f"{name}.{rate}"] = {"value": value, "unit": unit}

    keys = tracer.phasor_keys
    distinct = len(set(keys)) / len(keys) if keys else 0.0
    layers["ccf_estimator.unit_phasors"]["distinct_key_frac"] = distinct
    metrics["ccf_estimator.unit_phasors.distinct_key_frac"] = {"value": distinct, "unit": "frac"}

    gap_share = (wall_ns - root_ns) / wall_ns
    metrics["untraced_gap.share"] = {"value": gap_share, "unit": "frac"}
    for row in layers.values():
        del row["self_ns"], row["size"]
        row["total_ms"] = row.pop("total_ns") / 1e6
    return metrics, layers


def coverage_check(routes, layers: dict, missing: list) -> dict:
    """Fails when a span the workload routes through recorded no calls, or
    when a traced function no longer exists."""
    problems = [f"{s} has zero calls" for s in routes if layers[s]["calls"] == 0]
    problems += [f"{s} no longer exists" for s in missing]
    return {"name": "span_coverage", "ok": not problems,
            "detail": "; ".join(problems) or f"all {len(routes)} routed spans recorded calls"}


def spans_json(tracer: Tracer) -> dict:
    return {
        "fields": ["name", "start_ns", "end_ns", "parent", "op_id", "size"],
        "spans": tracer.spans,
    }
