"""One benchmark process: prepares inputs, probes set-up time, or runs a
workload's closed loop and writes its results as JSON.

``run.py`` starts this file in fresh processes; it is not meant to be run by
hand. Only the standard library is imported at the top, so that the set-up
probe can time ``import cyclodet`` from a cold interpreter.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback

RSS_OPS = 64
# At least ten ops lie beyond p90, even on a machine slower than the one the
# run length was chosen on.
MIN_OPS = 100
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def _load(name, seed, workdir):
    import workloads

    return workloads.WORKLOADS[name](seed, workdir)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _run_op(workload, spec):
    """Run one op; an exception counts as a failed op, not a crashed run."""
    try:
        result = workload.run(spec)
    except Exception:  # the loop must go on and count the failure
        result = {"latency_s": None, "samples": 0, "kind": spec["kind"],
                  "errors": [traceback.format_exc(limit=4)], "record": None}
    result["peak_rss_mb"] = _peak_rss_mb()
    return result


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None when it cannot be asked."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getattr(lib, fn).restype = ctypes.c_int
                return int(getattr(lib, fn)())
    return None


def cmd_prepare(args):
    _load(args.workload, args.seed, args.dir).prepare()


def cmd_setup(args):
    """Time ``import cyclodet`` plus the calls into cyclodet of the first
    cold ops; the benchmark's own input cutting and checks are left out."""
    t0 = time.perf_counter()
    import cyclodet  # noqa: F401  (the import is what is being timed)

    import_s = time.perf_counter() - t0
    workload = _load(args.workload, args.seed, args.dir)
    results = [workload.run(spec) for spec in workload.setup_ops()]
    errors = [e for r in results for e in r["errors"]]
    print(json.dumps({"setup_s": import_s + sum(r["latency_s"] for r in results),
                      "errors": errors}))


def cmd_run(args):
    import numpy
    import scipy

    import cyclodet
    import tracing
    import workloads

    workload = _load(args.workload, args.seed, args.dir)
    warmup = [_run_op(workload, spec) for spec in workload.warmup_ops()]

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    ops = []
    t_loop = time.perf_counter()
    b = 0
    while True:
        for spec in workload.block(b):
            if args.ops is not None and len(ops) >= args.ops:
                break
            if tracer is not None:
                tracer.op_id = len(ops)
            ops.append(_run_op(workload, spec))
        b += 1
        if args.ops is not None:
            if len(ops) >= args.ops:
                break
        elif len(ops) >= MIN_OPS and time.perf_counter() - t_loop >= args.seconds:
            break
    loop_s = time.perf_counter() - t_loop

    good = [o for o in ops if o["latency_s"] is not None]
    lat = [o["latency_s"] for o in good]
    busy_s = sum(lat)
    checks = [workloads.errors_check("warmup", warmup)] + workload.gates(good)
    # Peak memory grows with the FFT plans scipy caches, so it is read after
    # a fixed number of ops rather than at the end of a run of varying length.
    rss_mb = ops[min(len(ops), RSS_OPS) - 1]["peak_rss_mb"]
    result = {
        "workload": workload.name,
        "params": workload.params,
        "ops": ops,
        "loop_s": loop_s,
        "checks": checks,
        "busy_s": busy_s,
        "end_to_end": {},
        "named_metrics": {},
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "cyclodet": cyclodet.__version__},
        "cyclodet_file": cyclodet.__file__,
        "blas_threads": blas_threads(),
    }
    if not good:
        checks.append(workloads.check("ops", False, "no op completed"))
    else:
        result["named_metrics"] = workload.named_metrics(good)
        result["end_to_end"] = {
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "op_p50_ms": {"value": workloads.percentile(lat, 0.5) * 1e3, "unit": "ms"},
            "op_p90_ms": {"value": workloads.percentile(lat, 0.9) * 1e3, "unit": "ms"},
            "ops_per_s": {"value": len(lat) / busy_s, "unit": "1/s"},
            "msamples_per_s": {"value": sum(o["samples"] for o in good) / busy_s / 1e6,
                               "unit": "Msample/s"},
        }
    if tracer is not None and good:
        metrics, layers = tracing.layer_metrics(tracer, round(busy_s * 1e9))
        result["layer_metrics"] = metrics
        result["layers"] = layers
        checks.append(tracing.coverage_check(workload.routes, layers, tracer.missing))
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(tracing.spans_json(tracer), fh)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("command", choices=("prepare", "setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--ops", type=int, default=None, help="run exactly this many ops")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", default=None)
    parser.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = parser.parse_args()
    {"prepare": cmd_prepare, "setup": cmd_setup, "run": cmd_run}[args.command](args)


if __name__ == "__main__":
    main()
