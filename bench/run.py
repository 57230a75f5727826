#!/usr/bin/env python3
"""cyclodet benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload capture --seed 1 --seconds 16 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The full
report (provenance, checks, per-op records, named metrics, layer table) is
written to ``bench/out/<workload>-seed<seed>-trace<t>.json``; a traced run
also writes its spans next to it. ``bench/drift.py`` compares the records of
two reports. See ``bench/README.md``.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "bench", "out")
# Repeated from workloads.py: this process imports neither numpy nor cyclodet.
WORKLOADS = ("capture", "mc_detect", "mc_null")
SETUP_PROBES = 3
TIME_LIMIT_S = 170.0


def cpu_count():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def worker_env():
    """Cap BLAS threads at the CPUs this process may use."""
    env = dict(os.environ)
    cap = cpu_count()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(env.get(var, ""))
        except ValueError:
            current = cap
        env[var] = str(min(max(current, 1), cap))
    return env


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.workdir = os.path.join(OUT, f"tmp-{args.workload}-{args.seed}-{os.getpid()}")
        self.env = worker_env()

    def worker(self, command, *extra):
        cmd = [sys.executable, os.path.join(ROOT, "bench", "worker.py"), command,
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--dir", self.workdir, *extra]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError(f"no time left for worker {command}")
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"worker {command} exited {proc.returncode}:\n{proc.stderr}")
        return proc.stdout

    def measure(self, trace, spans=None, ops=None):
        result = os.path.join(self.workdir, f"result-trace{trace}.json")
        extra = ["--trace", str(trace), "--result", result]
        extra += ["--spans", spans] if spans else []
        extra += ["--ops", str(ops)] if ops is not None else ["--seconds", str(self.args.seconds)]
        self.worker("run", *extra)
        with open(result, encoding="utf-8") as fh:
            return json.load(fh)

    def setup_times(self):
        """Median over fresh processes of import plus the first cold ops.

        The prepare step has already imported the package once, so the
        bytecode caches that every later process of a user finds are in place.
        """
        times, errors = [], []
        for _ in range(SETUP_PROBES):
            probe = json.loads(self.worker("setup").strip().splitlines()[-1])
            errors += probe["errors"]
            times.append(probe["setup_s"])
        return times, errors


def provenance(args, run, env):
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=False)
        rev = proc.stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "cyclodet")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "nproc": cpu_count(),
        "blas_threads": run["blas_threads"],
        "blas_threads_cap": int(env["OPENBLAS_NUM_THREADS"]),
        "versions": run["versions"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": run["params"],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "cyclodet", "__init__.py")):
        print(f"error: no cyclodet sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    # On SIGTERM, unwind so that subprocess.run kills the running worker and
    # its working directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    runner = Runner(args)
    os.makedirs(runner.workdir)
    base = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        runner.worker("prepare")
        setup, setup_errors = ([], []) if args.trace else runner.setup_times()
        run = runner.measure(args.trace, spans=base + ".spans.json" if args.trace else None)
        if args.trace:
            # The same ops again in a fresh untraced process; the difference in
            # busy time is what tracing cost.
            plain = runner.measure(0, ops=len(run["ops"]))
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)

    checks = run["checks"]
    if not args.trace:
        checks.append({"name": "setup_ops", "ok": not setup_errors,
                       "detail": "; ".join(setup_errors) or "ok"})
    root = os.path.realpath(ROOT)
    if os.path.commonpath([root, os.path.realpath(run["cyclodet_file"])]) != root:
        checks.append({"name": "imported_from_checkout", "ok": False,
                       "detail": f"cyclodet came from {run['cyclodet_file']}"})
    attempted = len(run["ops"])
    failed = sum(1 for o in run["ops"] if o["errors"])
    if not all(c["ok"] for c in checks):
        failed = attempted
    correct = failed == 0

    report = {
        "provenance": provenance(args, run, runner.env),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_op_frac": failed / attempted,
        "checks": checks,
        "named_metrics": run["named_metrics"],
        "loop_s": run["loop_s"],
        "latencies_ms": [o["latency_s"] and o["latency_s"] * 1e3 for o in run["ops"]],
        "peak_rss_after_op_mb": [o["peak_rss_mb"] for o in run["ops"]],
        "records": [{"op": i, **(o["record"] or {})} for i, o in enumerate(run["ops"])],
        "op_errors": [{"op": i, "errors": o["errors"]} for i, o in enumerate(run["ops"])
                      if o["errors"]],
    }
    if args.trace:
        traced_s, plain_s = run["busy_s"], plain["busy_s"]
        metrics = dict(run.get("layer_metrics", {}))
        if traced_s and plain_s:
            metrics["trace.overhead_frac"] = {"value": traced_s / plain_s - 1.0, "unit": "frac"}
        report["layers"] = run.get("layers")
        report["tracing_overhead"] = {"traced_busy_s": traced_s, "untraced_busy_s": plain_s,
                                      "overhead_s": traced_s - plain_s}
    else:
        metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"},
                   **run["end_to_end"]}
        report["setup_probes_s"] = setup
    report["metrics"] = metrics
    with open(base + ".json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    for c in checks:
        print(f"check {c['name']}: {'ok' if c['ok'] else 'FAILED'} - {c['detail']}")
    for name, value in sorted(report["named_metrics"].items()):
        print(f"{name} = {value:.6g}")
    print(f"failed_op_frac = {report['failed_op_frac']:.6g} ({failed}/{attempted})")
    print(f"report: {os.path.relpath(base + '.json', ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
