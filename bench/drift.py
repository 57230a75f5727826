#!/usr/bin/env python3
"""Compare the per-op records of two benchmark reports.

    python3 bench/drift.py NEW.json OLD.json

Records of the same workload and seed are matched by op index; runs of
different length share their common prefix. Numbers are compared by relative
drift |a - b| / max(|a|, |b|); anything else (labels, exit codes) must match
exactly and is counted as a mismatch otherwise.
"""

import json
import sys


def _leaves(value, path=""):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    else:
        yield path, value


def compare(new: dict, old: dict) -> dict:
    for key in ("workload", "seed"):
        if new["provenance"][key] != old["provenance"][key]:
            raise ValueError(f"reports differ in {key}: "
                             f"{new['provenance'][key]} vs {old['provenance'][key]}")
    common = min(len(new["records"]), len(old["records"]))
    worst, worst_at, mismatches = 0.0, None, []
    for a, b in zip(new["records"][:common], old["records"][:common]):
        old_leaves = dict(_leaves(b))
        for path, x in _leaves(a):
            y = old_leaves.get(path)
            where = f"op {a['op']} {path}"
            numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y))
            if not numeric:
                if x != y:
                    mismatches.append(f"{where}: {x!r} vs {y!r}")
                continue
            scale = max(abs(x), abs(y))
            rel = abs(x - y) / scale if scale else 0.0
            if rel > worst:
                worst, worst_at = rel, where
    return {"common_ops": common, "max_rel_drift": worst, "max_rel_drift_at": worst_at,
            "mismatches": len(mismatches), "first_mismatches": mismatches[:5]}


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    reports = []
    for path in sys.argv[1:]:
        with open(path, encoding="utf-8") as fh:
            reports.append(json.load(fh))
    print(json.dumps(compare(*reports), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
