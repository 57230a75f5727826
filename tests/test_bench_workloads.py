"""The benchmark's calls into cyclodet: every workload prepares and runs its
set-up ops without an error, so a changed signature fails here first."""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("name", ["capture", "mc_detect", "mc_null"])
def test_workload_set_up_ops_run_without_errors(name, tmp_path):
    workload = _workloads()[name](seed=1, workdir=str(tmp_path))
    workload.prepare()
    specs = workload.setup_ops()
    assert specs
    for spec in specs:
        result = workload.run(spec)
        assert result["errors"] == [], (spec, result["errors"])
