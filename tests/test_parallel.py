"""The job runner: every job once, results in job order, failures raised once
every thread has ended; and no module but parallel.py starts a thread."""

import re
import sys
import threading
import time
from pathlib import Path

import pytest

from cyclodet.parallel import run_jobs

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cyclodet"


@pytest.fixture
def fast_switching():
    # Threads switch as often as they can, so a job lost or taken twice shows.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


@pytest.mark.parametrize("n_workers", [1, 2, 3, 4])
def test_run_jobs_runs_each_job_once_and_keeps_job_order(fast_switching, n_workers):
    ran, lock = [], threading.Lock()

    def work(i, scale, worker):
        with lock:
            ran.append((i, worker))
        return i * scale

    threads = threading.active_count()
    jobs = [(i, 3) for i in range(2000)]
    results = run_jobs(work, jobs, [(w,) for w in range(n_workers)])
    assert results == [3 * i for i in range(2000)]
    assert sorted(i for i, _ in ran) == list(range(2000))
    assert {w for _, w in ran} <= set(range(n_workers))
    assert threading.active_count() == threads


@pytest.mark.parametrize("n_workers", [2, 3, 4])
@pytest.mark.parametrize("failing", ["caller", "helper"])
def test_run_jobs_raises_a_failure_once_every_thread_has_ended(
    fast_switching, n_workers, failing
):
    # Each thread takes one job and waits for the others to hold theirs; then
    # the failing worker raises while the others hold their jobs a while. No
    # job is taken after the failure, and the failure is raised only after
    # every helper has ended.
    started = []
    barrier = threading.Barrier(n_workers)
    fails = 0 if failing == "caller" else n_workers - 1

    def work(i, worker):
        started.append(i)
        barrier.wait(10)
        if worker == fails:
            raise MemoryError(f"{failing} failed")
        time.sleep(0.2)
        return i

    threads = threading.active_count()
    with pytest.raises(MemoryError, match=f"{failing} failed"):
        run_jobs(work, [(i,) for i in range(10 * n_workers)], [(w,) for w in range(n_workers)])
    assert threading.active_count() == threads
    assert sorted(started) == list(range(n_workers))


def test_only_the_job_runner_starts_threads():
    # One runner for every thread keeps the failure and join rules in one place.
    names = re.compile(r"\bThread\w*|\b_thread\b|concurrent\.futures|multiprocessing")
    starters = sorted(
        path.name for path in PACKAGE.glob("*.py")
        if path.name != "parallel.py" and names.search(path.read_text())
    )
    assert starters == []
    assert names.search((PACKAGE / "parallel.py").read_text())  # the scan finds it
