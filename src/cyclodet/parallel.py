"""Independent jobs shared among threads, the one place the package starts one.

``iq_io.decimate`` runs its batches and ``run_detection_sweep`` its trials
through ``run_jobs``, with one thread per CPU the process may run on. Each
splits its work so that the result does not depend on the number of threads;
nothing about that number can be set. Most of the work runs in numpy, which
releases the interpreter lock. The caches the trials share hold read-only
values, so two threads that build one entry at once do no harm.
"""

from __future__ import annotations

import os
import threading


def cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_jobs(work, jobs, workers) -> list:
    """``work(*job, *worker)`` for every job, with one thread per worker: the
    calling thread with the first, a helper thread of its own with each
    other. Each thread takes the next job left, under one lock, until none
    is left or a job has failed. Returns the results in job order once every
    helper has finished, so no thread outlives the call; after a failure it
    raises the first exception instead."""
    results = [None] * len(jobs)
    left = iter(enumerate(jobs))
    lock = threading.Lock()
    errors = []

    def take():
        with lock:
            return None if errors else next(left, None)

    def run(*worker) -> None:
        try:
            for index, job in iter(take, None):
                results[index] = work(*job, *worker)
        except BaseException as exc:  # re-raised in the caller after join
            with lock:
                errors.append(exc)

    threads = [threading.Thread(target=run, args=worker) for worker in workers[1:]]
    try:
        for thread in threads:
            thread.start()
        run(*workers[0])
    finally:
        for thread in threads:
            if thread.ident is not None:
                thread.join()
    if errors:
        raise errors[0]
    return results
