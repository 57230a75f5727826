"""Independent work shared among one thread per CPU the process may run on.

``iq_io.decimate`` shares its batches and ``run_detection_sweep`` its trials
this way. Each splits its work so that the result does not depend on the
number of threads; nothing about that number can be set. Most of the work
runs in numpy, which releases the interpreter lock.
"""

from __future__ import annotations

import functools
import os
import threading


def cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_shares(run, shares) -> None:
    """``run(*share)`` for each share: the first in the calling thread, each
    other in a helper thread of its own. Returns once every helper has
    finished, so no thread outlives the call, and then raises the first
    exception a helper raised."""
    errors = []

    def helper(*args) -> None:
        try:
            run(*args)
        except BaseException as exc:  # re-raised in the caller after join
            errors.append(exc)

    threads = [threading.Thread(target=helper, args=share) for share in shares[1:]]
    try:
        for thread in threads:
            thread.start()
        run(*shares[0])
    finally:
        for thread in threads:
            if thread.ident is not None:
                thread.join()
    if errors:
        raise errors[0]


def locked_cache(maxsize: int):
    """``functools.lru_cache(maxsize)`` with one lock held around each call,
    so threads that miss one key at once build its entry once."""

    def decorate(build):
        cached = functools.lru_cache(maxsize)(build)
        lock = threading.Lock()

        @functools.wraps(build)
        def call(*args):
            with lock:
                return cached(*args)

        call.cache_info, call.cache_clear = cached.cache_info, cached.cache_clear
        return call

    return decorate
