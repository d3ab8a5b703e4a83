"""The one seam where coverage masks are evaluated, and the thread-count setting.

Every mask runs on the calling thread.  The coverage kernel walks points in
many small numpy calls that hold the GIL, so splitting a point set across
threads made it slower, never faster.  The thread count is still parsed and
validated (``--threads``, ``HOMCOVER_THREADS``) but starts no thread, and no
result ever depended on it.
"""

from __future__ import annotations

import os

import numpy as np

_ENV_VAR = "HOMCOVER_THREADS"
_threads = None

# unused here; perfbench's trace hook reads it to flag large mask calls
_PARALLEL_MIN_POINTS = 50_000


def get_threads() -> int:
    """Thread count: set_threads, else HOMCOVER_THREADS, else every usable
    CPU; never more than the usable CPUs.  A HOMCOVER_THREADS that is not
    a nonnegative integer raises ValueError."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    count = _threads
    if count is None:
        env = os.environ.get(_ENV_VAR)
        if not env:
            return cpus
        if not env.isdecimal():
            raise ValueError(f"{_ENV_VAR}={env!r} is not a nonnegative integer")
        count = int(env)
    return min(max(1, count), cpus)


def set_threads(count) -> None:
    """Pin the thread count; None or 0 restores the default."""
    global _threads
    if count is not None and int(count) < 0:
        raise ValueError(f"thread count must be nonnegative, got {count}")
    _threads = int(count) if count else None


def chunked_mask(fn, points: np.ndarray) -> np.ndarray:
    """Evaluate a points -> per-point array function on the calling thread."""
    return fn(points)
