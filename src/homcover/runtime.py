"""Worker-count plumbing for probe-heavy loops.

Point sets are chunked and evaluated on a thread pool (numpy releases the
GIL inside the big matmuls); chunks are concatenated in order, so results
are identical to the sequential path.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

_ENV_VAR = "HOMCOVER_THREADS"
_threads = None

_PARALLEL_MIN_POINTS = 50_000


def get_threads() -> int:
    """Worker count: set_threads, else HOMCOVER_THREADS, else every usable
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
    """Pin the worker count; None or 0 restores the default."""
    global _threads
    if count is not None and int(count) < 0:
        raise ValueError(f"thread count must be nonnegative, got {count}")
    _threads = int(count) if count else None


def chunked_mask(fn, points: np.ndarray) -> np.ndarray:
    """Evaluate a points -> per-point array function, chunk-parallel when large."""
    n_threads = get_threads()
    m = points.shape[0]
    if n_threads <= 1 or m < _PARALLEL_MIN_POINTS:
        return fn(points)
    chunks = np.array_split(points, n_threads)
    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        parts = list(pool.map(fn, chunks))
    return np.concatenate(parts)
