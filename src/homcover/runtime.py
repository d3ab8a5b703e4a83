"""The thread-count setting, validated and otherwise ignored.

Every coverage test runs on the calling thread: the coverage kernel walks
points in many small numpy calls that hold the GIL, so splitting a point
set across threads made it slower, never faster.  ``--threads`` is still
accepted and checked here, and no result ever depended on it.
"""

from __future__ import annotations


def set_threads(count) -> None:
    """Check a thread count: None or an integer >= 0, else ValueError.
    Starts no thread and keeps nothing."""
    if count is not None and (not isinstance(count, int) or count < 0):
        raise ValueError(f"thread count must be a nonnegative integer, got {count!r}")
