import os
import threading

import pytest

from homcover import runtime


def test_set_threads_validates_and_starts_no_thread(monkeypatch):
    def refuse(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    for count in (None, 0, 1, len(os.sched_getaffinity(0))):
        runtime.set_threads(count)
    with pytest.raises(ValueError):
        runtime.set_threads(-1)
