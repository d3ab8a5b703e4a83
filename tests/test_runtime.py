import os

from homcover import runtime


def test_thread_count_from_env_and_clamped_to_usable_cpus(monkeypatch):
    monkeypatch.setenv("HOMCOVER_THREADS", "1")
    assert runtime.get_threads() == 1
    try:
        runtime.set_threads(10 ** 6)  # only read back, never used to start threads
        assert runtime.get_threads() == len(os.sched_getaffinity(0))
    finally:
        runtime.set_threads(None)
