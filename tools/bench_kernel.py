"""Per-call numbers for the coverage kernel, ``bodies.first_cover``.

Runs fn-schedule branch B (the cube in R^2, desk mode, ``--lambda 0.03
--count 13000 --scale 8 --epsilon 0.003 --seed 902``, one thread) once,
captures every ``first_cover`` call it makes (nine marking calls, nine
per-cube certificates and the final certificate), and replays each call
alone: the median of 7 timings and the tracemalloc peak.

    PYTHONPATH=src python3 tools/bench_kernel.py

Writes ``BENCH_kernel.json`` in the current directory.  A run is keyed by
a hash of the ``homcover`` sources it imported; runs of other sources
already in the file are kept, so running this script in a checkout of the
parent and then in the changed tree, with the same file, gives both sides.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import tempfile
import time
import tracemalloc

import numpy as np

import homcover
from homcover import bodies, cli, covercert, nets, runtime

OUT = "BENCH_kernel.json"
REPEATS = 7
BRANCH_B = ["fn-schedule", "--body", "cube", "--dim", "2", "--mode", "desk", "--threads", "1",
            "--lambda", "0.03", "--count", "13000", "--scale", "8", "--epsilon", "0.003",
            "--seed", "902"]


def source_hash() -> str:
    src = os.path.dirname(homcover.__file__)
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:12]


def capture_calls() -> list:
    """(body, family, points, shrink) of every first_cover call of branch B."""
    kernel, calls = bodies.first_cover, []

    def recording(body, placements, points, shrink=0.0):
        calls.append((body, bodies.Homothets.of(placements), np.array(points), shrink))
        return kernel(body, placements, points, shrink)

    modules = (bodies, covercert, nets)
    for module in modules:
        module.first_cover = recording
    try:
        with tempfile.TemporaryDirectory() as tmp:
            code = cli.dispatch(BRANCH_B + ["--out", os.path.join(tmp, "B.json"),
                                            "--certificate", os.path.join(tmp, "B.cert.json")])
    finally:
        for module in modules:
            module.first_cover = kernel
    if code != cli.EXIT_OK:
        raise SystemExit(f"branch B exited {code}")
    return calls


def measure(body, family, points, shrink) -> dict:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        first = bodies.first_cover(body, family, points, shrink)
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    bodies.first_cover(body, family, points, shrink)
    peak = tracemalloc.get_traced_memory()[1] - base
    tracemalloc.stop()
    return {"points": int(points.shape[0]), "copies": int(family.ratios.size),
            "covered": int(np.count_nonzero(first >= 0)),
            "median_ms": round(1e3 * statistics.median(times), 3),
            "tracemalloc_peak_mb": round(peak / 2 ** 20, 3)}


def main() -> None:
    runtime.set_threads(1)
    calls = [measure(*call) for call in capture_calls()]
    run = {"source": source_hash(), "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
           "numpy": np.__version__, "calls": calls,
           "total_median_ms": round(sum(c["median_ms"] for c in calls), 3),
           "max_tracemalloc_peak_mb": max(c["tracemalloc_peak_mb"] for c in calls)}
    runs = []
    if os.path.exists(OUT):
        with open(OUT) as fh:
            runs = [r for r in json.load(fh)["runs"] if r["source"] != run["source"]]
    with open(OUT, "w") as fh:
        json.dump({"command": " ".join(BRANCH_B), "repeats": REPEATS, "runs": runs + [run]},
                  fh, indent=1)
        fh.write("\n")
    for i, c in enumerate(calls):
        print(f"{i:2d} points {c['points']:7d} copies {c['copies']:6d} "
              f"{c['median_ms']:9.3f} ms peak {c['tracemalloc_peak_mb']:7.3f} MB")
    print(f"total {run['total_median_ms']:.1f} ms, source {run['source']}")


if __name__ == "__main__":
    main()
