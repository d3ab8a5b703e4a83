"""Layer numbers for the coverage kernel and the illumination falsifier.

Kernel, ``bodies.first_cover``: runs fn-schedule branch B (the cube in
R^2, desk mode, ``--lambda 0.03 --count 13000 --scale 8 --epsilon 0.003
--seed 902``) once, captures every ``first_cover`` call it makes (nine
marking calls, nine per-cube certificates and the final certificate), and
replays each call alone: the median of 7 timings and the tracemalloc peak.

Falsifier, ``illum.verify_illumination``: runs
``run_illumination_pipeline(cube(2), trials=1, rng=RngSpec(101, 0))``
(round 0 of perfbench's illuminate-square at its default seed, one trial),
captures the sources and the stream of its first certified trial, and
replays the falsifier on them at 100,000 probes: the median of 7 timings
for the probe build, for ``illuminated_mask`` on those probes and for the
whole ``verify_illumination``.

    PYTHONPATH=src python3 tools/bench_layers.py

Writes ``BENCH_kernel.json`` and ``BENCH_illum.json`` in the current
directory.  A run is keyed by a hash of the ``homcover`` sources it
imported; runs of other sources already in a file are kept, so running
this script in a checkout of the parent and then in the changed tree, with
the same files, gives both sides.
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
from homcover import bodies, cli, covercert, illum, nets
from homcover.bodies import ConvexBody
from homcover.randvol import RngSpec

REPEATS = 7
BRANCH_B = ["fn-schedule", "--body", "cube", "--dim", "2", "--mode", "desk", "--threads", "1",
            "--lambda", "0.03", "--count", "13000", "--scale", "8", "--epsilon", "0.003",
            "--seed", "902"]
PROBES = 100_000
PIPELINE = "run_illumination_pipeline(cube(2), trials=1, rng=RngSpec(101, 0))"


def source_hash() -> str:
    src = os.path.dirname(homcover.__file__)
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:12]


def median_ms(fn) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return round(1e3 * statistics.median(times), 3)


def add_run(path: str, header: dict, run: dict) -> None:
    """Write ``header`` and the runs of ``path`` with ``run`` in place of
    any earlier run of the same sources."""
    runs = []
    if os.path.exists(path):
        with open(path) as fh:
            runs = [r for r in json.load(fh)["runs"] if r["source"] != run["source"]]
    with open(path, "w") as fh:
        json.dump({**header, "runs": runs + [run]}, fh, indent=1)
        fh.write("\n")


def capture_kernel_calls() -> list:
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


def measure_kernel_call(body, family, points, shrink) -> dict:
    median = median_ms(lambda: bodies.first_cover(body, family, points, shrink))
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    first = bodies.first_cover(body, family, points, shrink)
    peak = tracemalloc.get_traced_memory()[1] - base
    tracemalloc.stop()
    return {"points": int(points.shape[0]), "copies": int(family.ratios.size),
            "covered": int(np.count_nonzero(first >= 0)), "median_ms": median,
            "tracemalloc_peak_mb": round(peak / 2 ** 20, 3)}


def bench_kernel(machine: dict) -> None:
    calls = [measure_kernel_call(*call) for call in capture_kernel_calls()]
    run = {**machine, "calls": calls,
           "total_median_ms": round(sum(c["median_ms"] for c in calls), 3),
           "max_tracemalloc_peak_mb": max(c["tracemalloc_peak_mb"] for c in calls)}
    add_run("BENCH_kernel.json", {"command": " ".join(BRANCH_B), "repeats": REPEATS}, run)
    for i, c in enumerate(calls):
        print(f"{i:2d} points {c['points']:7d} copies {c['copies']:6d} "
              f"{c['median_ms']:9.3f} ms peak {c['tracemalloc_peak_mb']:7.3f} MB")
    print(f"kernel total {run['total_median_ms']:.1f} ms, source {run['source']}")


def capture_falsifier_call() -> dict:
    """The arguments of the pipeline's first verify_illumination call."""
    falsifier, calls = illum.verify_illumination, []

    def recording(body, sources, rng, probes, **kwargs):
        calls.append(dict(body=body, sources=sources, rng=rng, **kwargs))
        return falsifier(body, sources, rng, probes, **kwargs)

    illum.verify_illumination = recording
    try:
        illum.run_illumination_pipeline(ConvexBody.cube(2), trials=1, rng=RngSpec(101, 0))
    finally:
        illum.verify_illumination = falsifier
    if not calls:
        raise SystemExit("the trial is not certified: there is no source set to replay")
    return calls[0]


def bench_falsifier(machine: dict) -> None:
    call = capture_falsifier_call()
    body, sources, rng = call["body"], call["sources"], call["rng"]
    build = illum._boundary_probes
    pts = build(body, rng.generator(), PROBES)

    def verify():
        return illum.verify_illumination(body, sources, rng, PROBES,
                                         certificate=call["certificate"], r_used=call["r_used"])

    run = {**machine, "sources": len(sources), "status": verify().status,
           "probe_build": build.__name__,
           "probes_sha256": hashlib.sha256(pts.tobytes()).hexdigest()[:16],
           "probe_build_ms": median_ms(lambda: build(body, rng.generator(), PROBES)),
           "illuminated_mask_ms": median_ms(lambda: illum.illuminated_mask(body, sources, pts)),
           "verify_illumination_ms": median_ms(verify)}
    add_run("BENCH_illum.json", {"pipeline": PIPELINE, "probes": PROBES, "repeats": REPEATS}, run)
    print(f"{run['sources']} sources, {run['status']}, probes {run['probes_sha256']}")
    print(f"probe build {run['probe_build_ms']:.3f} ms, "
          f"illuminated_mask {run['illuminated_mask_ms']:.3f} ms, "
          f"verify_illumination {run['verify_illumination_ms']:.3f} ms, source {run['source']}")


def main() -> None:
    machine = {"source": source_hash(), "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
               "numpy": np.__version__}
    bench_kernel(machine)
    bench_falsifier(machine)


if __name__ == "__main__":
    main()
