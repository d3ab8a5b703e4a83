"""Stage numbers for the illumination falsifier, ``illum.verify_illumination``.

Runs ``run_illumination_pipeline(cube(2), trials=1, rng=RngSpec(101, 0))``
(round 0 of perfbench's illuminate-square at its default seed, one trial),
captures the sources and the stream of its first certified trial, and
replays the falsifier on them at 100,000 probes: the median of 7 timings
for the probe build, for ``illuminated_mask`` on those probes and for the
whole ``verify_illumination``.

    PYTHONPATH=src python3 tools/bench_illum.py

Writes ``BENCH_illum.json`` in the current directory.  A run is keyed by
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
import time

import numpy as np

import homcover
from homcover import illum
from homcover.bodies import ConvexBody
from homcover.randvol import RngSpec

OUT = "BENCH_illum.json"
REPEATS = 7
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


def row_form_probes(body, gen, count):
    """The probe build as trees without ``illum._boundary_probes`` inline it
    in ``verify_illumination``."""
    A, b = body.halfspaces
    anchor, _ = body.chebyshev
    dirs = gen.normal(size=(max(count - body.vertices.shape[0], 0), body.dim))
    norms = np.linalg.norm(dirs, axis=1)
    dirs = dirs[norms > 1e-12] / norms[norms > 1e-12][:, None]
    coef = dirs @ A.T
    with np.errstate(divide="ignore"):
        t = np.min(np.where(coef > 1e-12, (b - A @ anchor) / coef, np.inf), axis=1)
    return np.vstack([body.vertices, anchor + t[:, None] * dirs])


def capture_call() -> dict:
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


def median_ms(fn) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return round(1e3 * statistics.median(times), 3)


def main() -> None:
    call = capture_call()
    body, sources, rng = call["body"], call["sources"], call["rng"]
    build = getattr(illum, "_boundary_probes", row_form_probes)
    pts = build(body, rng.generator(), PROBES)
    verdict = illum.verify_illumination(body, sources, rng, PROBES, certificate=call["certificate"],
                                        r_used=call["r_used"])
    run = {"source": source_hash(), "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
           "numpy": np.__version__, "sources": len(sources), "status": verdict.status,
           "probe_build": build.__name__,
           "probes_sha256": hashlib.sha256(pts.tobytes()).hexdigest()[:16],
           "probe_build_ms": median_ms(lambda: build(body, rng.generator(), PROBES)),
           "illuminated_mask_ms": median_ms(lambda: illum.illuminated_mask(body, sources, pts)),
           "verify_illumination_ms": median_ms(lambda: illum.verify_illumination(
               body, sources, rng, PROBES, certificate=call["certificate"],
               r_used=call["r_used"]))}
    runs = []
    if os.path.exists(OUT):
        with open(OUT) as fh:
            runs = [r for r in json.load(fh)["runs"] if r["source"] != run["source"]]
    with open(OUT, "w") as fh:
        json.dump({"pipeline": PIPELINE, "probes": PROBES, "repeats": REPEATS,
                   "runs": runs + [run]}, fh, indent=1)
        fh.write("\n")
    print(f"{run['sources']} sources, {run['status']}, probes {run['probes_sha256']}")
    print(f"probe build {run['probe_build_ms']:.3f} ms ({run['probe_build']}), "
          f"illuminated_mask {run['illuminated_mask_ms']:.3f} ms, "
          f"verify_illumination {run['verify_illumination_ms']:.3f} ms, source {run['source']}")


if __name__ == "__main__":
    main()
