"""One benchmark workload in a fresh interpreter (started by run.py).

    python3 perfbench/worker.py warm|setup --workload NAME --seed N [--size smoke]
    python3 perfbench/worker.py run --workload NAME --seed N --seconds S --trace 0|1

``warm`` only imports (so that the timed set-ups find the files cached),
``setup`` only times the set-up.  ``run`` sets up, repeats rounds of the
workload untraced while another round is expected to end within
``--seconds`` (and until at least the workload's ``decided_rounds`` have
run: decided_frac counts those only, so it is fixed for a seed), checks
every round outside the timed region, and replays the certificates each
round emitted with ``homcover verify``; verify_s is the mean replay time per
certificate.  wall_s is the trimmed mean of the round times: the machine's
speed drifts between a few levels on a shared host, and a mean over the
run moves with the share of time spent at each level where a median jumps
between them.  With ``--trace 1`` it then runs round 0 again under the
span tracer, replays its certificates traced, and where the workload asks
for it runs round 0 once more on a single worker thread.  Progress goes to
stderr; the last line of stdout is one JSON object.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import uuid  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))   # this checkout's homcover, never an installed one

import numpy as np  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from homcover import runtime  # noqa: E402

REPLAY_BUDGET_S = 2.0    # per run: a short replay is repeated, spread over the rounds
REPLAY_MAX_REPS = 5000
TRIM = 0.1               # share of round times cut at each end before the mean


def set_up(args):
    """Build the workload and run its set-up; returns the workload and the
    seconds since this process started (imports included)."""
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, args.size, str(workdir))
    runtime.set_threads(wl.threads)
    wl.setup()
    return wl, time.perf_counter() - START


def replay_seconds(certs, min_s):
    """Median time of one replay of ``certs``, repeated until ``min_s`` has
    passed; also whether every certificate held on the first replay."""
    times = []
    ok = None
    while not times or (sum(times) < min_s and len(times) < REPLAY_MAX_REPS):
        start = time.perf_counter()
        result = workloads.replay(certs)
        times.append(time.perf_counter() - start)
        ok = result if ok is None else ok
    return statistics.median(times), all(ok)


def trimmed_mean(values, cut=TRIM):
    """Mean of ``values`` without the lowest and highest ``cut`` share of them."""
    ordered = sorted(values)
    k = int(len(ordered) * cut)
    return statistics.fmean(ordered[k:len(ordered) - k])


def percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def traced_round(wl, rounds, failures):
    """Round 0 again under the tracer, then its certificates replayed
    traced; returns the per-layer metrics and the operations attempted."""
    tracer = layers.make_tracer(uuid.uuid4().hex)
    tracer.install(layers.modules())
    try:
        with tracer.span("bench.round", layers.BENCH_LAYER):
            traced = wl.run_round(0, label="traced")
    finally:
        tracer.uninstall()
    certs = wl.certificates(traced)
    tracer.install(layers.modules())
    try:
        with tracer.span("bench.verify", layers.BENCH_LAYER):
            replayed = workloads.replay(certs)
    finally:
        tracer.uninstall()
    roots = {s["name"]: s["end"] - s["start"] for s in tracer.spans if s["parent"] is None}
    failures += traced.failures + wl.check(traced)
    if not all(replayed):
        failures.append("traced round: a certificate failed its replay")
    if wl.digest(traced) != wl.digest(rounds[0]):
        failures.append("traced round 0 gave other results than untraced round 0")

    speedup = 0.0
    if wl.single_thread_baseline:
        runtime.set_threads(1)
        try:
            single = wl.run_round(0, label="single-thread")
        finally:
            runtime.set_threads(wl.threads)
        speedup = single.wall_s / rounds[0].wall_s

    extras = {
        "certificate_bytes": sum(os.path.getsize(p) for p in certs),
        "output_bytes": wl.output_bytes(traced),
        "threads": wl.threads,
        "speedup_1t": speedup,
        "traced_trials": len(traced.trial_s),
        "traced_wall_s": roots["bench.round"],
        "untraced_wall_s": rounds[0].wall_s,
        "traced_verify_s": roots["bench.verify"],
        "decided_frac": traced.decided / max(traced.attempted, 1),
    }
    metrics = layers.per_layer_metrics(tracer, extras)
    total = roots["bench.round"] + roots["bench.verify"]
    if abs(metrics["trace.self_sum_s"][0] - total) > 1e-6 * total + 1e-9:
        failures.append("layer self times do not add up to the traced time")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{wl.name}.jsonl", "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return metrics, traced.attempted + len(certs)


def run(args):
    wl, setup_s = set_up(args)
    print(f"[{wl.name}] set-up {setup_s:.3f} s, {wl.threads} worker threads", file=sys.stderr)
    rounds = []
    deadline = time.perf_counter() + args.seconds
    # start a round only if it should end before the window does, going by
    # the mean so far: long rounds would otherwise overrun by a whole round
    while len(rounds) < wl.decided_rounds or \
            time.perf_counter() + statistics.fmean(r.wall_s for r in rounds) / 2 < deadline:
        rounds.append(wl.run_round(len(rounds)))
        print(f"[{wl.name}] round {len(rounds) - 1}: {rounds[-1].wall_s:.3f} s", file=sys.stderr)

    failures = [f for rnd in rounds for f in rnd.failures]
    attempted = sum(rnd.attempted for rnd in rounds)
    replay_s, n_certs = 0.0, 0
    for rnd in rounds:
        failures += wl.check(rnd)
        certs = wl.certificates(rnd)
        if certs:
            seconds, ok = replay_seconds(certs, REPLAY_BUDGET_S / len(rounds))
            replay_s += seconds
            n_certs += len(certs)
            if not ok:
                failures.append(f"round {rnd.index}: a certificate failed its replay")

    trials_ms = [1000.0 * dt for rnd in rounds for dt in rnd.trial_s]
    decided = rounds[:wl.decided_rounds]
    result = {
        "setup_s": setup_s,
        "wall_s": trimmed_mean([rnd.wall_s for rnd in rounds]),
        "trial_ms.p50": percentile(trials_ms, 50),
        "trial_ms.p90": percentile(trials_ms, 90),
        "verify_s": replay_s / max(n_certs, 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "decided_frac": sum(r.decided for r in decided) / max(sum(r.attempted for r in decided), 1),
        "rounds": len(rounds),
        "trials": len(trials_ms),
        "threads": wl.threads,
        "digest": wl.digest(rounds[0]),
    }
    if args.trace:
        per_layer, traced_attempted = traced_round(wl, rounds, failures)
        attempted += traced_attempted
        result["per_layer"] = per_layer
    attempted += n_certs
    result.update(attempted=attempted, failed=len(failures), failures=failures)
    shutil.rmtree(wl.workdir, ignore_errors=True)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["warm", "setup", "run"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "smoke"], default="full")
    args = parser.parse_args(argv)
    stdout = sys.stdout
    # the program prints to stdout (``homcover verify``); keep stdout for the result
    with contextlib.redirect_stdout(sys.stderr):
        if args.mode == "warm":
            result = {}
        elif args.mode == "setup":
            result = {"setup_s": set_up(args)[1]}
        else:
            result = run(args)
    stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
