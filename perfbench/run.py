"""homcover benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: illuminate-square, schedule-square, vrep3 (see
perfbench/spec.json for their inputs, why each was chosen, and which
end-to-end metric each per-layer metric should move).  The workload runs
in fresh child processes, one at a time, one caller in a closed loop, with
homcover's worker pool pinned to the processors this process may use.
Untraced (``--trace 0``), the last stdout line carries the end-to-end
metrics.  Set-up is timed in the run's own process and in fresh processes
started before and after it (as many after as before: up to
MAX_SETUP_RUNS a side while they fit in SETUP_BUDGET_S), after one
untimed process that only imports; it is reported as their median.
Traced (``--trace 1``), it carries the per-layer metrics of one traced
round, and the spans go to .perfbench_out/trace-<workload>.jsonl.
Must run from a checkout that holds homcover's sources under src/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

WORKLOADS = ("illuminate-square", "schedule-square", "vrep3")
MAX_SETUP_RUNS = 4       # timed set-up processes on each side of the run
SETUP_BUDGET_S = 2.0     # per side; at least one process a side
TIME_LIMIT_S = 170.0
END_TO_END = {"setup_s": "s", "wall_s": "s", "trial_ms.p50": "ms", "trial_ms.p90": "ms",
              "verify_s": "s", "peak_rss_mb": "MB", "decided_frac": "ratio"}


def child_env() -> dict:
    env = dict(os.environ)
    # homcover's own pool is the only parallelism; keep BLAS single-threaded
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # one malloc arena: with one per thread, peak RSS moves by a tenth with
    # which pool thread happens to grow which arena
    env["MALLOC_ARENA_MAX"] = "1"
    env.pop("HOMCOVER_THREADS", None)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(argv, deadline: float) -> dict:
    """Run worker.py to completion (killed at the deadline) and parse the
    JSON object on its last stdout line."""
    proc = subprocess.run([sys.executable, str(WORKER)] + argv, cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(argv)} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="homcover benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--size", choices=["full", "smoke"], default="full",
                        help="smoke: tiny inputs for the benchmark's own tests")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "homcover" / "__init__.py").is_file():
        print(f"perfbench: no homcover sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds < 0:
        print("perfbench: --seconds must be >= 0", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    try:
        run_child(["warm"] + common, deadline)
        setups = []
        if not args.trace and args.size == "full":
            while not setups or \
                    (len(setups) < MAX_SETUP_RUNS and sum(setups) < SETUP_BUDGET_S):
                setups.append(run_child(["setup"] + common, deadline)["setup_s"])
        res = run_child(["run"] + common + ["--seconds", str(args.seconds),
                                            "--trace", str(args.trace)], deadline)
        for _ in range(len(setups)):
            setups.append(run_child(["setup"] + common, deadline)["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])
    res["setup_s"] = statistics.median(setups)

    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in res["per_layer"].items()}
    else:
        metrics = {name: {"value": res[name], "unit": unit} for name, unit in END_TO_END.items()}
    for failure in res["failures"]:
        print(f"FAILED: {failure}")
    print(f"workload {args.workload} seed {args.seed}: {res['rounds']} round(s), "
          f"{res['trials']} trial latencies, {res['threads']} worker threads, "
          f"set-up runs {len(setups)}")
    print(f"digest {res['digest']}")
    print(f"failed_frac {res['failed'] / res['attempted']:.6g} ratio "
          f"({res['failed']} of {res['attempted']})")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
