"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

They check that inputs repeat for a seed, that metric names and units
agree between BENCHMARK.json and the code, the self-time arithmetic, and
that a tiny run of every workload passes its own correctness checks.
"""

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from homcover.randvol import RngSpec, difference_volume_ratio  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench_run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def smoke_run(workload, seed, trace=0):
    proc = bench_run("--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    return proc


def digest(proc):
    return next(line.split()[1] for line in proc.stdout.splitlines()
                if line.startswith("digest "))


def test_vrep3_body_and_ratio_repeat_for_a_seed():
    a, b = workloads.Vrep3(3).make_body(), workloads.Vrep3(3).make_body()
    assert np.array_equal(a.vertices, b.vertices)
    ra = difference_volume_ratio(a, RngSpec(3), samples=1000)[0]
    rb = difference_volume_ratio(b, RngSpec(3), samples=1000)[0]
    assert ra == rb


def test_metric_names_and_units_match_benchmark_json():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _ in layers.PER_LAYER]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names + [w["name"] for w in spec["workloads"]])


def test_self_time_subtracts_child_coverage_and_aggregates():
    spans = [
        {"id": 0, "parent": None, "name": "root", "layer": "bench", "start": 0.0, "end": 10.0,
         "agg": {}},
        {"id": 1, "parent": 0, "name": "a", "layer": "x", "start": 1.0, "end": 4.0,
         "agg": {"lp": 1.0}},
        {"id": 2, "parent": 0, "name": "b", "layer": "y", "start": 5.0, "end": 8.0, "agg": {}},
        {"id": 3, "parent": 2, "name": "c", "layer": "x", "start": 6.0, "end": 7.0, "agg": {}},
    ]
    by_layer, by_name = self_times(spans)
    assert by_layer == pytest.approx({"bench": 4.0, "x": 3.0, "y": 2.0, "lp": 1.0})
    assert sum(by_layer.values()) == pytest.approx(10.0)
    assert by_name["a"] == pytest.approx(2.0)
    # overlapping children cover their union only once
    spans[2]["start"] = 3.0
    assert self_times(spans)[1]["root"] == pytest.approx(10.0 - 7.0)


def test_tracer_self_times_add_up_to_the_root():
    mod = types.ModuleType("fake")

    def leaf(n):
        return sum(range(n))

    def inner(n):
        return [mod.leaf(n) for _ in range(50)]

    def outer(n):
        return mod.inner(n), mod.leaf(n)

    for fn in (leaf, inner, outer):
        fn.__module__ = "fake"
        setattr(mod, fn.__name__, fn)
    tracer = Tracer("t", aggregated=("fake.leaf",))
    tracer.install({"fake": mod})
    try:
        with tracer.span("root", "bench"):
            mod.outer(2000)
    finally:
        tracer.uninstall()
    assert mod.outer is outer
    by_layer, by_name = self_times(tracer.spans)
    root = next(s for s in tracer.spans if s["parent"] is None)
    assert sum(by_layer.values()) == pytest.approx(root["end"] - root["start"], rel=1e-9)
    assert tracer.calls["fake.leaf"] == 51 and tracer.aggregated_count == 51
    assert [s["name"] for s in tracer.spans] == ["fake.inner", "fake.outer", "root"]


def test_trimmed_mean_drops_a_tenth_at_each_end():
    assert worker.trimmed_mean([100.0] + [1.0] * 8 + [-50.0]) == 1.0
    assert worker.trimmed_mean([2.0, 4.0]) == 3.0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_passes_its_checks_and_repeats_for_a_seed(workload):
    procs = [smoke_run(workload, 5) for _ in range(2)]
    for proc in procs:
        result = last_json(proc)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == set(run.END_TO_END)
        assert "failed_frac 0 ratio" in proc.stdout
    assert digest(procs[0]) == digest(procs[1])


def test_another_seed_gives_other_results():
    assert digest(smoke_run("illuminate-square", 5)) != digest(smoke_run("illuminate-square", 6))


def test_traced_counts_repeat_for_a_seed():
    results = [last_json(smoke_run("illuminate-square", 7, trace=1)) for _ in range(2)]
    counts = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] == "count"}
              for r in results]
    assert counts[0] == counts[1]
    assert counts[0]["randvol.proposals"] > 0
    assert all(r["correct"] for r in results)
    assert list(results[0]["metrics"]) == [name for name, _, _ in layers.PER_LAYER]


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, str(tmp_path / BENCH.name / "run.py"),
                           "--workload", "illuminate-square", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
