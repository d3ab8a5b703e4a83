"""homcover's layers as the traced run sees them, the counters recorded at
their boundaries, and the per-layer metrics computed from a trace."""

from __future__ import annotations

import importlib

import numpy as np

from tracer import Tracer, self_times

LAYERS = ("bodies", "lpcore", "randvol", "nets", "covercert", "randcover",
          "illum", "fnsched", "runtime", "cli")
BENCH_LAYER = "bench"

# Per-point calls: the LP fallbacks run once per point, and the schedule's
# patch-separation loop tests one point pair per call (millions at full size).
AGGREGATED = ("lpcore.solve", "lpcore.feasible_point", "bodies.combo_contains_lp",
              "fnsched.patch_contains")
RENAMES = {("fnsched", "bodies.combo_contains"): "fnsched.patch_contains"}


def modules() -> dict:
    return {name: importlib.import_module(f"homcover.{name}") for name in LAYERS}


def _rows(points) -> int:
    pts = np.asarray(points)
    return 1 if pts.ndim == 1 else int(pts.shape[0])


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _combo_contains(tr, site, args, kwargs, result, exc):
    n = _rows(_arg(args, kwargs, 1, "points"))
    tr.counters["bodies.combo_contains.points"] += n
    if site == "randvol" and tr.current_name == "randvol.sample_uniform":
        tr.counters["randvol.proposals"] += n


def _patch_contains(tr, site, args, kwargs, result, exc):
    tr.counters["bodies.combo_contains.points"] += 1


def _sample_uniform(tr, site, args, kwargs, result, exc):
    if result is not None:
        tr.counters["randvol.sample_uniform.points"] += len(result)


def _mc_volume(tr, site, args, kwargs, result, exc):
    tr.counters["randvol.mc_volume.samples"] += _arg(args, kwargs, 2, "samples")


def _solve(tr, site, args, kwargs, result, exc):
    if exc is not None and type(exc).__name__ == "NumericFailure":
        tr.counters["lpcore.solve.numeric_failures"] += 1


def _points_counter(key, index):
    def hook(tr, site, args, kwargs, result, exc):
        tr.counters[key] += _rows(_arg(args, kwargs, index, "points"))
    return hook


def _build_net(tr, site, args, kwargs, result, exc):
    if result is not None:
        tr.counters["nets.build_net.points"] += result.size


def _gauge_grid_pre(tr, site, args, kwargs):
    keep_fn = _arg(args, kwargs, 1, "keep_fn")

    def counting_keep(pts, half):
        mask = keep_fn(pts, half)
        tr.counters["nets.gauge_grid.candidates"] += pts.shape[0]
        tr.counters["nets.gauge_grid.kept"] += int(np.count_nonzero(mask))
        return mask

    if len(args) > 1:
        args = args[:1] + (counting_keep,) + args[2:]
    else:
        kwargs = dict(kwargs, keep_fn=counting_keep)
    return args, kwargs


def _certify_cover(tr, site, args, kwargs, result, exc):
    if result is not None and result.net is not None:
        tr.counters["covercert.certify_cover.net_points"] += result.net.size


def _refute_cover(tr, site, args, kwargs, result, exc):
    if result is not None:
        tr.counters["covercert.refute_cover.probes_used"] += result.probes_used


def _chunked_mask_pre(tr, site, args, kwargs):
    from homcover import runtime

    threads = getattr(runtime.get_threads, "__wrapped__", runtime.get_threads)()
    if threads > 1 and _rows(_arg(args, kwargs, 1, "points")) >= runtime._PARALLEL_MIN_POINTS:
        tr.counters["runtime.chunked_mask.parallel_calls"] += 1
    return args, kwargs


def _cover_cube(tr, site, args, kwargs, result, exc):
    if result is not None:
        tr.counters["fnsched.marked_points"] += result.info["marked"]
        tr.counters["fnsched.patch_points"] += result.info["patchPoints"]


HOOKS = {
    "bodies.combo_contains": _combo_contains,
    "fnsched.patch_contains": _patch_contains,
    "randvol.sample_uniform": _sample_uniform,
    "randvol.mc_volume": _mc_volume,
    "lpcore.solve": _solve,
    "bodies.covered_by_union": _points_counter("bodies.covered_by_union.points", 2),
    "bodies.dilated_contains": _points_counter("bodies.dilated_contains.points", 1),
    "illum.illuminated_mask": _points_counter("illum.illuminated_mask.points", 2),
    "nets.build_net": _build_net,
    "covercert.certify_cover": _certify_cover,
    "covercert.refute_cover": _refute_cover,
    "fnsched.cover_cube_two_phase": _cover_cube,
}
PREHOOKS = {
    "nets.gauge_grid": _gauge_grid_pre,
    "runtime.chunked_mask": _chunked_mask_pre,
}


def make_tracer(trace_id: str) -> Tracer:
    return Tracer(trace_id, aggregated=AGGREGATED, hooks=HOOKS, prehooks=PREHOOKS,
                  renames=RENAMES)


def _ratio(num, den):
    return num / den if den else 0.0


# (name, unit, value from (tracer, self time by layer, self time by name, extras))
PER_LAYER = [
    ("randvol.sample_uniform.calls", "count", lambda t, L, N, x: t.calls["randvol.sample_uniform"]),
    ("randvol.sample_uniform.s", "s", lambda t, L, N, x: t.total_s["randvol.sample_uniform"]),
    ("randvol.proposals", "count", lambda t, L, N, x: t.counters["randvol.proposals"]),
    ("randvol.accept_ratio", "ratio", lambda t, L, N, x: _ratio(
        t.counters["randvol.sample_uniform.points"], t.counters["randvol.proposals"])),
    ("randvol.mc_volume.s", "s", lambda t, L, N, x: t.total_s["randvol.mc_volume"]),
    ("randvol.mc_volume.samples", "count", lambda t, L, N, x: t.counters["randvol.mc_volume.samples"]),
    ("lpcore.solve.calls", "count", lambda t, L, N, x: t.calls["lpcore.solve"]),
    ("lpcore.solve.s", "s", lambda t, L, N, x: t.total_s["lpcore.solve"]),
    ("lpcore.solve.numeric_failures", "count",
     lambda t, L, N, x: t.counters["lpcore.solve.numeric_failures"]),
    ("bodies.combo_contains.calls", "count", lambda t, L, N, x:
     t.calls["bodies.combo_contains"] + t.calls["fnsched.patch_contains"]),
    ("bodies.combo_contains.points", "count", lambda t, L, N, x: t.counters["bodies.combo_contains.points"]),
    ("bodies.combo_contains.s", "s", lambda t, L, N, x:
     t.total_s["bodies.combo_contains"] + t.total_s["fnsched.patch_contains"]),
    ("bodies.covered_by_union.points", "count", lambda t, L, N, x: t.counters["bodies.covered_by_union.points"]),
    ("bodies.covered_by_union.s", "s", lambda t, L, N, x: t.total_s["bodies.covered_by_union"]),
    ("bodies.dilated_contains.points", "count", lambda t, L, N, x: t.counters["bodies.dilated_contains.points"]),
    ("bodies.dilated_contains.s", "s", lambda t, L, N, x: t.total_s["bodies.dilated_contains"]),
    ("nets.build_net.calls", "count", lambda t, L, N, x: t.calls["nets.build_net"]),
    ("nets.build_net.s", "s", lambda t, L, N, x: t.total_s["nets.build_net"]),
    ("nets.build_net.points", "count", lambda t, L, N, x: t.counters["nets.build_net.points"]),
    ("nets.gauge_grid.s", "s", lambda t, L, N, x: t.total_s["nets.gauge_grid"]),
    ("nets.gauge_grid.candidates", "count", lambda t, L, N, x: t.counters["nets.gauge_grid.candidates"]),
    ("nets.gauge_grid.keep_ratio", "ratio", lambda t, L, N, x: _ratio(
        t.counters["nets.gauge_grid.kept"], t.counters["nets.gauge_grid.candidates"])),
    ("covercert.certify_cover.calls", "count", lambda t, L, N, x: t.calls["covercert.certify_cover"]),
    ("covercert.certify_cover.s", "s", lambda t, L, N, x: t.total_s["covercert.certify_cover"]),
    ("covercert.certify_cover.net_points", "count",
     lambda t, L, N, x: t.counters["covercert.certify_cover.net_points"]),
    ("covercert.refute_cover.s", "s", lambda t, L, N, x: t.total_s["covercert.refute_cover"]),
    ("covercert.refute_cover.probes_used", "count",
     lambda t, L, N, x: t.counters["covercert.refute_cover.probes_used"]),
    ("covercert.recheck_certificate.s", "s", lambda t, L, N, x: t.total_s["covercert.recheck_certificate"]),
    ("covercert.certificate_bytes", "bytes", lambda t, L, N, x: x["certificate_bytes"]),
    ("randcover.trial.self_ms", "ms", lambda t, L, N, x: 1000.0 * _ratio(
        L.get("randcover", 0.0), x["traced_trials"])),
    ("illum.verify_illumination.calls", "count", lambda t, L, N, x: t.calls["illum.verify_illumination"]),
    ("illum.verify_illumination.s", "s", lambda t, L, N, x: t.total_s["illum.verify_illumination"]),
    ("illum.illuminated_mask.points", "count", lambda t, L, N, x: t.counters["illum.illuminated_mask.points"]),
    ("illum.illuminated_mask.s", "s", lambda t, L, N, x: t.total_s["illum.illuminated_mask"]),
    ("runtime.chunked_mask.calls", "count", lambda t, L, N, x: t.calls["runtime.chunked_mask"]),
    ("runtime.chunked_mask.parallel_calls", "count",
     lambda t, L, N, x: t.counters["runtime.chunked_mask.parallel_calls"]),
    ("runtime.chunked_mask.s", "s", lambda t, L, N, x: t.total_s["runtime.chunked_mask"]),
    ("runtime.threads", "count", lambda t, L, N, x: x["threads"]),
    ("runtime.speedup_1t", "x", lambda t, L, N, x: x["speedup_1t"]),
    ("fnsched.schedule_covering.s", "s", lambda t, L, N, x: t.total_s["fnsched.schedule_covering"]),
    ("fnsched.cover_cube_two_phase.calls", "count", lambda t, L, N, x: t.calls["fnsched.cover_cube_two_phase"]),
    ("fnsched.cover_cube_two_phase.self_s", "s", lambda t, L, N, x: N.get("fnsched.cover_cube_two_phase", 0.0)),
    ("fnsched.patch_contains.calls", "count", lambda t, L, N, x: t.calls["fnsched.patch_contains"]),
    ("fnsched.marked_points", "count", lambda t, L, N, x: t.counters["fnsched.marked_points"]),
    ("fnsched.patch_points", "count", lambda t, L, N, x: t.counters["fnsched.patch_points"]),
    ("cli.dispatch.self_s", "s", lambda t, L, N, x: N.get("cli.dispatch", 0.0)),
    ("cli.output_bytes", "bytes", lambda t, L, N, x: x["output_bytes"]),
] + [
    (f"self_s.{layer}", "s", lambda t, L, N, x, layer=layer: L.get(layer, 0.0))
    for layer in LAYERS + (BENCH_LAYER,)
] + [
    ("trace.wall_s", "s", lambda t, L, N, x: x["traced_wall_s"]),
    ("trace.untraced_wall_s", "s", lambda t, L, N, x: x["untraced_wall_s"]),
    ("trace.overhead_s", "s", lambda t, L, N, x: x["traced_wall_s"] - x["untraced_wall_s"]),
    ("trace.verify_s", "s", lambda t, L, N, x: x["traced_verify_s"]),
    ("trace.self_sum_s", "s", lambda t, L, N, x: sum(L.values())),
    ("trace.spans", "count", lambda t, L, N, x: len(t.spans)),
    ("trace.aggregated_calls", "count", lambda t, L, N, x: t.aggregated_count),
    ("trace.decided_frac", "ratio", lambda t, L, N, x: x["decided_frac"]),
]


def per_layer_metrics(tracer: Tracer, extras: dict) -> dict:
    """name -> (value, unit) for every per-layer metric."""
    by_layer, by_name = self_times(tracer.spans)
    return {name: (float(fn(tracer, by_layer, by_name, extras)), unit)
            for name, unit, fn in PER_LAYER}
