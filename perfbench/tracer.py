"""In-memory span tracer that wraps a package's public functions at every
module attribute that refers to them (the import sites).

A span records name, layer, start, end, its parent span and the run's
trace id.  Functions called millions of times are aggregated instead: the
tracer keeps a call count and total time for them and charges their time
to the innermost open span, so each layer's self time stays exact without
one span per call.  Only calls on the thread that installed the tracer are
recorded; worker-thread calls run untraced inside their caller's span.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import threading
import time
from collections import defaultdict


class _Frame:
    __slots__ = ("span_id", "name", "layer", "aggregated", "child_time", "agg")

    def __init__(self, span_id, name, layer, aggregated):
        self.span_id = span_id
        self.name = name
        self.layer = layer
        self.aggregated = aggregated
        self.child_time = 0.0
        self.agg = None if aggregated else {}


class Tracer:
    """Collects spans and per-function call statistics while installed.

    ``aggregated`` holds the names whose calls are counted, not spanned;
    every call nested inside one of them is aggregated as well.  ``hooks``
    maps a name to ``hook(tracer, site, args, kwargs, result, exc)``;
    ``prehooks`` maps a name to ``prehook(tracer, site, args, kwargs)``
    returning possibly replaced ``(args, kwargs)``.  ``renames`` maps
    ``(site, name)`` to the name calls from that import site are recorded
    under.
    """

    def __init__(self, trace_id: str, aggregated=(), hooks=None, prehooks=None,
                 renames=None):
        self.trace_id = trace_id
        self.aggregated = frozenset(aggregated)
        self.renames = renames or {}
        self.hooks = hooks or {}
        self.prehooks = prehooks or {}
        self.spans = []
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.counters = defaultdict(float)
        self._stack = []          # open frames, innermost last
        self._open_spans = []     # the open frames that are spans
        self._depth = defaultdict(int)
        self._next_id = 0
        self.aggregated_count = 0
        self._thread = None
        self._patches = []

    # --- recording ------------------------------------------------------

    @property
    def current_name(self):
        return self._stack[-1].name if self._stack else None

    def _open(self, name, layer):
        parent = self._stack[-1] if self._stack else None
        aggregated = name in self.aggregated or (parent is not None and parent.aggregated)
        frame = _Frame(None if aggregated else self._next_id, name, layer, aggregated)
        self._stack.append(frame)
        if not aggregated:
            self._next_id += 1
            self._open_spans.append(frame)
        self._depth[name] += 1
        return frame, parent

    def _close(self, frame, parent, start, end):
        self._stack.pop()
        if not frame.aggregated:
            self._open_spans.pop()
        duration = end - start
        self.calls[frame.name] += 1
        self._depth[frame.name] -= 1
        if not self._depth[frame.name]:   # outermost of nested same-name calls
            self.total_s[frame.name] += duration
        if parent is not None:
            parent.child_time += duration
        enclosing = self._open_spans[-1] if self._open_spans else None
        if frame.aggregated:
            self.aggregated_count += 1
            if enclosing is not None:
                own = duration - frame.child_time
                enclosing.agg[frame.layer] = enclosing.agg.get(frame.layer, 0.0) + own
            return
        self.spans.append({
            "trace": self.trace_id,
            "id": frame.span_id,
            "parent": enclosing.span_id if enclosing is not None else None,
            "name": frame.name,
            "layer": frame.layer,
            "start": start,
            "end": end,
            "agg": frame.agg,
        })

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """A span opened by the benchmark itself, such as a trace's root."""
        frame, parent = self._open(name, layer)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, parent, start, time.perf_counter())

    def _call(self, name, layer, site, fn, args, kwargs):
        if threading.get_ident() != self._thread:
            return fn(*args, **kwargs)
        prehook = self.prehooks.get(name)
        if prehook is not None:
            args, kwargs = prehook(self, site, args, kwargs)
        frame, parent = self._open(name, layer)
        result = exc = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as err:
            exc = err
            raise
        finally:
            self._close(frame, parent, start, time.perf_counter())
            hook = self.hooks.get(name)
            if hook is not None:
                hook(self, site, args, kwargs, result, exc)

    def _wrap(self, fn, name, layer, site):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    try:
                        item = tracer._call(name, layer, site, next, (gen,), {})
                    except StopIteration:
                        return
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._call(name, layer, site, fn, args, kwargs)
        return wrapper

    # --- installation -----------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap the public functions and methods defined in ``modules``
        (layer name -> module) at every attribute of those modules that
        refers to them.  Each import site gets its own wrapper, which
        passes the site's layer name to the hooks."""
        self._thread = threading.get_ident()
        targets = {}
        for layer, mod in modules.items():
            for attr, value in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == mod.__name__:
                    targets[id(value)] = (f"{layer}.{attr}", layer, value)
                elif inspect.isclass(value) and value.__module__ == mod.__name__:
                    for meth, member in vars(value).items():
                        if not meth.startswith("_") and inspect.isfunction(member):
                            self._patch(value, meth, self._wrap(member, f"{layer}.{meth}", layer, layer))
        for site, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value)) if inspect.isfunction(value) else None
                if hit is not None:
                    name, layer, fn = hit
                    name = self.renames.get((site, name), name)
                    self._patch(mod, attr, self._wrap(fn, name, layer, site))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)


def _covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Self time per layer and per span name.

    A span's self time is its duration minus the part of it covered by its
    child spans and minus the aggregated calls charged to it; aggregated
    time is credited to the aggregated function's own layer.
    """
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append((s["start"], s["end"]))
    by_layer = defaultdict(float)
    by_name = defaultdict(float)
    for s in spans:
        agg = s.get("agg") or {}
        own = (s["end"] - s["start"]) - _covered_length(children[s["id"]], s["start"], s["end"]) \
            - sum(agg.values())
        by_layer[s["layer"]] += own
        by_name[s["name"]] += own
        for layer, t in agg.items():
            by_layer[layer] += t
    return dict(by_layer), dict(by_name)
