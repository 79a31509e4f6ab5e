"""Spans around the library's layer boundaries, recorded from outside the library.

``Tracer.install`` rebinds the public names the engine calls (for example
``gfgm.bounds.aggregate``) to wrappers that record one span per call: bucket,
start, end, parent span, request id and thread.  A name that no longer
exists is skipped and its layer reported as not called, so a later change
that removes or bypasses a name does not break the traced run.

Spans are kept in memory.  The engine's worker pool runs children on other
threads; a span opened on a thread with no open span of its own gets the
request's top-level span as its parent.  Recording takes a lock, so pool
threads can record concurrently.

Self time is a span's interval minus the union of its children's intervals.
Where pool threads make self intervals overlap, each instant is shared
equally among the spans running at it, so the self times of one request add
up to its wall time instead of counting an instant once per thread.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict

# Layers, with the metric buckets that belong to them.
LAYERS = ("sums", "vertices", "aggregation", "measures", "bounds", "copula", "allocation")
MEASURE_KINDS = ("var", "es", "entropic", "std")
DIST_KINDS = ("lattice", "grid", "mixed-erlang", "empirical")


def _measure_kind(measure) -> str:
    return measure.partition(":")[0].lower() if isinstance(measure, str) else measure.kind


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []
        self._next_id = 0
        self.request = -1
        self.root: int | None = None

    # -------------------------------------------------------------- recording

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, bucket, count=None, top=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                sid = tracer._next_id
                tracer._next_id += 1
            parent = stack[-1] if stack else tracer.root
            if top:
                tracer.root = sid
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                name = bucket(args) if callable(bucket) else bucket
                with tracer._lock:
                    tracer.spans.append(
                        (sid, name, t0, t1, parent, tracer.request, threading.get_ident())
                    )
            if count is not None:
                key, amount = count(args, kwargs, result)
                with tracer._lock:
                    tracer.counts[key] += amount
            return result

        return wrapper

    def patch(self, module, name: str, bucket, count=None):
        fn = getattr(module, name, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{name}")
            return
        self._restore.append((module, name, fn))
        setattr(module, name, self._wrap(fn, bucket, count))

    def top(self, fn, bucket):
        """Wrap a top-level library call; its span is the request's root."""
        return self._wrap(fn, bucket, top=True)

    def install(self):
        import gfgm.bounds as bounds
        import gfgm.measures as measures

        def dist_bucket(kind):
            return lambda args: f"measures.{kind}.{args[0].kind}_s"

        self.patch(bounds, "extremal_points", "sums.extremal_points_s",
                   lambda a, k, r: ("sums.points", len(r)))
        self.patch(bounds, "aggregate",
                   lambda args: f"aggregation.{getattr(args[0], 'kind', 'bernoulli')}_s",
                   lambda a, k, r: ("aggregation.calls", 1))
        self.patch(bounds, "aggregate_discrete_general", "aggregation.general_s",
                   lambda a, k, r: ("aggregation.calls", 1))
        self.patch(bounds, "evaluate",
                   lambda args: f"measures.{_measure_kind(args[1])}.{args[0].kind}_s",
                   lambda a, k, r: ("measures.calls", 1))
        self.patch(bounds, "enumerate_vertices", "vertices.enumerate_s",
                   lambda a, k, r: ("vertices.count", len(r)))
        self.patch(bounds, "sample_x", "copula.sample_s",
                   lambda a, k, r: ("copula.draws", len(r)))
        for kind in MEASURE_KINDS:
            self.patch(measures, kind, dist_bucket(kind))

    def uninstall(self):
        for module, name, fn in reversed(self._restore):
            setattr(module, name, fn)
        self._restore.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, req, thread in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "request": req, "thread": thread}) + "\n")

    # -------------------------------------------------------------- analysis

    def self_times(self) -> dict[str, float]:
        """Shared self time per bucket, summed over all requests."""
        by_request = defaultdict(list)
        for span in self.spans:
            by_request[span[5]].append(span)
        totals: dict[str, float] = defaultdict(float)
        for spans in by_request.values():
            for name, seconds in _shared_self(spans).items():
                totals[name] += seconds
        return totals


def _union(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for a, b in sorted(intervals):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return [(a, b) for a, b in merged]


def _subtract(t0: float, t1: float, cover: list[tuple[float, float]]):
    cursor = t0
    for a, b in cover:
        if b <= cursor or a >= t1:
            continue
        if a > cursor:
            yield cursor, a
        cursor = max(cursor, b)
    if cursor < t1:
        yield cursor, t1


def _shared_self(spans: list[tuple]) -> dict[str, float]:
    children = defaultdict(list)
    for sid, _, t0, t1, parent, _, _ in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    events = []
    for sid, name, t0, t1, _, _, _ in spans:
        for a, b in _subtract(t0, t1, _union(children.get(sid, []))):
            events.append((a, 1, name))
            events.append((b, -1, name))
    events.sort(key=lambda e: (e[0], e[1]))
    out: dict[str, float] = defaultdict(float)
    active: dict[str, int] = defaultdict(int)
    n_active = 0
    last = None
    for t, step, name in events:
        if n_active and last is not None and t > last:
            share = (t - last) / n_active
            for bucket, n in active.items():
                if n:
                    out[bucket] += share * n
        last = t
        active[name] += step
        n_active += step
    return out
