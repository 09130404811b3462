"""Layer spans recorded from the benchmark's own files.

The program has no tracing of its own yet, so a traced run wraps the
public entry points of each layer (methods and module functions) for
the duration of a phase and restores them afterwards.  Every wrapped
call becomes a span: layer name, start, end, thread, rows.  Spans nest
per thread, so each span's *self* time is its duration minus its direct
children; summed per layer this is the layer's busy time.

Two kinds of span are recorded besides call spans:

* ``batching.queue_wait`` -- from an item's ``MicroBatcher.submit`` to
  the start of the handler call that receives it (waiting, not work);
* request spans (:meth:`Tracer.request`) -- the caller's view of one
  request or pipelined window, used for the uncovered share: the part
  of request time under no layer span.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import defaultdict

import numpy as np


class _Frame:
    __slots__ = ("layer", "start", "children")

    def __init__(self, layer: str, start: float):
        self.layer = layer
        self.start = start
        self.children = 0.0


class LayerStats:
    """Per-layer totals accumulated by a :class:`Tracer`."""

    __slots__ = ("calls", "total_s", "self_s", "rows")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.rows = 0


class Tracer:
    """Installs span wrappers on layer entry points; aggregates spans."""

    def __init__(self):
        self.layers: dict[str, LayerStats] = defaultdict(LayerStats)
        self.intervals: list[tuple[float, float]] = []
        self.requests: list[tuple[float, float]] = []
        self._local = threading.local()
        self._submitted: dict[int, float] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping ----------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, layer: str, fn, rows_of=None, under=None):
        """``fn`` wrapped so each call records one ``layer`` span.

        ``under=(outer, counter)`` also counts calls and rows made while
        an ``outer`` span is open on the same thread into ``counter``.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if getattr(tracer._local, "paused", False):
                return fn(*args, **kwargs)
            stack = tracer._stack()
            frame = _Frame(layer, time.perf_counter())
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame.start
                stats = tracer.layers[layer]
                stats.total_s += duration
                stats.self_s += duration - frame.children
                if not stack or stack[-1].layer != layer:
                    # Only the outermost of a recursive chain is a call.
                    rows = rows_of(*args, **kwargs) if rows_of is not None else 0
                    stats.calls += 1
                    stats.rows += rows
                    if under is not None and any(f.layer == under[0] for f in stack):
                        nested = tracer.layers[under[1]]
                        nested.calls += 1
                        nested.rows += rows
                if stack:
                    stack[-1].children += duration
                else:
                    tracer.intervals.append((frame.start, end))

        return wrapper

    @contextlib.contextmanager
    def paused(self):
        """Record nothing on this thread (e.g. while computing references)."""
        self._local.paused = True
        try:
            yield
        finally:
            self._local.paused = False

    @contextlib.contextmanager
    def request(self):
        """Mark one caller-side request (or pipelined window)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.requests.append((start, time.perf_counter()))

    # -- installation ----------------------------------------------------
    def patch(self, owner, name: str, layer: str, rows_of=None, under=None) -> None:
        """Wrap ``owner.name`` (method, classmethod or module function)."""
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        if isinstance(original, classmethod):
            wrapped = classmethod(self.span(layer, original.__func__, rows_of, under))
        else:
            wrapped = self.span(layer, original, rows_of, under)
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapped)

    def patch_batcher(self, batcher_class) -> None:
        """Time queue wait and the handler of every batcher built from now."""
        tracer = self
        original_init = batcher_class.__dict__["__init__"]
        original_submit = batcher_class.__dict__["submit"]

        def submit(batcher, item, **kwargs):
            tracer._submitted[id(item)] = time.perf_counter()
            return original_submit(batcher, item, **kwargs)

        def init(batcher, handler, **kwargs):
            timed = tracer.span("batching", handler)

            def handle(items):
                now = time.perf_counter()
                waits = tracer.layers["batching.queue_wait"]
                for item in items:
                    queued = tracer._submitted.pop(id(item), now)
                    waits.calls += 1
                    waits.total_s += now - queued
                    waits.self_s += now - queued
                    tracer.intervals.append((queued, now))
                return timed(items)

            original_init(batcher, handle, **kwargs)

        for name, replacement in (("__init__", init), ("submit", submit)):
            self._patches.append((batcher_class, name, batcher_class.__dict__[name]))
            setattr(batcher_class, name, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- results -----------------------------------------------------------
    def get(self, layer: str) -> LayerStats:
        return self.layers.get(layer) or LayerStats()

    def uncovered_share(self) -> float:
        """Share of request time that no layer span covers."""
        requests = _merge(self.requests)
        total = sum(end - start for start, end in requests)
        if total <= 0.0:
            return 0.0
        covered = _intersection(requests, _merge(self.intervals))
        return max(0.0, 1.0 - covered / total)


def request(tracer: Tracer | None):
    """A request span on ``tracer``, or nothing when the phase is untraced."""
    return tracer.request() if tracer is not None else contextlib.nullcontext()


def _merge(intervals) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


def _intersection(left, right) -> float:
    """Total overlap of two sorted, disjoint interval lists."""
    total, i, j = 0.0, 0, 0
    while i < len(left) and j < len(right):
        lo = max(left[i][0], right[j][0])
        hi = min(left[i][1], right[j][1])
        if hi > lo:
            total += hi - lo
        if left[i][1] < right[j][1]:
            i += 1
        else:
            j += 1
    return total


def rows_of_bounds(_self, lows, *_args, **_kwargs) -> int:
    """Row count of a ``(self, lows, highs, ...)`` call."""
    return int(np.shape(lows)[0])


def install_serving_layers(tracer: Tracer) -> None:
    """Spans on the query path shared by ``dashboard`` and ``olap``.

    Layer names follow the repository's modules: ``requests`` (wire
    decode), ``batching`` (micro-batcher), ``plans`` (plan cache and
    bind), ``planner``, ``engine``, ``compose`` (part routing),
    ``gather`` (leaf coefficient sums, part of ``core``) and
    ``variance`` (per-axis profile products, ``analysis``).
    """
    from repro.analysis.exact import AxisProfileCache
    from repro.core.compose import ComposedRelease, TimeTree
    from repro.core.release import CoefficientRelease
    from repro.planner import QueryPlanner
    from repro.queries.engine import QueryEngine
    from repro.serving import requests
    from repro.serving.batching import MicroBatcher
    from repro.serving.plans import CompiledPlan, PlanCache

    tracer.patch_batcher(MicroBatcher)
    tracer.patch(requests, "parse_request_line", "requests")
    tracer.patch(requests.QueryBatchRequest, "from_dict", "requests")
    tracer.patch(PlanCache, "plan", "plans.lookup")
    tracer.patch(CompiledPlan, "bind", "plans.bind")
    tracer.patch(QueryPlanner, "answer_columnar", "planner", rows_of_bounds)
    tracer.patch(QueryEngine, "answer_columnar", "engine", rows_of_bounds)
    tracer.patch(ComposedRelease, "answer_boxes", "compose", rows_of_bounds)
    for owner in (ComposedRelease, TimeTree):
        tracer.patch(owner, "noise_variances_boxes", "compose.variance", rows_of_bounds)
    tracer.patch(
        CoefficientRelease, "answer_boxes", "gather", rows_of_bounds,
        under=("compose", "compose.leaf"),
    )
    tracer.patch(AxisProfileCache, "box_profile_products", "variance", rows_of_bounds)
