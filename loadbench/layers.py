"""The per-layer metrics of a traced run: names, units, and arithmetic.

Every workload reports every metric below; a layer the workload
bypasses reports 0.  Comments give the end-to-end metric each one
should move (the full map is in README.md beside this file).
"""

from __future__ import annotations

#: name -> (unit, better)
PER_LAYER = {
    # -> dashboard peak_qps, cpu_ms_per_kq
    "network.frontend_cpu_ms_per_req": ("ms", "lower"),
    "network.worker_cpu_ms_per_req": ("ms", "lower"),
    # -> every dashboard metric
    "network.failed_share": ("ratio", "lower"),
    # validates dashboard p50_ms / p99_ms
    "loadgen.late_ms": ("ms", "lower"),
    # -> dashboard p50_ms
    "requests.decode_us_per_req": ("us", "lower"),
    "batching.queue_wait_ms": ("ms", "lower"),
    "batching.mean_batch_size": ("rows", "higher"),
    "plans.hit_rate": ("ratio", "higher"),
    "plans.bind_ms_per_batch": ("ms", "lower"),
    # -> dashboard p50_ms (per call), olap rows_per_s (per row)
    "engine.calls": ("count", "lower"),
    "engine.ms_per_call": ("ms", "lower"),
    "engine.rows_per_call": ("rows", "higher"),
    "engine.self_us_per_row": ("us", "lower"),
    # -> olap rows_per_s, p50_ms
    "planner.plan_ms_per_batch": ("ms", "lower"),
    "planner.unique_row_share": ("ratio", "lower"),
    "planner.view_row_share": ("ratio", "higher"),
    "compose.parts_per_row": ("parts", "lower"),
    "compose.leaf_calls_per_batch": ("count", "lower"),
    # -> olap rows_per_s (hit rate stays near 1 on dashboard)
    "profiles.hit_rate": ("ratio", "higher"),
    "variance.self_us_per_row": ("us", "lower"),
    # -> ingest epoch_ms
    "publish.ms_per_epoch": ("ms", "lower"),
    "streaming.ingest_ms_per_epoch": ("ms", "lower"),
    "io.append_ms_per_epoch": ("ms", "lower"),
    "io.bytes_per_epoch": ("bytes", "lower"),
    # -> ingest refresh_read_ms
    "server.refresh_ms": ("ms", "lower"),
    # -> ingest cold_open_ms, every workload's setup_s
    "io.open_ms": ("ms", "lower"),
    # every workload: traced / untraced primary throughput
    "trace.overhead": ("ratio", "higher"),
    "trace.uncovered_share": ("ratio", "lower"),
}


def zeros() -> dict:
    return {name: 0.0 for name in PER_LAYER}


def with_units(values: dict) -> dict:
    """``name -> (value, unit)`` in :data:`PER_LAYER` order; rejects strays."""
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return {name: (float(values[name]), unit) for name, (unit, _) in PER_LAYER.items()}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def serving(tracer, stats) -> dict:
    """Query-path metrics from a traced phase and its server's stats.

    ``stats`` is the :class:`~repro.serving.server.ServerStats` of the
    server the traced phase ran against.
    """
    get = tracer.get
    engine = get("engine")
    compose = get("compose")
    leaf = get("compose.leaf")
    planner = get("planner")
    lookup, bind = get("plans.lookup"), get("plans.bind")
    waits = get("batching.queue_wait")
    rows_planned = stats.columnar_rows if planner.calls else 0
    return {
        "requests.decode_us_per_req": 1e6 * _ratio(get("requests").total_s, get("requests").calls),
        "batching.queue_wait_ms": 1e3 * _ratio(waits.total_s, waits.calls),
        "batching.mean_batch_size": stats.mean_batch_size,
        "plans.hit_rate": stats.plan_cache_hit_rate,
        "plans.bind_ms_per_batch": 1e3 * _ratio(lookup.total_s + bind.total_s, lookup.calls),
        "engine.calls": engine.calls,
        "engine.ms_per_call": 1e3 * _ratio(engine.total_s, engine.calls),
        "engine.rows_per_call": _ratio(engine.rows, engine.calls),
        "engine.self_us_per_row": 1e6 * _ratio(engine.self_s, engine.rows),
        "planner.plan_ms_per_batch": 1e3 * _ratio(planner.self_s, planner.calls),
        "planner.unique_row_share":
            _ratio(rows_planned - stats.planner_deduped_rows, rows_planned),
        "planner.view_row_share": _ratio(stats.planner_view_rows, rows_planned),
        "compose.parts_per_row": _ratio(leaf.rows, compose.rows),
        "compose.leaf_calls_per_batch": _ratio(leaf.calls, compose.calls),
        "profiles.hit_rate": stats.profile_cache_hit_rate,
        "variance.self_us_per_row": 1e6 * _ratio(get("variance").self_s, engine.rows),
    }
