"""Per-layer metrics computed from span aggregates.

Every workload reports the same per-layer names; a metric a workload
cannot exercise (no writes on tpch-warm, no server on ingest-churn)
reads 0.  Times named ``*_ms`` are milliseconds per operation of the kind
the layer serves — reads for the read path, writes for the write path —
unless the name says otherwise.
"""

from __future__ import annotations

import math
from statistics import median
from typing import Any, Dict, Iterable, List

from common import safe_ratio

#: root spans that are one read (in process or inside the server)
READ_ROOTS = ("api.session_sql", "api.session_execute", "api.prepared_execute")

#: api spans on the read path whose self time is session overhead
SESSION_SPANS = READ_ROOTS + ("api.session_prepare",)


def empty_metrics(spec: Dict[str, Any]) -> Dict[str, float]:
    return {entry["name"]: 0.0 for entry in spec["per_layer"]}


def _sum(mapping: Dict[str, float], names: Iterable[str]) -> float:
    return sum(mapping.get(name, 0.0) for name in names)


def span_metrics(
    window: Dict[str, Any],
    setup: Dict[str, Any],
    reads: int,
    writes: int,
) -> Dict[str, float]:
    """The span-derived metrics of one run.

    ``window`` aggregates the timed window, ``setup`` the one set-up that
    serves the run (``SpanSummary.as_dict`` shapes); ``reads``/``writes``
    count the operations of the window.
    """
    total = window["total"]
    calls = window["calls"]
    own = window["self"]
    tail = window["tail"]
    counters = window["counters"]

    def per_read(seconds: float) -> float:
        return safe_ratio(seconds * 1000.0, reads)

    def per_write(seconds: float) -> float:
        return safe_ratio(seconds * 1000.0, writes)

    read_seconds = _sum(window["roots"], READ_ROOTS)

    def on_reads(name: str) -> float:
        """Time in ``name`` spans that serve reads (not view maintenance)."""
        return sum(window["by_root"].get(root, {}).get(name, 0.0) for root in READ_ROOTS)

    bsp_seconds = on_reads("bsp.run")
    # the delete path's counting view refresh runs inside its delta-apply
    # timer and is a child span of the write, so add it back once
    delta_apply = counters.get("maintenance.delta_apply_us", 0) / 1e6
    write_self = own.get("api.write", 0.0) - delta_apply + total.get(
        "incremental.view_refresh_delete", 0.0
    )
    user_bytes = counters.get("user_row_bytes", 0)
    written_bytes = (
        counters.get("durability.wal_bytes", 0)
        + counters.get("durability.snapshot_bytes", 0)
        + counters.get("durability.compact_bytes", 0)
    )
    return {
        "sql.parse_bind_ms": per_read(on_reads("sql.parse_and_bind")),
        "sql.parse_bind_calls_per_op": safe_ratio(calls.get("sql.parse_and_bind", 0), reads),
        "sql.parse_bind_share": safe_ratio(on_reads("sql.parse_and_bind"), read_seconds),
        "api.session_self_ms": per_read(_sum(own, SESSION_SPANS)),
        "api.read_lock_wait_ms": tail.get("api.read_lock_wait", 0.0) * 1000.0,
        "api.write_lock_wait_ms": tail.get("api.write_lock_wait", 0.0) * 1000.0,
        "api.write_self_ms": per_write(max(write_self, 0.0)),
        "core.execute_ms": per_read(on_reads("core.execute")),
        "core.subquery_ms": per_read(on_reads("core.subquery")),
        "core.self_ms": per_read(own.get("core.execute", 0.0)),
        "bsp.run_ms": per_read(bsp_seconds),
        "bsp.run_share": safe_ratio(bsp_seconds, read_seconds),
        "storage.decode_ms": per_read(on_reads("storage.decode")),
        "tag.encode_s": setup["total"].get("tag.encode", 0.0),
        "tag.statistics_s": setup["total"].get("tag.statistics", 0.0),
        "incremental.delta_apply_ms": per_write(delta_apply),
        "incremental.view_refresh_ms": per_write(
            counters.get("maintenance.view_refresh_us", 0) / 1e6
        ),
        "incremental.full_rebuilds": float(counters.get("maintenance.full_rebuilds", 0)),
        "durability.wal_append_ms": per_write(total.get("durability.wal_append", 0.0)),
        "durability.fsyncs_per_write": safe_ratio(counters.get("durability.fsync", 0), writes),
        "durability.snapshot_ms": safe_ratio(
            total.get("durability.snapshot", 0.0) * 1000.0, calls.get("durability.snapshot", 0)
        ),
        "durability.snapshots": float(calls.get("durability.snapshot", 0)),
        "durability.bytes_per_user_byte": safe_ratio(written_bytes, user_bytes),
        "serve.wire_encode_ms": per_read(total.get("serve.wire_encode", 0.0)),
    }


def maintenance_counters(database: Any) -> Dict[str, int]:
    """``Database.maintenance`` as whole-number counters a mark can diff."""
    counters = database.maintenance
    return {
        "maintenance.delta_apply_us": int(counters.delta_apply_seconds * 1e6),
        "maintenance.view_refresh_us": int(counters.view_refresh_seconds * 1e6),
        "maintenance.full_rebuilds": int(counters.full_rebuilds),
    }


def dead_row_fraction(catalog: Any) -> float:
    physical = live = 0
    for relation in catalog.relations():
        physical += relation.physical_count
        live += len(relation)
    return safe_ratio(physical - live, physical)


def result_metrics(
    results: List[Any],
    plan_choices: List[Any],
    cache_before: Dict[str, Any],
    cache_after: Dict[str, Any],
) -> Dict[str, float]:
    """Metrics read from query results and the plan cache, not from spans.

    ``plan_choices`` pairs each result with the planner's verdict (empty
    when the caller could not observe it); the estimate ratio is the
    geometric mean of estimated over actual messages.
    """
    reads = len(results)
    metrics = [result.metrics for result in results]
    messages = sum(m.total_messages for m in metrics)
    hits = cache_after["hits"] - cache_before["hits"]
    misses = cache_after["misses"] - cache_before["misses"]
    lookups = [m.compile_seconds * 1000.0 for m in metrics if m.plan_cache_hits and not m.plan_cache_misses]
    ratios = []
    for choice, m in zip(plan_choices, metrics):
        if choice is not None and m.total_messages:
            estimate = choice.cost.reduction_messages + choice.cost.collection_messages
            if estimate > 0:
                ratios.append(estimate / m.total_messages)
    return {
        "planner.cache_hit_ratio": safe_ratio(hits, hits + misses),
        "planner.compiles_timed": float(cache_after["stores"] - cache_before["stores"]),
        "planner.lookup_ms": median(lookups) if lookups else 0.0,
        "planner.msg_estimate_ratio": (
            math.exp(sum(math.log(r) for r in ratios) / len(ratios)) if ratios else 0.0
        ),
        "bsp.supersteps": safe_ratio(sum(m.superstep_count for m in metrics), reads),
        "bsp.messages": safe_ratio(messages, reads),
        "bsp.message_bytes": safe_ratio(sum(m.total_message_bytes for m in metrics), reads),
        "bsp.compute_units": safe_ratio(sum(m.total_compute for m in metrics), reads),
        "bsp.max_active_vertices": float(max((m.max_active_vertices for m in metrics), default=0)),
    }

