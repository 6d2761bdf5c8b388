"""Span recording around the public entry points of each ``repro`` layer.

The program itself carries no tracing yet, so the traced run wraps the
calls into each layer from here: :func:`install_layer_spans` replaces a
function or method with one that records a span — name, start, end,
parent span and request id — around the original, and
:meth:`Tracer.uninstall` puts every original back.  An entry point the
program no longer has raises :class:`MissingEntryPoint`, so a renamed
function fails the traced run instead of reading as a zero-cost layer.
Spans stay in memory and :meth:`Tracer.dump` writes them out when the run
ends.

A span's parent is the innermost open span on the same thread; a root
span starts a new request id that its descendants inherit.  A layer's
self time is a span's duration minus the time of its direct children.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from common import percentile, tail_percentile

#: one span: [name, start, end, parent index (-1 = root), request id]
Span = List[Any]


class MissingEntryPoint(RuntimeError):
    """A function or method the traced run wraps does not exist."""


def _original(owner: Any, attr: str) -> Any:
    """``owner.attr`` as defined on ``owner`` itself (a class's own method)."""
    found = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if found is None:
        raise MissingEntryPoint(f"{owner.__name__}.{attr}")
    return found


class Tracer:
    """In-memory span recorder plus the monkey-patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._requests = 0
        self._patched: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        with self._lock:
            if stack:
                parent = stack[-1]
                request = self.spans[parent][4]
            else:
                parent = -1
                self._requests += 1
                request = self._requests
            record: Span = [name, time.perf_counter(), 0.0, parent, request]
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``."""
        original = _original(owner, attr)
        span = self.span

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def wrap_counter(self, owner: Any, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without recording spans."""
        original = _original(owner, attr)
        count = self.count

        @functools.wraps(original)
        def counted(*args: Any, **kwargs: Any) -> Any:
            count(name)
            return original(*args, **kwargs)

        setattr(owner, attr, counted)
        self._patched.append((owner, attr, original))

    def wrap_bytes(
        self,
        owner: Any,
        attr: str,
        name: str,
        before: Callable[[Tuple[Any, ...]], int],
        after: Callable[[Tuple[Any, ...], Any], int],
    ) -> None:
        """Add ``after(args, result) - before(args)`` to counter ``name``
        on every call of ``owner.attr`` (bytes a call wrote to disk)."""
        original = _original(owner, attr)
        count = self.count

        @functools.wraps(original)
        def measured(*args: Any, **kwargs: Any) -> Any:
            start = before(args)
            result = original(*args, **kwargs)
            count(name, after(args, result) - start)
            return result

        setattr(owner, attr, measured)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"counters": self.counters, "spans": self.spans}, handle)

    def mark(self) -> Tuple[int, Dict[str, int]]:
        """A position in the span log plus the counters at that point."""
        with self._lock:
            return len(self.spans), dict(self.counters)

    def summary(
        self,
        start: Optional[Tuple[int, Dict[str, int]]] = None,
        end: Optional[Tuple[int, Dict[str, int]]] = None,
    ) -> "SpanSummary":
        """Aggregates over the spans and counter growth between two marks."""
        low, counters_low = start or (0, {})
        high, counters_high = end or self.mark()
        spans = [
            [name, begin, finish, parent - low if parent >= low else -1, request]
            for name, begin, finish, parent, request in self.spans[low:high]
        ]
        counters = {
            name: value - counters_low.get(name, 0) for name, value in counters_high.items()
        }
        return SpanSummary(spans, counters)


class SpanSummary:
    """Totals over recorded spans: time per name, per root and self time."""

    def __init__(self, spans: List[Span], counters: Optional[Dict[str, int]] = None) -> None:
        self.spans = spans
        self.counters = counters or {}
        self.children: Dict[int, List[int]] = {}
        for index, span in enumerate(spans):
            if span[3] >= 0:
                self.children.setdefault(span[3], []).append(index)

    def _duration(self, index: int) -> float:
        span = self.spans[index]
        return max(span[2] - span[1], 0.0)

    def _ancestor_named(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def _root(self, index: int) -> int:
        while self.spans[index][3] >= 0:
            index = self.spans[index][3]
        return index

    def by_root(self) -> Dict[str, Dict[str, float]]:
        """Outermost time per span name, grouped by the name of its root span."""
        grouped: Dict[str, Dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            if self._ancestor_named(index, span[0]):
                continue
            root = self.spans[self._root(index)][0]
            bucket = grouped.setdefault(root, {})
            bucket[span[0]] = bucket.get(span[0], 0.0) + self._duration(index)
        return grouped

    def self_by_name(self) -> Dict[str, float]:
        """Summed self time (duration minus direct children) per span name."""
        totals: Dict[str, float] = {}
        for index, span in enumerate(self.spans):
            children = sum(self._duration(child) for child in self.children.get(index, ()))
            own = max(self._duration(index) - children, 0.0)
            totals[span[0]] = totals.get(span[0], 0.0) + own
        return totals

    def as_dict(self) -> Dict[str, Any]:
        """Per-name aggregates; a server process hands these back as JSON.

        ``total`` counts only outermost spans of a name (a recursive call
        is not counted twice); ``by_root`` splits that by root span name.
        """
        durations: Dict[str, List[float]] = {}
        roots: Dict[str, float] = {}
        root_calls: Dict[str, int] = {}
        for index, span in enumerate(self.spans):
            durations.setdefault(span[0], []).append(self._duration(index))
            if span[3] < 0:
                roots[span[0]] = roots.get(span[0], 0.0) + self._duration(index)
                root_calls[span[0]] = root_calls.get(span[0], 0) + 1
        by_root = self.by_root()
        total: Dict[str, float] = {}
        for bucket in by_root.values():
            for name, seconds in bucket.items():
                total[name] = total.get(name, 0.0) + seconds
        return {
            "total": total,
            "calls": {name: len(values) for name, values in durations.items()},
            "tail": {
                name: percentile(values, tail_percentile(len(values)))
                for name, values in durations.items()
            },
            "self": self.self_by_name(),
            "roots": roots,
            "root_calls": root_calls,
            "by_root": by_root,
            "counters": dict(self.counters),
        }


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the public entry point of every layer the benchmark reports on."""
    import repro.api.database as api_database
    import repro.core.executor as core_executor
    import repro.core.wire as core_wire
    import repro.durability.manager as durability_manager
    import repro.incremental.views as incremental_views
    import repro.sql as sql
    import repro.storage.rewrite as storage_rewrite
    import repro.tag.encoder as tag_encoder
    from repro.bsp.engine import BSPEngine
    from repro.durability.wal import WriteAheadLog
    from repro.incremental.locks import ReadWriteLock

    wrap = tracer.wrap
    # api: sessions, prepared statements, the write calls and the RW lock
    wrap(api_database.Session, "sql", "api.session_sql")
    wrap(api_database.Session, "execute", "api.session_execute")
    wrap(api_database.Session, "prepare", "api.session_prepare")
    wrap(api_database.PreparedStatement, "execute", "api.prepared_execute")
    wrap(api_database.Database, "apply_write", "api.write")
    wrap(api_database.Database, "apply_delete", "api.write")
    wrap(api_database.Database, "apply_update", "api.write")
    wrap(api_database.Database, "materialize", "api.materialize")
    wrap(ReadWriteLock, "acquire_read", "api.read_lock_wait")
    wrap(ReadWriteLock, "acquire_write", "api.write_lock_wait")
    # sql: parse + bind (imported lazily by its callers, so the module
    # attribute is the one every call resolves)
    wrap(sql, "parse_and_bind", "sql.parse_and_bind")
    # core / bsp / storage
    wrap(core_executor.TagJoinExecutor, "execute", "core.execute")
    wrap(core_executor, "compile_subquery_filters", "core.subquery")
    wrap(BSPEngine, "run", "bsp.run")
    wrap(core_executor, "decode_output_rows", "storage.decode")
    wrap(storage_rewrite, "decode_output_rows", "storage.decode")
    # tag: encoding and statistics
    wrap(tag_encoder, "encode_catalog", "tag.encode")
    wrap(api_database, "refreshed_statistics", "tag.statistics")
    # serve: the wire encoding of result sets
    wrap(core_wire, "encode_result_payload", "serve.wire_encode")
    # incremental: view maintenance (the counting delete terms run inside
    # the delete path's delta-apply timer, the insert terms after it)
    wrap(incremental_views, "refresh_view_delta", "incremental.view_refresh")
    wrap(incremental_views, "refresh_view_delete", "incremental.view_refresh_delete")
    # durability: WAL appends, snapshots, recovery and fsync calls
    wrap(WriteAheadLog, "append", "durability.wal_append")
    wrap(durability_manager.DurabilityManager, "snapshot", "durability.snapshot")
    wrap(durability_manager.DurabilityManager, "recover", "durability.recover")
    wrap(durability_manager, "load_latest_snapshot", "durability.snapshot_load")
    tracer.wrap_counter(os, "fsync", "durability.fsync")
    # bytes written: WAL frames, snapshot files and WAL compaction rewrites
    # (installed after the span wrappers so they run inside them)
    tracer.wrap_bytes(
        WriteAheadLog, "append", "durability.wal_bytes",
        lambda args: os.path.getsize(args[0].path),
        lambda args, _result: os.path.getsize(args[0].path),
    )
    tracer.wrap_bytes(
        WriteAheadLog, "compact", "durability.compact_bytes",
        lambda _args: 0,
        lambda args, _result: os.path.getsize(args[0].path),
    )
    tracer.wrap_bytes(
        durability_manager, "write_snapshot", "durability.snapshot_bytes",
        lambda _args: 0,
        lambda _args, path: os.path.getsize(path),
    )
