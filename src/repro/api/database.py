"""The session-oriented public API: ``Database`` -> ``Session`` -> results.

One :class:`Database` owns everything the paper builds *once per dataset*
— the query-independent TAG encoding, the catalog statistics, one shared
:class:`~repro.planner.cache.PlanCache` — and hands out lightweight
:class:`Session` objects that execute SQL (optionally parameterized),
prepare statements and render cross-engine EXPLAIN plans.  Because every
executor created through the facade shares the one plan cache and
statistics store, plan reuse is automatic across sessions and across
parameter values:

    db = Database.from_catalog(catalog)            # encodes + collects stats
    with db.connect() as session:
        hot = session.prepare(
            "SELECT COUNT(*) AS n FROM ORDERS o WHERE o.O_TOTAL > :t")
        hot.execute({"t": 50})                     # compiles (one cache miss)
        hot.execute({"t": 500})                    # warm: plan-cache hit
        print(session.explain(hot.sql))            # rooted join tree + costs

Row mutations — :meth:`Database.load_rows`, :meth:`~Database.delete_rows`
and :meth:`~Database.update_rows` — each become one signed
:class:`~repro.incremental.delta.Delta` on one path (log → apply → patch →
views): deleted rows are tombstoned and their tuple vertices dropped, new
tuple/attribute vertices are appended to the existing TAG encoding in
place, statistics fold both halves, executors are patched once through
their ``apply`` hook, and registered materialized views are maintained by
counting delete terms and seminaïve re-runs over only the new vertices.
Compiled plans survive every data-only write (their cache keys
depend only on the schema version); only schema changes or an explicit
out-of-band :meth:`Database.note_data_change` fall back to the old
scorched-earth rebuild.  Writers serialize against in-flight readers on a
reader/writer lock, so sessions never observe a half-applied delta.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..algebra.expressions import Between, ColumnRef, Comparison, Expression, InList
from ..algebra.logical import QuerySpec
from ..algebra.parameters import (
    ParamsInput,
    bind_parameters,
    check_parameter_types,
    iter_subexpressions,
    normalize_parameters,
    spec_parameters,
)
from ..core.executor import QueryResult, StaleEngineError
from ..durability.failpoints import maybe_fire
from ..incremental.delta import Delta, apply_graph_delete, apply_graph_delta
from ..incremental.locks import ReadWriteLock
from ..incremental.maintenance import MaintenanceCounters
from ..planner import PlanCache
from ..relational.catalog import Catalog
from ..tag.statistics import CatalogStatistics, refreshed_statistics
from .registry import Engine, EngineContext, create_engine, resolve_engine_name


class Database:
    """A loaded database plus every engine that can query it.

    Args:
        catalog: the relational instance all engines share.
        engine: default engine name for new sessions (registry name/alias).
        num_workers: simulated worker count for the TAG/distributed engines.
        plan_cache: a shared compiled-plan cache; one is created when omitted.
        plan_cache_path: when set, :meth:`close` persists a statement
            manifest here and :meth:`warm_plan_cache` replays it at startup
            so a restarted process skips recompilation (the serving layer's
            warm start).
        engine_options: per-engine keyword overrides, e.g.
            ``{"tag": {"cross_check_plans": True}, "spark": {"num_partitions": 8}}``.
        data_dir: when set, the database is *durable*: every
            :meth:`load_rows` delta is written to an fsync'd write-ahead
            log under this directory before it applies, periodic snapshots
            bound replay time, and construction **recovers** — the latest
            valid snapshot is loaded, the WAL suffix replayed, registered
            views re-materialized, and the plan cache warmed from the
            persisted manifest (``plan_cache_path`` defaults to
            ``data_dir/plan_manifest.json``).  See
            :mod:`repro.durability`.
        wal_fsync: fsync the WAL on every append (the durability default);
            ``False`` trades machine-crash durability for write latency
            (process crashes still lose nothing).
        snapshot_every: WAL records between automatic snapshots.
    """

    #: prepared-statement recipes retained for manifest persistence (LRU)
    _STATEMENT_LOG_ENTRIES = 512

    def __init__(
        self,
        catalog: Catalog,
        engine: str = "tag",
        num_workers: int = 1,
        plan_cache: Optional[PlanCache] = None,
        plan_cache_entries: int = 256,
        plan_cache_path: Optional[str] = None,
        engine_options: Optional[Dict[str, Dict[str, Any]]] = None,
        graph: Optional[Any] = None,
        data_dir: Optional[str] = None,
        wal_fsync: bool = True,
        snapshot_every: int = 256,
    ) -> None:
        self.catalog = catalog
        self.default_engine = resolve_engine_name(engine)
        self.num_workers = num_workers
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache(plan_cache_entries)
        self.plan_cache_path = plan_cache_path
        self.engine_options = {
            resolve_engine_name(name): dict(options)
            for name, options in (engine_options or {}).items()
        }
        # accept a pre-encoded TAG graph (bench harnesses encode once and
        # share it); it is still re-encoded if the data version moves on
        self._graph: Optional[Any] = graph
        self._graph_version: Optional[int] = catalog.version if graph is not None else None
        self._statistics: Optional[CatalogStatistics] = None
        self._engines: Dict[str, Engine] = {}
        self._engine_versions: Dict[str, int] = {}
        #: (engine, sql) -> bound QuerySpec, recorded by Session.prepare so
        #: close() can persist a warm-start manifest of every query shape
        self._statement_log: "OrderedDict[Tuple[str, str], QuerySpec]" = OrderedDict()
        self._closed = False
        self._lock = threading.RLock()
        #: readers (query executions) share; writers (delta application,
        #: view refresh) get exclusivity — see Session._run_rebinding
        self._rw_lock = ReadWriteLock()
        #: registered materialized views by name
        self._views: "OrderedDict[str, Any]" = OrderedDict()
        #: what incremental maintenance did; mutated under _lock
        self.maintenance = MaintenanceCounters()
        #: durability: WAL + snapshots + idempotency (None = memory-only)
        self._durability = None
        self.recovery_report: Optional[Dict[str, Any]] = None
        self.warm_start_report: Optional[Dict[str, Any]] = None
        if data_dir is not None:
            from ..durability import DurabilityManager

            self._durability = DurabilityManager(
                data_dir, fsync=wal_fsync, snapshot_every=snapshot_every
            )
            if self.plan_cache_path is None:
                self.plan_cache_path = self._durability.plan_manifest_path
            # recover durable state (snapshot + WAL replay + views), then
            # layer the plan-manifest warm start on top of the recovered
            # catalog — the manifest matches by schema fingerprint, which
            # recovery cannot have changed
            self.recovery_report = self._durability.recover(self)
            self.warm_start_report = self.warm_plan_cache()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_catalog(cls, catalog: Catalog, **kwargs: Any) -> "Database":
        """The blessed constructor: wrap an already-populated catalog."""
        return cls(catalog, **kwargs)

    # ------------------------------------------------------------------
    # shared, invalidation-aware resources
    # ------------------------------------------------------------------
    def tag_graph(self) -> Any:
        """The TAG encoding of the catalog, built once and per data version."""
        from ..tag.encoder import encode_catalog

        with self._lock:
            if self._graph is None or self._graph_version != self.catalog.version:
                rebuilding = self._graph is not None
                started = time.perf_counter()
                self._graph = encode_catalog(self.catalog)
                self._graph_version = self.catalog.version
                if rebuilding:
                    elapsed = time.perf_counter() - started
                    self.maintenance.full_rebuild_seconds += elapsed
                    self.maintenance.last_rebuild_seconds = elapsed
            return self._graph

    @property
    def statistics(self) -> CatalogStatistics:
        """Catalog statistics, recollected whenever the catalog version moves."""
        with self._lock:
            self._statistics = refreshed_statistics(self.catalog, self._statistics)
            return self._statistics

    def engine(self, name: Optional[str] = None) -> Engine:
        """The (cached) engine instance registered under ``name``.

        Engines are rebuilt lazily after :meth:`note_data_change` so the
        TAG engine always queries the current encoding.
        """
        canonical = resolve_engine_name(name or self.default_engine)
        with self._lock:
            self._check_open()
            cached = self._engines.get(canonical)
            if (
                cached is not None
                and not getattr(cached, "retired", False)
                and self._engine_versions.get(canonical) == self.catalog.version
            ):
                return cached
            context = EngineContext(
                catalog=self.catalog,
                tag_graph=self.tag_graph,
                plan_cache=self.plan_cache,
                statistics=self.statistics,
                num_workers=self.num_workers,
                options=self.engine_options.get(canonical, {}),
            )
            engine = create_engine(canonical, context)
            self._engines[canonical] = engine
            self._engine_versions[canonical] = self.catalog.version
            return engine

    # ------------------------------------------------------------------
    # sessions
    # ------------------------------------------------------------------
    def connect(self, engine: Optional[str] = None) -> "Session":
        """Open a session (cheap; any number may be open concurrently)."""
        self._check_open()
        return Session(self, engine=engine or self.default_engine)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                f"Database({self.catalog.name!r}) is closed; create a new one "
                "to keep querying"
            )

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "Database":
        self._check_open()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Retire every executor and flush the persisted plan-cache manifest.

        Idempotent.  When ``plan_cache_path`` is configured the statement
        manifest is written *before* the executors go away, so the next
        process can :meth:`warm_plan_cache` from it.  A durable database
        additionally takes a final snapshot (compacting the WAL), so the
        next open replays nothing.  After closing, new sessions/engines
        raise ``RuntimeError``; sessions already holding this database
        fail on their next engine resolution.
        """
        with self._lock:
            if self._closed:
                return
            if self.plan_cache_path is not None:
                try:
                    self.flush_plan_manifest()
                except OSError:
                    pass  # a read-only disk must not wedge shutdown
            if self._durability is not None:
                try:
                    if self._durability.records_since_snapshot:
                        self._durability.snapshot(self)
                except OSError:
                    pass  # clean-close snapshot is an optimization only
                self._durability.close()
            for engine in self._engines.values():
                retire = getattr(engine, "retire", None)
                if callable(retire):
                    retire(f"database {self.catalog.name!r} closed")
            self._engines.clear()
            self._engine_versions.clear()
            self._closed = True

    # ------------------------------------------------------------------
    # persisted plan cache (warm starts)
    # ------------------------------------------------------------------
    def _record_statement(self, engine_name: str, sql: str, spec: QuerySpec) -> None:
        """Remember a prepared statement's recipe for manifest persistence."""
        key = (engine_name, sql)
        with self._lock:
            self._statement_log[key] = spec
            self._statement_log.move_to_end(key)
            while len(self._statement_log) > self._STATEMENT_LOG_ENTRIES:
                self._statement_log.popitem(last=False)

    def flush_plan_manifest(self, path: Optional[str] = None) -> Optional[str]:
        """Persist every recorded statement as a warm-start manifest.

        Returns the path written, or ``None`` when no path is configured.
        Fingerprints are computed at flush time against the *current*
        catalog version, so a manifest is always internally consistent
        even if statements were prepared before a data change.
        """
        from ..planner.persist import PlanManifest, PlanManifestEntry, save_manifest

        path = path if path is not None else self.plan_cache_path
        if path is None:
            return None
        with self._lock:
            recorded = list(self._statement_log.items())
        entries = []
        for (engine_name, sql), spec in recorded:
            fingerprint = None
            try:
                fingerprinter = getattr(self.engine(engine_name), "fragment_fingerprint", None)
                if callable(fingerprinter):
                    fingerprint = fingerprinter(spec)
            except Exception:
                fingerprint = None  # unfingerprintable shapes still warm from SQL
            entries.append(PlanManifestEntry(engine=engine_name, sql=sql, fingerprint=fingerprint))
        manifest = PlanManifest.for_catalog(self.catalog, entries)
        return save_manifest(path, manifest)

    def warm_plan_cache(self, path: Optional[str] = None) -> Dict[str, Any]:
        """Replay a persisted manifest: parse, bind and compile every entry.

        Warming happens through each engine's ``prepare_plan`` hook, which
        stores compiled fragments in the shared plan cache without
        executing anything — afterwards the first live execution of every
        warmed shape is a cache hit (zero compilations).  Entries are
        skipped (never fatal) when the manifest is missing/corrupt, was
        recorded against a different catalog version, names an engine
        without a plan cache, or no longer parses.  Returns a report:
        ``{"path", "matched", "entries", "warmed", "skipped"}``.
        """
        from ..planner.persist import load_manifest
        from ..sql import parse_and_bind

        path = path if path is not None else self.plan_cache_path
        report: Dict[str, Any] = {
            "path": path,
            "matched": False,
            "entries": 0,
            "warmed": 0,
            "skipped": 0,
        }
        if path is None:
            return report
        manifest = load_manifest(path)
        if manifest is None:
            return report
        report["entries"] = len(manifest.entries)
        if not manifest.matches_catalog(self.catalog):
            report["skipped"] = len(manifest.entries)
            return report
        report["matched"] = True
        for entry in manifest.entries:
            try:
                canonical = resolve_engine_name(entry.engine)
                prepare = getattr(self.engine(canonical), "prepare_plan", None)
                if not callable(prepare):
                    report["skipped"] += 1
                    continue
                spec = parse_and_bind(entry.sql, self.catalog, name="warm")
                if prepare(spec):
                    report["warmed"] += 1
                    # keep the recipe alive so the next close() re-persists it
                    self._record_statement(canonical, entry.sql, spec)
                else:
                    report["skipped"] += 1
            except Exception:
                report["skipped"] += 1  # schema drift etc.; warm the rest
        return report

    # ------------------------------------------------------------------
    # batched concurrent execution
    # ------------------------------------------------------------------
    def execute_many(
        self,
        queries: Sequence[Union[str, QuerySpec, Tuple[Union[str, QuerySpec], ParamsInput]]],
        params: Optional[Sequence[ParamsInput]] = None,
        engine: Optional[str] = None,
        max_workers: Optional[int] = None,
        mode: str = "thread",
    ) -> List["QueryResult"]:
        """Execute a batch of queries concurrently; results in input order.

        Each entry of ``queries`` is SQL text, a bound :class:`QuerySpec`,
        or a ``(query, params)`` pair; alternatively ``params`` supplies one
        binding per query positionally.  Executions fan out over
        ``max_workers`` workers (default ``min(4, cpu_count, len(batch))``)
        against the one immutable encoded graph: per-run vertex state is
        run-scoped and parameter bindings are context-local, so no
        serialization happens anywhere on the query path and every worker's
        result is identical to what a serial loop would produce.

        ``mode`` selects the worker kind:

        * ``"thread"`` (default) — a thread pool.  Plan-cache and
          statistics counters accumulate normally; per-query wall time is
          unchanged, and throughput is bounded by the interpreter (the GIL
          serializes pure-Python compute even though nothing in this
          library does anymore).
        * ``"process"`` — fork-based worker processes (POSIX only; falls
          back to threads where ``fork`` is unavailable).  Children inherit
          the encoded graph, statistics and warm plan cache copy-on-write,
          so the batch runs with real hardware parallelism; cache/statistic
          counter updates made inside children are not reflected back.
          Queries and results must be picklable.  The known query-path
          locks are held across the fork, but forking while *other*
          threads are concurrently executing against or mutating this
          database is not supported (the usual ``fork``-plus-threads
          caveat); run process batches from a quiet point.

        The first failing query's exception is re-raised after the batch
        drains.
        """
        if mode not in ("thread", "process"):
            raise ValueError(f"unknown execute_many mode {mode!r} (thread or process)")
        queries = list(queries)  # accept any iterable; we traverse it twice
        if params is not None:
            params = list(params)
            if len(params) != len(queries):
                raise ValueError(
                    f"params supplies {len(params)} bindings for {len(queries)} queries"
                )
            if any(isinstance(query, tuple) for query in queries):
                raise ValueError(
                    "pass bindings either inline as (query, params) tuples or "
                    "positionally via params=, not both"
                )
            items: List[Tuple[Union[str, QuerySpec], ParamsInput]] = list(zip(queries, params))
        else:
            items = [
                item if isinstance(item, tuple) else (item, None)  # type: ignore[list-item]
                for item in queries
            ]
        if not items:
            return []
        session = self.connect(engine=engine)
        session.engine  # resolve (and lazily build) the engine once, up front
        if max_workers is None:
            max_workers = min(4, os.cpu_count() or 1)
        # never spawn more workers than there is work (also for explicit values)
        max_workers = max(1, min(max_workers, len(items)))

        def run_one(item: Tuple[Union[str, QuerySpec], ParamsInput]) -> "QueryResult":
            query, bindings = item
            if isinstance(query, QuerySpec):
                return session.execute(query, params=bindings)
            return session.sql(query, params=bindings)

        if max_workers == 1:
            return [run_one(item) for item in items]
        if mode == "process" and hasattr(os, "fork"):
            return self._execute_many_forked(items, session.engine_name, max_workers)
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            futures = [pool.submit(run_one, item) for item in items]
            return [future.result() for future in futures]

    def _execute_many_forked(
        self,
        items: List[Tuple[Union[str, QuerySpec], ParamsInput]],
        engine_name: str,
        max_workers: int,
    ) -> List["QueryResult"]:
        """Fan a batch out over forked worker processes.

        The workers are forked *after* the engine, graph, statistics and
        plan cache are warm, so they share the expensive read-only state
        with the parent copy-on-write.  The database reaches each worker
        through the pool's *initializer* — with the fork start method its
        arguments are inherited by reference, never pickled — so a worker
        respawned later (e.g. after an OOM kill) rebinds the right
        database too.  The locks every child query path acquires (this
        database's, the shared plan cache's, the engine registry's) are
        held across the initial fork; the forking thread survives into
        each child as its main thread and the locks are re-entrant or
        released, so children start with them in an acquirable state.
        """
        import multiprocessing

        from .registry import _REGISTRY_LOCK

        context = multiprocessing.get_context("fork")
        chunksize = max(1, len(items) // (max_workers * 4))
        with self._lock, self.plan_cache._lock, _REGISTRY_LOCK:
            pool = context.Pool(
                processes=max_workers,
                initializer=_forked_worker_init,
                initargs=(self, engine_name),
            )
        try:
            return pool.map(_forked_batch_worker, items, chunksize=chunksize)
        finally:
            pool.close()
            pool.join()

    # ------------------------------------------------------------------
    # data changes: every row mutation is one signed Delta
    # ------------------------------------------------------------------
    def load_rows(
        self,
        relation_name: str,
        rows: Iterable[Sequence[Any]],
        request_id: Optional[str] = None,
    ) -> int:
        """Bulk-append rows to a relation, maintaining dependent state in place.

        This is the incremental write path: when the TAG graph, the
        statistics and the cached executors are current, the new rows are
        *applied as a delta* — appended to the graph encoding, folded into
        the statistics sketches, indexed by each engine's ``apply`` hook,
        and propagated into registered materialized views — instead of
        invalidating everything.  Compiled plans are retained across the
        write because their cache keys depend only on the schema version.
        An empty iterable is a complete no-op: no version bump, no cache
        activity, no engine churn.

        On a durable database (``data_dir=``) the delta is validated,
        written to the WAL and fsync'd *before* it applies, and
        ``request_id`` makes the write idempotent: a retry of an
        already-applied id is acknowledged without re-applying (see
        :meth:`apply_write` for the detailed receipt).

        Writers exclude in-flight readers via the database's
        reader/writer lock, so a concurrent session either sees the full
        pre-write state or the full post-write state, never a torn delta.
        """
        return int(self.apply_write(relation_name, rows, request_id=request_id)["appended"])

    def apply_write(
        self,
        relation_name: str,
        rows: Iterable[Sequence[Any]],
        request_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """:meth:`load_rows` returning a full receipt.

        Returns ``{"appended", "deduplicated", "lsn"}`` where ``lsn`` is
        the write-ahead-log sequence number that made the write durable
        (``None`` on a memory-only database) and ``deduplicated`` is True
        when ``request_id`` was already applied — the retry contract: the
        serving layer acknowledges the *original* application instead of
        applying twice.  See :meth:`_commit` for the ordering guarantees.
        """
        relation = self.catalog.relation(relation_name)  # raise before locking
        materialized = list(rows)
        if not materialized:
            with self._lock:
                self.maintenance.empty_loads_ignored += 1
            return {"appended": 0, "deduplicated": False, "lsn": None}
        return self._commit(
            "load",
            relation,
            request_id,
            lambda: {"inserted": relation.validate_rows(materialized)},
        )

    def delete_rows(
        self,
        relation_name: str,
        predicate_or_rows: Union[Any, Iterable[Sequence[Any]]],
        request_id: Optional[str] = None,
    ) -> int:
        """Delete rows, maintaining dependent state in place; returns count.

        ``predicate_or_rows`` selects the victims: a callable receives
        each live row (a value tuple) and returns truthiness, anything
        else is an iterable of row values deleted with bag semantics
        (each given row removes exactly one live occurrence; a row with
        no live match raises ``KeyError``).

        This is the deletion mirror of :meth:`load_rows`: rows are
        *tombstoned* (physical positions never shift), the matching tuple
        vertices leave the TAG graph with shared attribute vertices freed
        by refcount, statistics fold the removal exactly, engines patch
        through their ``apply`` hook, and delta-maintained views are
        counting-maintained by telescoped delete terms run against the
        pre-delete graph.  Compiled plans survive — cache keys depend
        only on the schema version, which a delete never moves.

        On a durable database the deleted row *values* are WAL-logged
        before anything applies, and ``request_id`` makes the delete
        idempotent exactly like a write.
        """
        return int(
            self.apply_delete(relation_name, predicate_or_rows, request_id=request_id)[
                "deleted"
            ]
        )

    def apply_delete(
        self,
        relation_name: str,
        predicate_or_rows: Union[Any, Iterable[Sequence[Any]]],
        request_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """:meth:`delete_rows` returning a full receipt.

        Returns ``{"deleted", "deduplicated", "lsn"}`` with the same
        retry contract as :meth:`apply_write`: the durable path is
        log-then-apply (row values, which survive snapshot compaction,
        not positions), and a retried ``request_id`` acknowledges the
        original application instead of deleting twice.
        """
        relation = self.catalog.relation(relation_name)  # raise before locking
        return self._commit(
            "delete",
            relation,
            request_id,
            lambda: self._victims(relation, predicate_or_rows),
        )

    def update_rows(
        self,
        relation_name: str,
        predicate_or_rows: Union[Any, Iterable[Sequence[Any]]],
        updater_or_rows: Union[Any, Iterable[Sequence[Any]]],
        request_id: Optional[str] = None,
    ) -> int:
        """Update rows as one delete + insert delta; returns the number of
        rows replaced.

        ``predicate_or_rows`` selects the victims exactly as in
        :meth:`delete_rows`.  ``updater_or_rows`` produces the
        replacements: a callable maps each victim row (a value tuple) to
        its replacement — either a full row sequence or a
        ``column -> value`` mapping merged over the old values — a bare
        mapping is that same merge applied to every victim (the SQL
        ``UPDATE ... SET`` shape), and any other iterable is inserted as
        given (the two halves need not pair up; an update *is* a delete
        plus an insert).
        """
        return int(
            self.apply_update(
                relation_name, predicate_or_rows, updater_or_rows, request_id=request_id
            )["deleted"]
        )

    def apply_update(
        self,
        relation_name: str,
        predicate_or_rows: Union[Any, Iterable[Sequence[Any]]],
        updater_or_rows: Union[Any, Iterable[Sequence[Any]]],
        request_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """:meth:`update_rows` returning a full receipt.

        Returns ``{"deleted", "inserted", "deduplicated", "lsn"}``.  Both
        halves are one delta: one WAL record under one ``request_id``
        (recovery replays delete-then-insert together or, on dedup,
        neither), one catalog version bump, one patch per engine and one
        rollback — no reader and no failure ever observes the delete
        without the insert.
        """
        relation = self.catalog.relation(relation_name)  # raise before locking

        def resolve() -> Dict[str, Any]:
            victims = self._victims(relation, predicate_or_rows)
            replacements = self._replacement_rows(
                relation, victims["deleted"], updater_or_rows
            )
            return {**victims, "inserted": relation.validate_rows(replacements)}

        return self._commit("update", relation, request_id, resolve)

    def _victims(
        self, relation: Any, predicate_or_rows: Union[Any, Iterable[Sequence[Any]]]
    ) -> Dict[str, Any]:
        """Victim physical positions + their row values, pre-deletion."""
        if callable(predicate_or_rows):
            positions = relation.find_positions(predicate_or_rows)
        else:
            positions = relation.match_positions(predicate_or_rows)
        return {
            "positions": positions,
            "deleted": [relation[position] for position in positions],
        }

    def _replacement_rows(
        self,
        relation: Any,
        victim_rows: List[Sequence[Any]],
        updater_or_rows: Union[Any, Iterable[Sequence[Any]]],
    ) -> List[Sequence[Any]]:
        """Materialize an update's insert half (see :meth:`update_rows`)."""
        if isinstance(updater_or_rows, Mapping):
            # bare mapping = same column merge for every victim; without
            # this branch it would fall through to list(dict) == keys
            updates = updater_or_rows
            updater_or_rows = lambda row: updates  # noqa: E731
        if not callable(updater_or_rows):
            return list(updater_or_rows)
        schema = relation.schema
        replacements: List[Sequence[Any]] = []
        for row in victim_rows:
            produced = updater_or_rows(row)
            if isinstance(produced, Mapping):
                merged = list(row)
                for column, value in produced.items():
                    merged[schema.position(column)] = value
                produced = merged
            replacements.append(produced)
        return replacements

    def _commit(
        self,
        kind: str,
        relation: Any,
        request_id: Optional[str],
        resolve: Callable[[], Dict[str, Any]],
    ) -> Dict[str, Any]:
        """The one durable write sequence behind every row mutation.

        Under the writer lock: a retried ``request_id`` is acknowledged
        against its original application; otherwise ``resolve()`` turns
        the request into the fields of a :class:`Delta` (victims are
        found, replacement rows validated), and the delta is logged,
        applied, its id noted and a snapshot maybe taken.  Ordering on
        the durable path is log-then-apply: rows are validated first (a
        record that cannot replay must never be logged), framed + fsync'd
        into the WAL, and only then applied.  An acknowledged write is
        therefore always recoverable, and an unacknowledged one either
        never hit the WAL (the retry applies it once) or hit it without
        the ack (recovery replays it and the retry dedups).

        Returns the receipt of ``kind``: its row counts (see
        :func:`_receipt_counts`), ``deduplicated`` and ``lsn``, plus
        ``first_applied`` on a dedup hit.
        """
        with self._rw_lock.write_locked(), self._lock:
            self._check_open()
            durability = self._durability
            if durability is not None:
                already = durability.applied(request_id)
                if already is not None:
                    return {
                        **_receipt_counts(kind, 0, 0),
                        "deduplicated": True,
                        "lsn": durability.wal.last_lsn,
                        "first_applied": already,
                    }
            delta = Delta(kind, relation, **resolve())
            if delta.empty:
                self.maintenance.empty_loads_ignored += 1
                return {**_receipt_counts(kind, 0, 0), "deduplicated": False, "lsn": None}
            lsn = None
            if durability is not None:
                lsn = durability.log_delta(delta, request_id)
            self._apply(delta)
            if durability is not None:
                durability.note_applied(request_id, delta.rows_changed)
                durability.maybe_snapshot(self)
            return {
                **_receipt_counts(kind, len(delta.deleted), len(delta.inserted)),
                "deduplicated": False,
                "lsn": lsn,
            }

    def _apply(self, delta: Delta) -> None:
        """Apply ``delta`` to the relation and every derived structure.

        Caller holds the write lock and ``_lock``.  In order: tombstone
        the Δ⁻ positions, counting-maintain delta views against the
        pre-delete graph, drop Δ⁻'s tuple vertices, extend the relation
        by Δ⁺, append Δ⁺'s tuple vertices, fold the statistics, patch
        each cached engine once, run the views' Δ⁺ terms (or rebuild
        them), count.  Freshness is checked *before* the catalog version
        bumps (once per delta): a resource already stale from an earlier
        out-of-band change is left for its usual lazy rebuild rather
        than patched on top of missing history.

        The one rollback: a failure anywhere after the tombstones land
        (fault injection, an engine hook blowing up) truncates the
        appended rows, restores the tombstoned positions and retires
        every derived structure, so a retry of the same logical write
        applies exactly once against a clean rebuild.
        """
        from ..incremental.views import refresh_view_delete, refresh_view_delta

        started = time.perf_counter()
        relation, catalog, counters = delta.relation, self.catalog, self.maintenance
        version_before = catalog.version
        # physical, not live: tuple vertex indexes, index positions and
        # rollback truncation all live in physical-position space, which
        # tombstones never compact
        start = relation.physical_count
        # validates every position before mutating anything, so a raise
        # from here leaves nothing to roll back
        relation.delete_positions(delta.positions)
        try:
            graph_fresh = self._graph is not None and self._graph_version == version_before
            stats_fresh = (
                self._statistics is not None
                and self._statistics.catalog_version == version_before
            )
            catalog.note_data_change()
            affected_views = [
                view
                for view in self._views.values()
                if relation.name in {table.table for table in view.spec.tables}
            ]

            if delta.positions:
                maybe_fire("delta_delete.before_graph_patch")
            if delta.positions and graph_fresh:
                # counting view maintenance MUST see the pre-delete graph:
                # the telescoped delete terms join the deleted tuples
                # against state that still contains them
                dead = {relation.name: {position + 1 for position in delta.positions}}
                for view in affected_views:
                    if view.mode == "delta":
                        view_started = time.perf_counter()
                        refresh_view_delete(view, self._graph, catalog, dead)
                        counters.views_delete_refreshed += 1
                        counters.view_refresh_seconds += time.perf_counter() - view_started
                apply_graph_delete(self._graph, relation.schema, delta.positions)

            relation.extend(delta.inserted, validated=True)
            if delta.inserted:
                maybe_fire("delta.apply.before_graph_patch")
            if graph_fresh:
                apply_graph_delta(self._graph, relation.schema, delta.inserted)
                self._graph_version = catalog.version
            if stats_fresh:
                self._statistics.apply_delta(catalog, delta)

            patched = dropped = 0
            for name, engine in list(self._engines.items()):
                hook = getattr(engine, "apply", None)
                engine_current = self._engine_versions.get(name) == version_before
                # engines holding the shared graph (the TAG family) are only
                # patchable when that graph was just patched too; catalog-
                # backed engines (rdbms, spark) are graph-independent
                graph_ok = graph_fresh or getattr(engine, "graph", None) is None
                if callable(hook) and engine_current and graph_ok:
                    hook(relation.name, delta, catalog.version)
                    self._engine_versions[name] = catalog.version
                    patched += 1
                else:
                    # no hook (or the graph itself needs a rebuild): drop the
                    # executor for a lazy rebuild — but do NOT retire it, so a
                    # session mid-query drains against a consistent snapshot
                    self._engines.pop(name)
                    self._engine_versions.pop(name, None)
                    dropped += 1

            counters.rows_deleted += len(delta.deleted)
            counters.rows_applied += len(delta.inserted)
            if graph_fresh:
                counters.delete_deltas_applied += bool(delta.positions)
                counters.deltas_applied += bool(delta.inserted)
            else:
                counters.full_rebuilds += 1  # stale graph: lazy re-encode ahead
            counters.engines_patched += patched
            counters.engines_dropped += dropped
            counters.plans_retained = len(self.plan_cache)
            elapsed = time.perf_counter() - started
            counters.delta_apply_seconds += elapsed
            counters.last_delta_seconds = elapsed

            # recompute-mode views go AFTER the graph patch: their engine
            # run must not trigger a stale-graph full re-encode mid-write.
            # With a stale graph the delta terms had no history to join
            # against, so every affected view rebuilds here instead.
            window = {relation.name: (start, relation.physical_count)}
            for view in affected_views:
                delta_view = view.mode == "delta" and graph_fresh
                if delta_view and not delta.inserted:
                    continue  # Δ⁺ is empty: the delete terms did all the work
                view_started = time.perf_counter()
                if delta_view:
                    refresh_view_delta(view, self._graph, catalog, window)
                    counters.views_refreshed += 1
                else:
                    self._rebuild_view(view)
                    counters.views_recomputed += 1
                counters.view_refresh_seconds += time.perf_counter() - view_started
            if delta.positions:
                maybe_fire("delta_delete.after_apply")
            if delta.inserted:
                maybe_fire("delta.apply.after_apply")
        except BaseException:
            relation.truncate(start)
            relation.restore_positions(delta.positions)
            self._retire_all(f"write to {relation.name!r} rolled back mid-apply")
            raise

    def _retire_all(self, cause: str) -> None:
        """Scorched earth: bump the catalog version, retire every cached
        engine and rebuild every view from scratch (caller holds locks)."""
        self.catalog.note_data_change()
        reason = (
            f"{cause}; catalog {self.catalog.name!r} re-encoded at version "
            f"{self.catalog.version}"
        )
        for engine in self._engines.values():
            retire = getattr(engine, "retire", None)
            if callable(retire):
                retire(reason)
        self._engines.clear()
        self._engine_versions.clear()
        self.maintenance.full_rebuilds += 1
        self.maintenance.plans_retained = len(self.plan_cache)
        for view in self._views.values():
            self._rebuild_view(view)
            self.maintenance.views_recomputed += 1

    def note_data_change(self) -> None:
        """Record an *out-of-band* data mutation: bump the catalog version so
        statistics and the TAG encoding refresh, and eagerly retire every
        cached engine.

        This is the scorched-earth fallback for mutations that bypassed
        :meth:`load_rows` (direct writes to relation row lists), where no
        delta is known.  Retiring the engines matters for correctness, not
        just freshness: an executor built against the old encoding would
        otherwise keep serving the stale graph to sessions that captured a
        reference.  The next :meth:`engine` call builds a fresh executor
        bound to the re-encoded graph; retired executors refuse further
        queries with :class:`~repro.core.executor.StaleEngineError`.
        Compiled plans are *retained* — their cache keys depend only on
        the schema, which an out-of-band data write cannot have changed.
        Materialized views are recomputed from scratch on the spot.
        """
        with self._rw_lock.write_locked(), self._lock:
            self._retire_all("out-of-band data change")
            if self._durability is not None:
                # out-of-band mutations bypassed the WAL; the only way to
                # make them durable is to capture the rows wholesale now
                self._durability.snapshot(self)

    # ------------------------------------------------------------------
    # materialized views
    # ------------------------------------------------------------------
    def materialize(
        self, sql: str, name: Optional[str] = None, _durable_log: bool = True
    ) -> Dict[str, Any]:
        """Register ``sql`` as a materialized view and populate it.

        Delta-eligible shapes (connected join/filter/projection blocks
        without aggregates, subqueries or outer joins) are maintained by
        seminaïve re-runs over only the newly ingested vertices on each
        :meth:`load_rows`; everything else is recomputed.  Parameterized
        statements are rejected.  Returns the view's info dict.

        On a durable database the view *definition* is WAL-logged (after
        validation, before population) so recovery re-materializes it;
        contents are never persisted — they are a function of the data.
        ``_durable_log=False`` is recovery's own re-entry flag.
        """
        from ..incremental.views import MaterializedView, ViewError, view_refresh_mode
        from ..sql import parse_and_bind

        with self._rw_lock.write_locked(), self._lock:
            self._check_open()
            view_name = name or f"view_{len(self._views) + 1}"
            if view_name in self._views:
                raise ViewError(f"materialized view {view_name!r} already exists")
            spec = parse_and_bind(sql, self.catalog, name=view_name)
            mode = view_refresh_mode(spec)  # raises ViewError when ineligible
            if self._durability is not None and _durable_log:
                self._durability.log_materialize(view_name, sql)
            view = MaterializedView(
                name=view_name, sql=sql, spec=spec, columns=[], mode=mode
            )
            if mode == "delta":
                self._populate_view_delta(view)
            else:
                self._recompute_view(view)
            self._views[view_name] = view
            return view.info()

    def _populate_view_delta(self, view: Any) -> None:
        """Initial full population of a delta-maintained view.

        Runs the compiled fragment with no alias windows so the stored
        rows are the *pre-distinct bag* — exactly what seminaïve delta
        appends extend; DISTINCT is applied at serve time.
        """
        from ..incremental.views import run_view_fragment

        compiled = view.compiled_for(self.catalog)
        graph = self.tag_graph()
        view.rows = run_view_fragment(graph, compiled)
        view.columns = [column.alias for column in compiled.config.output_columns]
        view.base_counts = {
            table.table: self.catalog.relation(table.table).physical_count
            for table in view.spec.tables
        }

    def _recompute_view(self, view: Any) -> None:
        """Recompute a view from scratch through the default engine."""
        result = self.engine(self.default_engine).execute(view.spec)
        view.rows = [dict(row) for row in result.rows]
        view.columns = list(result.columns)
        view.base_counts = {
            table.table: self.catalog.relation(table.table).physical_count
            for table in view.spec.tables
        }
        view.recompute_count += 1

    def _rebuild_view(self, view: Any) -> None:
        """Rebuild a view from scratch, preserving its storage semantics.

        Delta views store the pre-DISTINCT bag, so they repopulate through
        the fragment path (against the freshly re-encoded graph); recompute
        views go through the engine as usual.
        """
        if view.mode == "delta":
            self._populate_view_delta(view)
            view.recompute_count += 1
        else:
            self._recompute_view(view)

    def query_view(self, name: str) -> QueryResult:
        """Serve a materialized view's current contents (no recomputation)."""
        from ..bsp.metrics import RunMetrics
        from ..incremental.views import ViewError

        with self._rw_lock.read_locked(), self._lock:
            self._check_open()
            view = self._views.get(name)
            if view is None:
                raise ViewError(f"no materialized view named {name!r}")
            rows = view.result_rows()
            metrics = RunMetrics(label=f"view:{name}")
            return QueryResult([dict(row) for row in rows], list(view.columns), metrics)

    def views(self) -> List[Dict[str, Any]]:
        """Info dicts for every registered materialized view."""
        with self._lock:
            return [view.info() for view in self._views.values()]

    def drop_view(self, name: str) -> None:
        from ..incremental.views import ViewError

        with self._rw_lock.write_locked(), self._lock:
            if name not in self._views:
                raise ViewError(f"no materialized view named {name!r}")
            if self._durability is not None:
                self._durability.log_drop_view(name)
            del self._views[name]

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    @property
    def durable(self) -> bool:
        return self._durability is not None

    def checkpoint(self) -> Optional[Dict[str, Any]]:
        """Snapshot now and compact the WAL (no-op on memory-only databases).

        Runs under the writer lock, so the snapshot is a consistent
        point-in-time image; returns the snapshot report.
        """
        if self._durability is None:
            return None
        with self._rw_lock.write_locked(), self._lock:
            self._check_open()
            return self._durability.snapshot(self)

    def durability_stats(self) -> Optional[Dict[str, Any]]:
        """WAL/snapshot/idempotency counters (None on memory-only databases)."""
        if self._durability is None:
            return None
        with self._lock:
            return self._durability.stats()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def cache_stats(self) -> Dict[str, Any]:
        """Aggregate plan-cache counters across every engine of this database."""
        with self._lock:
            return {
                "entries": len(self.plan_cache),
                "max_entries": self.plan_cache.max_entries,
                "shared": True,
                "engines": sorted(self._engines),
                "views": sorted(self._views),
                "maintenance": self.maintenance.as_dict(),
                **self.plan_cache.stats.as_dict(),
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Database({self.catalog.name!r}, default_engine={self.default_engine!r}, "
            f"{len(self.catalog)} relations)"
        )


def _receipt_counts(kind: str, deleted: int, inserted: int) -> Dict[str, int]:
    """The row-count fields of a ``kind`` write's public receipt."""
    if kind == "load":
        return {"appended": inserted}
    if kind == "delete":
        return {"deleted": deleted}
    return {"deleted": deleted, "inserted": inserted}


# ----------------------------------------------------------------------
# fork-mode plumbing for Database.execute_many(mode="process")
# ----------------------------------------------------------------------
#: set inside each forked worker by the pool initializer: the database and
#: engine name the worker serves (inherited memory, not a pickle round-trip)
_FORK_STATE: Optional[Tuple[Database, str]] = None


def _forked_worker_init(database: Database, engine_name: str) -> None:
    global _FORK_STATE
    # the parent's reader/writer lock state (reader counts, waiting writers)
    # is meaningless in the child — replace it so child queries never block
    # on readers that only exist in the parent
    database._rw_lock = ReadWriteLock()
    _FORK_STATE = (database, engine_name)


def _forked_batch_worker(item: Tuple[Union[str, QuerySpec], ParamsInput]) -> "QueryResult":
    database, engine_name = _FORK_STATE
    session = database.connect(engine=engine_name)
    query, bindings = item
    if isinstance(query, QuerySpec):
        return session.execute(query, params=bindings)
    return session.sql(query, params=bindings)


class Session:
    """One logical connection to a :class:`Database`.

    Sessions hold no mutable query state of their own — every execution
    resolves the engine through the database (so invalidation is
    transparent) and binds its parameters in a context variable (so
    concurrent sessions never observe each other's values).
    """

    def __init__(self, database: Database, engine: Optional[str] = None) -> None:
        self.database = database
        self.engine_name = resolve_engine_name(engine or database.default_engine)

    # -- context manager sugar -----------------------------------------
    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Sessions are stateless; provided for API symmetry."""

    # ------------------------------------------------------------------
    @property
    def engine(self) -> Engine:
        return self.database.engine(self.engine_name)

    @property
    def catalog(self) -> Catalog:
        return self.database.catalog

    def _run_rebinding(self, call: Any) -> Any:
        """Run ``call(engine)``, re-resolving once if the engine was retired.

        A concurrent :meth:`Database.note_data_change` may retire the
        executor between this session resolving it and the query running;
        re-resolving picks up the fresh engine bound to the re-encoded
        graph, which is the transparent-rebind behaviour sessions promise.
        A second retirement mid-retry (a continuous writer) propagates.

        The whole execution runs under the database's read lock, so a
        concurrent :meth:`Database.load_rows` delta cannot land mid-query:
        readers drain first, the writer applies atomically, and the next
        execution sees the complete post-write state.
        """
        with self.database._rw_lock.read_locked():
            try:
                return call(self.engine)
            except StaleEngineError:
                return call(self.engine)

    # ------------------------------------------------------------------
    # executing
    # ------------------------------------------------------------------
    def sql(
        self,
        sql: str,
        params: ParamsInput = None,
        name: str = "query",
    ) -> QueryResult:
        """Parse, bind and execute SQL text, with optional parameters.

        Parameters appear in the text as ``:name`` or positional ``?`` and
        are supplied as a mapping / sequence respectively.  Repeated calls
        with different values share one compiled plan (the plan-cache
        fingerprint is parameter-generic).
        """
        return self.prepare(sql, name=name).execute(params)

    def execute(
        self,
        query: Union[str, QuerySpec],
        params: ParamsInput = None,
        name: str = "query",
    ) -> QueryResult:
        """Execute SQL text or an already-bound QuerySpec — one front door.

        Callers no longer pre-parse just to pick an entry point: text goes
        through parse/bind/prepare (sharing the parameter-generic plan
        cache), a :class:`~repro.algebra.logical.QuerySpec` executes
        directly.  ``Database.execute_many`` accepts the same union per
        batch item.
        """
        if isinstance(query, str):
            return self.prepare(query, name=name).execute(params)
        expected = spec_parameters(query)
        bound = normalize_parameters(params, expected)
        check_parameter_types(bound, infer_parameter_types(query, self.catalog))
        with bind_parameters(bound):
            return self._run_rebinding(lambda engine: engine.execute(query))

    def prepare(self, sql: str, name: str = "stmt") -> "PreparedStatement":
        """Parse + bind once; execute any number of times with new values."""
        from ..sql import parse_and_bind

        spec = parse_and_bind(sql, self.catalog, name=name)
        # remember the recipe so Database.close() can persist a warm-start
        # manifest covering every statement this process prepared
        self.database._record_statement(self.engine_name, sql, spec)
        return PreparedStatement(
            session=self,
            sql=sql,
            spec=spec,
            parameter_names=spec_parameters(spec),
            parameter_types=infer_parameter_types(spec, self.catalog),
        )

    # ------------------------------------------------------------------
    # explaining
    # ------------------------------------------------------------------
    def explain(
        self,
        query: Union[str, QuerySpec],
        params: ParamsInput = None,
        analyze: bool = False,
        name: str = "query",
    ) -> str:
        """Render this session's engine plan for ``query``.

        The TAG engine shows the chosen rooted join tree and its
        message-volume cost breakdown; the baselines show their operator
        trees.  ``analyze=True`` additionally runs the query (parameters
        required then, if the query has any) and appends actual totals.
        """
        if isinstance(query, str):
            from ..sql import parse_and_bind

            spec = parse_and_bind(query, self.catalog, name=name)
        else:
            spec = query
        expected = spec_parameters(spec)
        if params is not None or analyze:
            bound = normalize_parameters(params, expected)
            check_parameter_types(bound, infer_parameter_types(spec, self.catalog))
        else:
            bound = {}
        header = f"engine: {self.engine_name}"
        with bind_parameters(bound):
            rendered = self._run_rebinding(
                lambda engine: engine.explain(spec, analyze=analyze)
            )
        return header + "\n" + rendered

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Session({self.database.catalog.name!r}, engine={self.engine_name!r})"


class PreparedStatement:
    """A parsed, bound, plan-cache-friendly statement.

    The expensive work (parse, bind, and — on first execution — join-tree
    planning) happens once; each :meth:`execute` only validates and binds
    its parameter values.  All executions share one plan-cache entry
    because the fingerprint renders parameters by name, not by value.
    """

    def __init__(
        self,
        session: Session,
        sql: str,
        spec: QuerySpec,
        parameter_names: List[str],
        parameter_types: Dict[str, str],
    ) -> None:
        self.session = session
        self.sql = sql
        self.spec = spec
        self.parameter_names = parameter_names
        self.parameter_types = parameter_types

    def execute(self, params: ParamsInput = None) -> QueryResult:
        bound = normalize_parameters(params, self.parameter_names)
        check_parameter_types(bound, self.parameter_types)
        with bind_parameters(bound):
            return self.session._run_rebinding(lambda engine: engine.execute(self.spec))

    def explain(self, params: ParamsInput = None, analyze: bool = False) -> str:
        return self.session.explain(self.spec, params=params, analyze=analyze)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        placeholders = ", ".join(f":{name}" for name in self.parameter_names) or "none"
        return f"PreparedStatement({self.spec.name!r}, parameters: {placeholders})"


# ----------------------------------------------------------------------
# bind-time parameter typing
# ----------------------------------------------------------------------
def infer_parameter_types(spec: QuerySpec, catalog: Catalog) -> Dict[str, str]:
    """Map parameter names to the DataType value-name of the column each is
    compared against, where that is unambiguous.

    Drives the early ``ParameterError`` on type mismatches (e.g. a string
    bound to ``O_TOTAL > :t``).  Parameters compared against columns of
    conflicting types — or never compared against a column directly — are
    left untyped and validated only at evaluation time.
    """
    from ..algebra.parameters import ParameterRef

    inferred: Dict[str, str] = {}
    conflicted: set = set()

    def note(name: str, type_name: Optional[str]) -> None:
        if type_name is None or name in conflicted:
            return
        if name in inferred and inferred[name] != type_name:
            del inferred[name]
            conflicted.add(name)
            return
        inferred[name] = type_name

    def column_type(alias_map: Mapping[str, str], expression: Expression) -> Optional[str]:
        if not isinstance(expression, ColumnRef) or expression.table is None:
            return None
        table = alias_map.get(expression.table)
        if table is None or table not in catalog:
            return None
        schema = catalog.schema(table)
        if expression.column not in schema:
            return None
        return schema.dtype(expression.column).value

    def visit_expression(alias_map: Mapping[str, str], expression: Expression) -> None:
        for node in iter_subexpressions(expression):
            if isinstance(node, Comparison):
                if isinstance(node.left, ParameterRef):
                    note(node.left.name, column_type(alias_map, node.right))
                if isinstance(node.right, ParameterRef):
                    note(node.right.name, column_type(alias_map, node.left))
            elif isinstance(node, Between):
                operand_type = column_type(alias_map, node.operand)
                for bound in (node.low, node.high):
                    if isinstance(bound, ParameterRef):
                        note(bound.name, operand_type)
            elif isinstance(node, InList):
                operand_type = column_type(alias_map, node.operand)
                for item in node.values:
                    if isinstance(item, ParameterRef):
                        note(item.name, operand_type)

    def visit(block: QuerySpec) -> None:
        alias_map = block.alias_map()
        for alias_filters in block.filters.values():
            for predicate in alias_filters:
                visit_expression(alias_map, predicate)
        for predicate in block.residual_predicates:
            visit_expression(alias_map, predicate)
        for subquery in block.subqueries:
            if subquery.outer_expr is not None:
                visit_expression(alias_map, subquery.outer_expr)
            visit(subquery.query)

    visit(spec)
    return inferred
