"""The durability manager: WAL + snapshots + idempotency for one Database.

One :class:`DurabilityManager` owns the on-disk state under a database's
``data_dir``::

    data_dir/
        wal.log                  append-only delta log (wal.py framing)
        snapshot-<lsn>.json      periodic full-state snapshots (snapshot.py)
        plan_manifest.json       warm-start plan manifest (planner.persist)

and enforces the two orderings every crash-safety argument here rests on:

* **log before apply** — every mutation (``load_rows`` appends,
  ``delete_rows`` tombstones, ``update_rows`` delete+insert pairs) is
  framed, written and fsync'd to the WAL *before* any in-memory state
  changes.  An
  acknowledged write is therefore always in the WAL, so recovery replays
  it; an unacknowledged write either never reached the WAL (the client
  retries and it applies once) or reached it without the ack (recovery
  replays it, and the client's retry dedups against the applied-id table
  the replay rebuilt).  Exactly-once, both directions.
* **snapshot covers a prefix** — a snapshot records the ``wal_lsn`` up to
  which its contents are complete; recovery loads the newest valid
  snapshot and replays only records past that LSN, and compaction only
  drops records a durable snapshot covers.  A crash anywhere between
  "snapshot renamed" and "WAL compacted" is safe: replaying covered
  records is prevented by the LSN filter, not by the compaction.

Recovery (:meth:`DurabilityManager.recover`) proceeds dictionary → rows →
WAL replay → one catalog version bump → view re-materialization, and the
result is asserted (in tests, at every chaos-matrix crash point) equal to
a clean from-scratch load of the same acknowledged rows.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from typing import Any, Dict, Optional

from ..core.wire import decode_row, iter_encoded_rows
from .failpoints import maybe_fire
from .snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    load_latest_snapshot,
    prune_snapshots,
    write_snapshot,
)
from .wal import WriteAheadLog

WAL_FILENAME = "wal.log"
PLAN_MANIFEST_FILENAME = "plan_manifest.json"

#: retry-window size: how many distinct write request ids the server
#: remembers for dedup.  Retries older than the window re-apply; the
#: client contract (serve/client.py) retries within seconds, not days.
APPLIED_IDS_LIMIT = 8192


#: WAL record types that carry row deltas, each with the record fields
#: holding its (deleted, inserted) rows; None = that half is always empty
ROW_RECORD_FIELDS = {
    "load": (None, "rows"),
    "delete": ("rows", None),
    "update": ("deleted", "inserted"),
}


class DurabilityError(RuntimeError):
    """The durable state on disk cannot be reconciled with the catalog."""


class DurabilityManager:
    """Owns a database's WAL, snapshots and applied-request-id table.

    Thread-safety: every mutating call happens under the owning
    database's writer lock (the write path) or during single-threaded
    recovery, so the manager itself needs no locking.
    """

    def __init__(
        self,
        data_dir: str,
        fsync: bool = True,
        snapshot_every: int = 256,
        snapshots_kept: int = 2,
    ) -> None:
        self.data_dir = data_dir
        self.snapshot_every = max(int(snapshot_every), 1)
        self.snapshots_kept = max(int(snapshots_kept), 1)
        os.makedirs(data_dir, exist_ok=True)
        self.wal = WriteAheadLog(os.path.join(data_dir, WAL_FILENAME), fsync=fsync)
        #: LSN the newest durable snapshot covers (0 = no snapshot)
        self.snapshot_lsn = 0
        #: request_id -> rows appended, bounded LRU (the idempotency window)
        self.applied_request_ids: "OrderedDict[str, int]" = OrderedDict()
        self.records_since_snapshot = 0
        self.counters: Dict[str, int] = {
            "wal_appends": 0,
            "wal_records_replayed": 0,
            "snapshots_written": 0,
            "snapshots_loaded": 0,
            "dedup_hits": 0,
            "replay_dedup_skips": 0,
            "torn_tail_dropped": int(self.wal.torn_tail_dropped),
            "recovery_view_skips": 0,
        }
        self.last_recovery_report: Optional[Dict[str, Any]] = None

    @property
    def plan_manifest_path(self) -> str:
        return os.path.join(self.data_dir, PLAN_MANIFEST_FILENAME)

    # ------------------------------------------------------------------
    # idempotency table
    # ------------------------------------------------------------------
    def applied(self, request_id: Optional[str]) -> Optional[int]:
        """Rows appended by a previously applied write, or ``None``."""
        if request_id is None:
            return None
        count = self.applied_request_ids.get(request_id)
        if count is not None:
            self.applied_request_ids.move_to_end(request_id)
            self.counters["dedup_hits"] += 1
        return count

    def note_applied(self, request_id: Optional[str], appended: int) -> None:
        if request_id is None:
            return
        table = self.applied_request_ids
        table[request_id] = appended
        table.move_to_end(request_id)
        while len(table) > APPLIED_IDS_LIMIT:
            table.popitem(last=False)

    # ------------------------------------------------------------------
    # logging (call BEFORE applying, under the writer lock)
    # ------------------------------------------------------------------
    def log_delta(self, delta: Any, request_id: Optional[str] = None) -> int:
        """Durably log one row delta as a single record; returns its LSN.

        The inserted rows must already be schema-validated/coerced (the
        caller runs ``Relation.validate_rows`` first) so a logged record
        can never fail to replay.  Deleted rows are carried *by value*,
        not by position: snapshot compaction rewrites relations from live
        rows only, so physical positions do not survive a snapshot
        boundary while row values do.  One record, one request id: an
        update's delete and insert halves replay together or (when
        deduplicated) not at all, so no crash can split them.
        """
        record: Dict[str, Any] = {"type": delta.kind, "relation": delta.relation.name}
        halves = (delta.deleted, delta.inserted)
        for field, rows in zip(ROW_RECORD_FIELDS[delta.kind], halves):
            if field is not None:
                record[field] = iter_encoded_rows(rows)
        if request_id is not None:
            record["request_id"] = request_id
        lsn = self.wal.append(record)
        self.counters["wal_appends"] += 1
        self.records_since_snapshot += 1
        return lsn

    def log_materialize(self, name: str, sql: str) -> int:
        lsn = self.wal.append({"type": "view", "name": name, "sql": sql})
        self.counters["wal_appends"] += 1
        self.records_since_snapshot += 1
        return lsn

    def log_drop_view(self, name: str) -> int:
        lsn = self.wal.append({"type": "drop_view", "name": name})
        self.counters["wal_appends"] += 1
        self.records_since_snapshot += 1
        return lsn

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def build_state(self, database: Any) -> Dict[str, Any]:
        """Serialize the database's durable state (caller holds write lock)."""
        catalog = database.catalog
        relations = {
            relation.name: iter_encoded_rows(relation.rows)
            for relation in catalog.relations()
        }
        views = [
            {"name": view.name, "sql": view.sql}
            for view in database._views.values()
        ]
        return {
            "format_version": SNAPSHOT_FORMAT_VERSION,
            "catalog": catalog.name,
            "schema_fingerprint": catalog.schema_fingerprint(),
            "wal_lsn": self.wal.last_lsn,
            "relations": relations,
            "dictionary": catalog.encoding.dictionary.values_snapshot(),
            "views": views,
            "applied_request_ids": dict(self.applied_request_ids),
        }

    def snapshot(self, database: Any) -> Dict[str, Any]:
        """Write a snapshot now, then compact the WAL prefix it covers."""
        started = time.perf_counter()
        state = self.build_state(database)
        path = write_snapshot(self.data_dir, state)
        covered = int(state["wal_lsn"])
        self.snapshot_lsn = covered
        kept = self.wal.compact(covered)
        prune_snapshots(self.data_dir, keep=self.snapshots_kept)
        self.records_since_snapshot = 0
        self.counters["snapshots_written"] += 1
        return {
            "path": path,
            "wal_lsn": covered,
            "wal_records_kept": kept,
            "seconds": time.perf_counter() - started,
        }

    def maybe_snapshot(self, database: Any) -> Optional[Dict[str, Any]]:
        if self.records_since_snapshot >= self.snapshot_every:
            return self.snapshot(database)
        return None

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def recover(self, database: Any) -> Dict[str, Any]:
        """Restore durable state into ``database`` (called from its init).

        Order matters: the dictionary is re-interned first so string
        codes come out deterministic across restarts, relation rows are
        *replaced* (never appended — a pre-populated catalog must not
        double-count), the WAL suffix replays its row deltas, the
        catalog version bumps exactly once, and views re-materialize
        last against the now-final data (view contents are a pure
        function of the data, so re-running their SQL is the recovery).
        """
        report: Dict[str, Any] = {
            "snapshot": None,
            "snapshot_lsn": 0,
            "wal_records_replayed": 0,
            "rows_replayed": 0,
            "views_restored": 0,
            "recovered": False,
        }
        catalog = database.catalog
        state = None
        loaded = load_latest_snapshot(self.data_dir)
        if loaded is not None:
            state, path = loaded
            fingerprint = state.get("schema_fingerprint")
            if fingerprint != catalog.schema_fingerprint():
                raise DurabilityError(
                    f"snapshot {path!r} was taken against a different schema "
                    f"(fingerprint {fingerprint!r}); refusing to recover into "
                    f"catalog {catalog.name!r}"
                )
            self.counters["snapshots_loaded"] += 1
            report["snapshot"] = path

        view_defs: "OrderedDict[str, str]" = OrderedDict()
        touched = False

        if state is not None:
            for value in state.get("dictionary", []):
                catalog.encoding.dictionary.intern(value)
            for name, encoded_rows in state.get("relations", {}).items():
                relation = catalog.relation(name)
                relation.delete_where(lambda row: True)
                relation.extend(decode_row(row) for row in encoded_rows)
            for entry in state.get("views", []):
                view_defs[entry["name"]] = entry["sql"]
            for request_id, count in state.get("applied_request_ids", {}).items():
                self.note_applied(request_id, int(count))
            self.snapshot_lsn = int(state.get("wal_lsn", 0))
            report["snapshot_lsn"] = self.snapshot_lsn
            # the WAL may have been compacted empty after this snapshot;
            # the LSN sequence must continue past what the snapshot covers
            # or fresh appends would be filtered out of the next replay
            self.wal.last_lsn = max(self.wal.last_lsn, self.snapshot_lsn)
            touched = True

        maybe_fire("recovery.before_replay")
        for record in self.wal.records(after_lsn=self.snapshot_lsn):
            kind = record.get("type")
            if kind in ROW_RECORD_FIELDS:
                request_id = record.get("request_id")
                if request_id is not None and request_id in self.applied_request_ids:
                    # a retry re-logged a write whose first attempt was
                    # rolled back mid-apply (or whose ack was lost);
                    # replaying both records would double-apply it
                    self.counters["replay_dedup_skips"] += 1
                else:
                    relation = catalog.relation(record["relation"])
                    deleted, inserted = (
                        [decode_row(row) for row in record.get(field, [])] if field else []
                        for field in ROW_RECORD_FIELDS[kind]
                    )
                    if deleted:
                        # delete by value, first live match per row (bag
                        # semantics): positions don't survive snapshot
                        # compaction, but WAL order is total so the match
                        # is deterministic
                        relation.delete_positions(relation.match_positions(deleted))
                    relation.extend(inserted)
                    self.note_applied(request_id, len(deleted) + len(inserted))
                    report["rows_replayed"] += len(deleted) + len(inserted)
                    touched = True
            elif kind == "view":
                view_defs[record["name"]] = record["sql"]
            elif kind == "drop_view":
                view_defs.pop(record["name"], None)
            self.counters["wal_records_replayed"] += 1
            report["wal_records_replayed"] += 1
        self.records_since_snapshot = report["wal_records_replayed"]

        if touched:
            # one version bump: statistics, the TAG encoding and engines
            # all lazily rebuild against the recovered data
            catalog.note_data_change()

        for name, sql in view_defs.items():
            try:
                database.materialize(sql, name=name, _durable_log=False)
                report["views_restored"] += 1
            except Exception:
                # views are derived state; a definition that no longer
                # compiles (schema drift) must not block data recovery
                self.counters["recovery_view_skips"] += 1

        report["recovered"] = touched or bool(view_defs)
        self.last_recovery_report = report
        return report

    # ------------------------------------------------------------------
    # observability / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        return {
            "data_dir": self.data_dir,
            "wal_lsn": self.wal.last_lsn,
            "wal_size_bytes": self.wal.size_bytes,
            "wal_fsync": self.wal.fsync,
            "snapshot_lsn": self.snapshot_lsn,
            "wal_lag_records": self.records_since_snapshot,
            "snapshot_every": self.snapshot_every,
            "applied_request_ids": len(self.applied_request_ids),
            **self.counters,
        }

    def close(self) -> None:
        self.wal.close()


__all__ = [
    "APPLIED_IDS_LIMIT",
    "DurabilityError",
    "DurabilityManager",
    "PLAN_MANIFEST_FILENAME",
    "WAL_FILENAME",
]
