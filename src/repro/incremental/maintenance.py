"""Counters describing what incremental maintenance did (and saved).

One instance lives on each :class:`repro.api.Database`; every field is
mutated only while the database's write lock is held, so the struct needs
no lock of its own.  Surfaced through ``Database.cache_stats()`` under the
``"maintenance"`` key and, per tenant, through the server ``stats`` op —
the serving benchmark reads the delta vs. rebuild timings from there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

__all__ = ["MaintenanceCounters"]


@dataclass
class MaintenanceCounters:
    #: total rows appended through the delta path
    rows_applied: int = 0
    #: deltas with appended rows (load_rows, update_rows) patched in place
    deltas_applied: int = 0
    #: total rows tombstoned through the delete-delta path
    rows_deleted: int = 0
    #: deltas with tombstoned rows (delete_rows, update_rows) patched in place
    delete_deltas_applied: int = 0
    #: materialized views maintained by a counting delete re-run
    views_delete_refreshed: int = 0
    #: deltas, rollbacks and note_data_change events that fell back to a
    #: full rebuild
    full_rebuilds: int = 0
    #: compiled plan fragments alive in the cache at the end of each delta
    #: (cumulative: what scorched-earth invalidation would have recompiled)
    plans_retained: int = 0
    #: executors patched via their apply(delta) hook instead of being
    #: retired (once per engine per delta, an update included)
    engines_patched: int = 0
    #: executors dropped for a lazy rebuild: no apply hook, or the
    #: executor or its TAG graph was already stale before the delta
    engines_dropped: int = 0
    #: materialized views maintained by a seminaïve delta re-run
    views_refreshed: int = 0
    #: materialized views that had to be recomputed from scratch
    views_recomputed: int = 0
    #: load_rows([]) calls ignored outright (no version bump, nothing touched)
    empty_loads_ignored: int = 0
    #: wall-clock totals, split by path
    delta_apply_seconds: float = 0.0
    full_rebuild_seconds: float = 0.0
    view_refresh_seconds: float = 0.0
    #: most recent per-event timings (the bench reports these directly)
    last_delta_seconds: float = 0.0
    last_rebuild_seconds: float = 0.0
    extra: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        payload = {
            "rows_applied": self.rows_applied,
            "deltas_applied": self.deltas_applied,
            "rows_deleted": self.rows_deleted,
            "delete_deltas_applied": self.delete_deltas_applied,
            "views_delete_refreshed": self.views_delete_refreshed,
            "full_rebuilds": self.full_rebuilds,
            "plans_retained": self.plans_retained,
            "engines_patched": self.engines_patched,
            "engines_dropped": self.engines_dropped,
            "views_refreshed": self.views_refreshed,
            "views_recomputed": self.views_recomputed,
            "empty_loads_ignored": self.empty_loads_ignored,
            "delta_apply_seconds": round(self.delta_apply_seconds, 6),
            "full_rebuild_seconds": round(self.full_rebuild_seconds, 6),
            "view_refresh_seconds": round(self.view_refresh_seconds, 6),
            "last_delta_seconds": round(self.last_delta_seconds, 6),
            "last_rebuild_seconds": round(self.last_rebuild_seconds, 6),
        }
        payload.update(self.extra)
        return payload
