"""Incremental TAG maintenance: deltas instead of scorched-earth rebuilds.

Historically any write (``Database.load_rows`` / ``Catalog.note_data_change``)
threw away the TAG encoding, the statistics, every compiled plan, and every
executor — a serving system taking writes recompiled the world per insert.
This package replaces that with delta maintenance end to end:

* :mod:`~repro.incremental.delta` — the signed :class:`Delta` every row
  mutation becomes, and its in-place application to the existing
  :class:`~repro.tag.encoder.TagGraph` (the paper's Section 3
  observation that attribute vertices are cheaper to maintain than RDBMS
  indexes: inserts and deletes are local edge changes);
* :mod:`~repro.incremental.sketch` — mergeable k-minimum-values NDV
  sketches so :class:`~repro.tag.statistics.CatalogStatistics` stays fresh
  under appends without rescanning;
* :mod:`~repro.incremental.views` — materialized views maintained by
  seminaïve delta re-runs over only the new vertices (iterated supersteps
  on the BSP engine), after *Modular Materialisation of Datalog Programs*;
* :mod:`~repro.incremental.locks` — the reader/writer lock serializing
  delta application against in-flight reads;
* :mod:`~repro.incremental.maintenance` — the counters surfaced through
  ``Database.cache_stats()["maintenance"]`` and the server ``stats`` op.

Attribute access is lazy (PEP 562): :mod:`repro.tag.statistics` imports
:mod:`repro.incremental.sketch` while :mod:`repro.incremental.views`
imports :mod:`repro.core`, which imports the statistics module — eager
re-exports here would close that cycle.
"""

from __future__ import annotations

_EXPORTS = {
    "KMVSketch": "sketch",
    "ReadWriteLock": "locks",
    "MaintenanceCounters": "maintenance",
    "Delta": "delta",
    "apply_graph_delta": "delta",
    "MaterializedView": "views",
    "ViewError": "views",
    "view_refresh_mode": "views",
    "refresh_view_delta": "views",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value
