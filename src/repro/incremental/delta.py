"""Signed row deltas and their in-place TAG graph application.

The paper's Section 3 argues attribute vertices are cheaper to maintain
than RDBMS indexes: inserting a tuple is one new tuple vertex plus local
edge changes (attribute vertices are created only for genuinely new
values), and deleting one drops its vertex and edges.  Every row
mutation of a :class:`~repro.api.Database` — ``load_rows``,
``delete_rows`` and ``update_rows`` alike — is one :class:`Delta`: the
Δ⁻ half (tombstoned positions and their row values) and the Δ⁺ half
(validated rows appended after it).  The functions here apply either
half to an existing :class:`TagGraph`, keeping the graph byte-for-byte
consistent with what a from-scratch
:class:`~repro.tag.encoder.TagEncoder` re-encode of the changed catalog
would have produced (the differential harness's interleaved-write suite
holds it to that), while also keeping the graph's
:class:`~repro.tag.encoder.LoadReport` accounting truthful.

Each appended row goes through :meth:`TagGraph.append_tuple`, the same
ingest path the bulk encoder uses: strings are interned into the
catalog-global dictionary (append-only — existing codes never move, so a
delta can only *extend* the dictionary, never invalidate compiled
literals) and tuple payloads are stored encoded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, List, Sequence

from ..relational.schema import Schema
from ..tag.encoder import TagGraph

__all__ = ["Delta", "apply_graph_delta", "apply_graph_delete"]


@dataclass
class Delta:
    """One signed mutation of one relation: Δ⁻ (tombstones) then Δ⁺ (appends).

    ``kind`` is the WAL record type the delta logs as (``"load"``,
    ``"delete"`` or ``"update"``).  ``positions`` are the victims'
    physical positions and ``deleted`` their row values, resolved before
    the write; ``inserted`` are schema-validated rows appended after the
    delete half.
    """

    kind: str
    relation: Any
    positions: List[int] = field(default_factory=list)
    deleted: List[Sequence[Any]] = field(default_factory=list)
    inserted: List[Sequence[Any]] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not self.positions and not self.inserted

    @property
    def rows_changed(self) -> int:
        return len(self.deleted) + len(self.inserted)


def apply_graph_delta(graph: TagGraph, schema: Schema, rows: Sequence[Sequence[Any]]) -> None:
    """Append ``rows`` of relation ``schema.name`` to ``graph`` in place.

    ``rows`` must already be schema-coerced (i.e. taken from the
    :class:`~repro.relational.relation.Relation` after insertion).
    Delegates row-by-row to :meth:`TagGraph.append_tuple`, so
    materialisation policy, encoding and LoadReport accounting are exactly
    the bulk encoder's — storage numbers stay comparable across the delta
    and rebuild paths by construction.
    """
    started = time.perf_counter()
    column_names = schema.column_names
    for row in rows:
        graph.append_tuple(schema, dict(zip(column_names, row)))
    graph.load_report.seconds += time.perf_counter() - started


def apply_graph_delete(graph: TagGraph, schema: Schema, positions: Sequence[int]) -> None:
    """Drop the tuple vertices at the given physical row positions in place.

    The delete-shaped mirror of :func:`apply_graph_delta`: each position's
    vertex (index ``position + 1`` by the append-time invariant) goes
    through :meth:`TagGraph.delete_tuple`, which refcounts shared
    attribute vertices — freed exactly when their last referencing tuple
    dies — and folds the LoadReport accounting, so the patched graph stays
    equivalent to a from-scratch re-encode of the shrunk catalog.
    """
    started = time.perf_counter()
    graph.delete_relation_tuples(schema, positions)
    graph.load_report.seconds += time.perf_counter() - started
