"""Size, shape and value statistics backing the TAG-join planner.

Backs the reproduction of Figure 14 (loaded data sizes) and Tables 1/2
(loading times), and provides the degree/selectivity statistics the
TAG-join planner uses to pick traversal orders and heavy/light thresholds.

The second half of the module is the catalog-level statistics store the
cost-based planner consumes: per-relation cardinalities plus per-column
distinct-value counts (NDV), null counts and derived selectivities,
gathered in one pass over the loaded catalog.  These numbers feed the
message-volume cost model of :mod:`repro.planner.cost` and the
cardinality estimates of the baseline engine's join-order planner.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from ..algebra.expressions import (
    And,
    Between,
    ColumnRef,
    Comparison,
    Expression,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
)
from ..algebra.parameters import ParameterRef
from ..incremental.sketch import KMVSketch
from ..relational.catalog import Catalog
from ..relational.relation import Relation
from ..relational.schema import Schema
from ..relational.types import NULL, value_size_bytes
from .encoder import TagGraph, edge_label

if TYPE_CHECKING:
    from ..incremental.delta import Delta


@dataclass
class TagStatistics:
    """Summary statistics of a TAG graph."""

    tuple_vertices: int
    attribute_vertices: int
    edges: int
    total_bytes: int
    load_seconds: float
    vertices_by_label: Dict[str, int]

    @classmethod
    def of(cls, graph: TagGraph) -> "TagStatistics":
        report = graph.load_report
        return cls(
            tuple_vertices=report.tuple_vertices,
            attribute_vertices=report.attribute_vertices,
            edges=graph.edge_count,
            total_bytes=report.total_bytes,
            load_seconds=report.seconds,
            vertices_by_label=graph.count_by_label(),
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "tuple_vertices": self.tuple_vertices,
            "attribute_vertices": self.attribute_vertices,
            "edges": self.edges,
            "total_bytes": self.total_bytes,
            "load_seconds": self.load_seconds,
        }


def edge_label_degrees(graph: TagGraph, relation: str, column: str) -> List[int]:
    """Out-degrees of attribute vertices along ``relation.column`` edges.

    Degree 1 everywhere means the column is key-like; large degrees signal
    skew (heavy values), which is what the heavy/light split of the cyclic
    algorithm keys on (Section 6.1.2).
    """
    label = edge_label(relation, column)
    degrees = []
    for vertex_id in graph.attribute_vertex_ids():
        degree = graph.out_degree(vertex_id, label)
        if degree:
            degrees.append(degree)
    return degrees


def column_selectivity(graph: TagGraph, relation: str, column: str) -> float:
    """Distinct values / tuples for a column, estimated from the TAG graph."""
    degrees = edge_label_degrees(graph, relation, column)
    total = sum(degrees)
    if total == 0:
        return 0.0
    return len(degrees) / total


def heavy_value_count(graph: TagGraph, relation: str, column: str, threshold: int) -> int:
    """Number of values occurring more than ``threshold`` times in ``relation.column``."""
    return sum(1 for degree in edge_label_degrees(graph, relation, column) if degree > threshold)


def storage_comparison(graph: TagGraph, catalog: Catalog) -> Dict[str, int]:
    """Bytes stored relationally vs as a TAG graph (Figure 14's comparison)."""
    return {
        "relational_bytes": catalog.total_data_size_bytes(),
        "tag_bytes": graph.load_report.total_bytes,
        "tag_tuple_bytes": graph.load_report.tuple_bytes,
        "tag_attribute_bytes": graph.load_report.attribute_bytes,
        "tag_edge_bytes": graph.load_report.edge_bytes,
    }


# ----------------------------------------------------------------------
# catalog-level statistics for the cost-based planner
# ----------------------------------------------------------------------
#: selectivity assumed for predicates the estimator has no model for
DEFAULT_PREDICATE_SELECTIVITY = 1.0 / 3.0
#: selectivity assumed for range comparisons (<, <=, >, >=)
RANGE_SELECTIVITY = 1.0 / 3.0
#: selectivity assumed for BETWEEN predicates
BETWEEN_SELECTIVITY = 1.0 / 4.0
#: selectivity assumed for LIKE predicates
LIKE_SELECTIVITY = 1.0 / 4.0


@dataclass(frozen=True)
class ColumnStatistics:
    """Value statistics of one column: distinct and null counts.

    ``sketch`` is the column's mergeable KMV distinct-value synopsis,
    seeded with every value seen at collect time.  It is what keeps
    ``distinct_values`` honest across delta ingests without rescanning:
    new values fold into the sketch, and the NDV is re-estimated from it
    (exact below the sketch size, ~6% relative error beyond).
    """

    column: str
    distinct_values: int
    null_count: int
    row_count: int
    sketch: Optional[KMVSketch] = None

    @property
    def selectivity(self) -> float:
        """Distinct values per row (1.0 means key-like, small means skewed)."""
        if self.row_count == 0:
            return 0.0
        return self.distinct_values / self.row_count

    @property
    def null_fraction(self) -> float:
        if self.row_count == 0:
            return 0.0
        return self.null_count / self.row_count


@dataclass(frozen=True)
class RelationStatistics:
    """Cardinality and per-column statistics of one base relation."""

    relation: str
    rows: int
    bytes: int
    columns: Dict[str, ColumnStatistics]

    @classmethod
    def of(cls, relation: Relation) -> "RelationStatistics":
        names = relation.schema.column_names
        nulls: Dict[str, int] = {name: 0 for name in names}
        sketches: Dict[str, KMVSketch] = {name: KMVSketch() for name in names}
        for row in relation:
            for name, value in zip(names, row):
                if value is NULL or value is None:
                    nulls[name] += 1
                else:
                    sketches[name].add(value)
        row_count = len(relation)
        # NDV comes from the relation, which reads the encoded column
        # store's distinct-code sets (exact, already maintained at insert
        # time) when the relation is catalog-bound — the "dictionary
        # sizes are statistics" half of the encoding contract.  Unbound
        # relations fall back to the memoized value scan.
        columns = {
            name: ColumnStatistics(
                column=name,
                distinct_values=relation.distinct_count(name),
                null_count=nulls[name],
                row_count=row_count,
                sketch=sketches[name],
            )
            for name in names
        }
        return cls(
            relation=relation.name,
            rows=row_count,
            bytes=relation.data_size_bytes(),
            columns=columns,
        )

    def ndv(self, column: str) -> int:
        stats = self.columns.get(column)
        return stats.distinct_values if stats is not None else max(1, self.rows)

    def with_delta(
        self, rows: Sequence[Dict[str, Any]], added_bytes: int = 0
    ) -> "RelationStatistics":
        """A copy reflecting ``rows`` appended, without rescanning.

        Cardinality and null counts update exactly; NDV folds the new
        values into each column's KMV sketch and re-estimates.  The
        estimate is kept monotonic (``max`` with the previous count) —
        under appends alone the true NDV can only grow, so sketch jitter
        must never shrink the planner's input.  It is also *capped* at
        previous-count-plus-appended-rows: appending ``n`` rows can add at
        most ``n`` distinct values, and the cap is what stops a sketch
        still carrying deletion drift (values removed but not yet rebuilt
        away) from re-inflating the NDV it can no longer vouch for.
        """
        row_count = self.rows + len(rows)
        columns: Dict[str, ColumnStatistics] = {}
        for name, stats in self.columns.items():
            null_added = 0
            sketch = stats.sketch
            for row in rows:
                value = row.get(name, NULL)
                if value is NULL or value is None:
                    null_added += 1
                elif sketch is not None:
                    sketch.add(value)
            distinct = stats.distinct_values
            if sketch is not None:
                ceiling = stats.distinct_values + len(rows)
                distinct = max(distinct, min(sketch.estimate(), ceiling))
            columns[name] = replace(
                stats,
                distinct_values=distinct,
                null_count=stats.null_count + null_added,
                row_count=row_count,
            )
        return replace(
            self, rows=row_count, bytes=self.bytes + added_bytes, columns=columns
        )

    def with_removals(
        self,
        relation: Relation,
        removed_rows: Sequence[Dict[str, Any]],
        removed_bytes: int = 0,
    ) -> "RelationStatistics":
        """A copy reflecting ``removed_rows`` deleted, without a full rescan.

        Cardinality, null counts and bytes decrease exactly.  NDV is read
        back from the (already tombstoned) relation — exact for free on
        encoded columns via the store's distinct-code refcounts, one
        memoized live-row scan otherwise.  The KMV sketches cannot
        subtract, so each one records its deletion drift and is re-seeded
        from the surviving values once drift passes
        :data:`~repro.incremental.sketch.REBUILD_DRIFT_RATIO` — that is
        what lets the estimate re-converge instead of over-counting the
        dead values forever.
        """
        row_count = max(0, self.rows - len(removed_rows))
        columns: Dict[str, ColumnStatistics] = {}
        for name, stats in self.columns.items():
            null_removed = 0
            value_removed = 0
            for row in removed_rows:
                value = row.get(name, NULL)
                if value is NULL or value is None:
                    null_removed += 1
                else:
                    value_removed += 1
            sketch = stats.sketch
            if sketch is not None and value_removed:
                sketch.note_removals(value_removed)
                if sketch.needs_rebuild(row_count):
                    sketch.rebuild_from(
                        value
                        for value in relation.column_values(name)
                        if value is not NULL and value is not None
                    )
            columns[name] = replace(
                stats,
                distinct_values=relation.distinct_count(name),
                null_count=max(0, stats.null_count - null_removed),
                row_count=row_count,
                sketch=sketch,
            )
        return replace(
            self,
            rows=row_count,
            bytes=max(0, self.bytes - removed_bytes),
            columns=columns,
        )


@dataclass
class CatalogStatistics:
    """Statistics of a whole catalog, collected once at load time.

    ``collect`` makes a single pass over every relation; the planner holds
    on to the resulting object for the life of the executor and refreshes
    it only when the catalog version changes (see
    :meth:`repro.relational.catalog.Catalog.version`).
    """

    catalog_name: str
    catalog_version: int
    relations: Dict[str, RelationStatistics] = field(default_factory=dict)
    collection_seconds: float = 0.0

    @classmethod
    def collect(cls, catalog: Catalog) -> "CatalogStatistics":
        started = time.perf_counter()
        relations = {relation.name: RelationStatistics.of(relation) for relation in catalog}
        return cls(
            catalog_name=catalog.name,
            catalog_version=catalog.version,
            relations=relations,
            collection_seconds=time.perf_counter() - started,
        )

    # ------------------------------------------------------------------
    # incremental maintenance
    # ------------------------------------------------------------------
    def apply_delta(self, catalog: Catalog, delta: "Delta") -> None:
        """Fold one signed row delta in, in place, without a rescan.

        The appended rows fold first: exact cardinality, null-count and
        byte increases, NDV through each column's KMV sketch.  The
        tombstoned rows fold second: exact decreases, NDV re-read from the
        live relation, sketch drift tracked (and rebuilt past the
        threshold) — so this must run *after* the relation has applied
        the delta, since it reads live-only state back.  Then the
        catalog's current version is stamped, so a following
        :func:`refreshed_statistics` call short-circuits and the planners
        holding a reference see fresh cost inputs the moment this returns.
        """
        relation = delta.relation
        stats = self.relations.get(relation.name)
        if stats is None:
            stats = RelationStatistics.of(relation)
        else:
            schema = relation.schema
            if delta.inserted:
                stats = stats.with_delta(
                    _value_dicts(schema, delta.inserted), _rows_bytes(schema, delta.inserted)
                )
            if delta.deleted:
                stats = stats.with_removals(
                    relation,
                    _value_dicts(schema, delta.deleted),
                    _rows_bytes(schema, delta.deleted),
                )
        self.relations[relation.name] = stats
        self.catalog_version = catalog.version

    # ------------------------------------------------------------------
    def cardinality(self, table: str) -> int:
        stats = self.relations.get(table)
        return stats.rows if stats is not None else 1

    def distinct_count(self, table: str, column: str) -> int:
        stats = self.relations.get(table)
        if stats is None:
            return 1
        return max(1, stats.ndv(column))

    def equality_selectivity(self, table: str, column: str) -> float:
        """Fraction of rows matching ``column = literal`` under uniformity."""
        return 1.0 / self.distinct_count(table, column)

    # ------------------------------------------------------------------
    # predicate selectivity estimation (System-R style heuristics)
    # ------------------------------------------------------------------
    def predicate_selectivity(self, table: str, predicate: Expression) -> float:
        if isinstance(predicate, Comparison):
            return self._comparison_selectivity(table, predicate)
        if isinstance(predicate, Between):
            return BETWEEN_SELECTIVITY
        if isinstance(predicate, Like):
            return 1.0 - LIKE_SELECTIVITY if predicate.negated else LIKE_SELECTIVITY
        if isinstance(predicate, InList):
            column = _single_column(predicate.operand)
            if column is not None:
                ndv = self.distinct_count(table, column)
                fraction = min(1.0, len(predicate.values) / ndv)
            else:
                fraction = DEFAULT_PREDICATE_SELECTIVITY
            return 1.0 - fraction if predicate.negated else fraction
        if isinstance(predicate, IsNull):
            fraction = self._null_fraction(table, predicate.operand)
            return 1.0 - fraction if predicate.negated else fraction
        if isinstance(predicate, And):
            product = 1.0
            for part in predicate.operands:
                product *= self.predicate_selectivity(table, part)
            return product
        if isinstance(predicate, Or):
            miss = 1.0
            for part in predicate.operands:
                miss *= 1.0 - self.predicate_selectivity(table, part)
            return 1.0 - miss
        if isinstance(predicate, Not):
            return 1.0 - self.predicate_selectivity(table, predicate.operand)
        return DEFAULT_PREDICATE_SELECTIVITY

    def _comparison_selectivity(self, table: str, predicate: Comparison) -> float:
        column = _single_column(predicate.left) or _single_column(predicate.right)
        if predicate.op == "=":
            if column is not None and _is_constant(predicate.left, predicate.right):
                return self.equality_selectivity(table, column)
            return DEFAULT_PREDICATE_SELECTIVITY
        if predicate.op in ("!=", "<>"):
            if column is not None and _is_constant(predicate.left, predicate.right):
                return 1.0 - self.equality_selectivity(table, column)
            return 1.0 - DEFAULT_PREDICATE_SELECTIVITY
        if predicate.op in ("<", "<=", ">", ">="):
            return RANGE_SELECTIVITY
        return DEFAULT_PREDICATE_SELECTIVITY

    def _null_fraction(self, table: str, operand: Expression) -> float:
        column = _single_column(operand)
        stats = self.relations.get(table)
        if column is None or stats is None:
            return DEFAULT_PREDICATE_SELECTIVITY
        column_stats = stats.columns.get(column)
        return column_stats.null_fraction if column_stats is not None else 0.0

    def estimated_rows(
        self, table: str, predicates: Sequence[Expression] = ()
    ) -> float:
        """Cardinality of ``table`` after applying pushed-down ``predicates``."""
        rows = float(self.cardinality(table))
        for predicate in predicates:
            rows *= self.predicate_selectivity(table, predicate)
        return max(rows, 0.0)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "catalog": self.catalog_name,
            "version": self.catalog_version,
            "collection_seconds": self.collection_seconds,
            "relations": {
                name: {"rows": stats.rows, "bytes": stats.bytes}
                for name, stats in self.relations.items()
            },
        }


def refreshed_statistics(
    catalog: Catalog, cached: Optional[CatalogStatistics]
) -> CatalogStatistics:
    """Return ``cached`` if still valid for ``catalog``, else re-collect.

    The single source of the invalidation rule (catalog version comparison),
    shared by the TAG cost-based planner and the RDBMS baseline planner so
    their refresh semantics cannot diverge.
    """
    if cached is None or cached.catalog_version != catalog.version:
        return CatalogStatistics.collect(catalog)
    return cached


def _value_dicts(schema: Schema, rows: Sequence[Sequence[Any]]) -> List[Dict[str, Any]]:
    """Positional rows -> ``column -> value`` dicts (the sketches' input)."""
    names = schema.column_names
    return [dict(zip(names, row)) for row in rows]


def _rows_bytes(schema: Schema, rows: Sequence[Sequence[Any]]) -> int:
    return sum(
        value_size_bytes(value, column.dtype)
        for row in rows
        for value, column in zip(row, schema.columns)
    )


def _single_column(expression: Expression) -> Optional[str]:
    """The bare column name when ``expression`` is a single column reference."""
    if isinstance(expression, ColumnRef):
        return expression.column
    return None


def _is_constant(left: Expression, right: Expression) -> bool:
    """True when exactly one side is a constant (literal or bound parameter).

    Query parameters count as constants: a prepared ``column = :v`` filter
    has the same shape as ``column = literal`` for estimation purposes even
    though the value is only known at execution time.
    """

    def constant(expression: Expression) -> bool:
        return isinstance(expression, (Literal, ParameterRef))

    return constant(left) != constant(right)
