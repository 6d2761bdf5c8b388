"""A Spark-SQL-like distributed baseline executor.

Simulates the execution model of the system the paper compares against in
its distributed experiments (Sections 8.1.3 and 8.6): relations are read
pre-partitioned across ``num_partitions`` executors, every equi-join is
evaluated either as a *broadcast hash join* (small build side replicated
to every executor) or as a *shuffle hash join* (both sides re-partitioned
on the join key), and aggregation is computed as per-partition partial
aggregates followed by a final exchange.  All cross-executor row movement
is charged to :class:`~repro.distributed.shuffle.ShuffleStats`, which the
Figure 16 benchmark reports as network traffic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..algebra.expressions import Expression, ExpressionError
from ..algebra.logical import AggregationClass, JoinCondition, QuerySpec
from ..bsp.metrics import RunMetrics
from ..core import operations as ops
from ..core.executor import QueryResult
from ..core.subquery import compile_subquery_filters
from ..relational.catalog import Catalog
from ..relational.types import NULL
from .shuffle import (
    PartitionedRows,
    RowDict,
    ShuffleStats,
    broadcast,
    gather,
    scatter,
    shuffle_by_key,
)


@dataclass
class SparkLikeOptions:
    """Tuning knobs of the simulated cluster."""

    num_partitions: int = 6
    #: rows below which the build side is broadcast instead of shuffled.  The
    #: default mirrors Spark's 10 MB autoBroadcastJoinThreshold relative to the
    #: mini workload sizes: only genuinely small dimension tables qualify.
    broadcast_threshold_rows: int = 50
    collect_result_at_driver: bool = True


class SparkLikeExecutor:
    """Distributed shuffle/broadcast-join baseline ("spark_sql" in the paper)."""

    def __init__(
        self,
        catalog: Catalog,
        options: Optional[SparkLikeOptions] = None,
        name: str = "spark_like",
    ) -> None:
        self.catalog = catalog
        self.options = options or SparkLikeOptions()
        self.name = name

    # ------------------------------------------------------------------
    def apply(self, relation_name: str, delta: Any, catalog_version: int) -> None:
        """Nothing to patch: this executor scans the shared catalog per run."""
        del relation_name, delta, catalog_version

    # ------------------------------------------------------------------
    def execute(self, spec: QuerySpec) -> QueryResult:
        spec.validate(self.catalog)
        metrics = RunMetrics(label=f"{self.name}:{spec.name}")
        stats = ShuffleStats()
        started = time.perf_counter()
        rows, columns, aggregation_class = self._execute_block(spec, stats)
        metrics.wall_time_seconds = time.perf_counter() - started
        self._fold_stats(metrics, stats)
        result = QueryResult(rows, columns, metrics, aggregation_class)
        result.shuffle_stats = stats  # type: ignore[attr-defined]
        return result

    def execute_sql(self, sql: str) -> QueryResult:
        from ..sql import parse_and_bind

        return self.execute(parse_and_bind(sql, self.catalog))

    def explain(self, spec: QuerySpec, analyze: bool = False) -> str:
        """The distributed operator tree: scans, join strategies, exchanges.

        Replays the planner's decisions — greedy join order over filtered
        scan sizes, broadcast vs shuffle per join — without materialising
        any join.  With ``analyze=True`` the query also runs and the actual
        row count and shuffle traffic are appended.
        """
        spec.validate(self.catalog)
        lines = [
            f"spark-like plan for {spec.name!r} "
            f"({self.options.num_partitions} partitions)"
        ]
        if spec.subqueries:
            lines.append(
                f"  subquery predicates: {len(spec.subqueries)} "
                "(evaluated first, folded into scan filters)"
            )
        aliases = spec.aliases()
        sizes: Dict[str, int] = {}
        for alias in aliases:
            relation = self.catalog.relation(spec.table_for(alias))
            predicates = spec.filters_for(alias)
            size_note = "rows after filters"
            if predicates:
                names = relation.schema.column_names
                try:
                    matched = 0
                    for raw in relation:
                        context = {
                            f"{alias}.{name}": value for name, value in zip(names, raw)
                        }
                        if ops.passes_filters(context, predicates):
                            matched += 1
                    sizes[alias] = matched
                except ExpressionError:
                    # filters reference unbound query parameters: EXPLAIN
                    # without values falls back to the unfiltered size
                    sizes[alias] = len(relation)
                    size_note = "rows, filters unevaluated (unbound parameters)"
            else:
                sizes[alias] = len(relation)
            filter_note = f", {len(predicates)} filters" if predicates else ""
            lines.append(
                f"  scan {alias} ({relation.name}: {sizes[alias]} {size_note}{filter_note})"
            )

        remaining = set(aliases)
        current_alias = max(remaining, key=lambda alias: sizes[alias])
        joined = {current_alias}
        remaining.discard(current_alias)
        step = 0
        while remaining:
            candidates = []
            for alias in remaining:
                conditions = self._conditions_between(spec, joined, alias)
                candidates.append((not bool(conditions), sizes[alias], alias))
            candidates.sort()
            _disconnected, _size, alias = candidates[0]
            conditions = self._conditions_between(spec, joined, alias)
            step += 1
            if not conditions:
                strategy = "cartesian (broadcast right side)"
            elif sizes[alias] <= self.options.broadcast_threshold_rows:
                strategy = f"broadcast hash join ({sizes[alias]} rows replicated)"
            else:
                strategy = f"shuffle hash join (repartition both sides on {len(conditions)} keys)"
            keys = "; ".join(repr(condition) for condition in conditions) or "none"
            lines.append(f"  join {step}: + {alias} via {strategy} [keys: {keys}]")
            joined.add(alias)
            remaining.discard(alias)

        if spec.residual_predicates:
            lines.append(f"  residual filter: {len(spec.residual_predicates)} predicates")
        if spec.aggregates:
            grouping = (
                ", ".join(group_col.qualified for group_col in spec.group_by) or "<global>"
            )
            lines.append(
                f"  aggregate: partial per partition, exchange on [{grouping}], finalize"
            )
        elif spec.distinct:
            lines.append("  distinct at the driver")
        if self.options.collect_result_at_driver:
            lines.append("  collect result at driver")

        if analyze:
            result = self.execute(spec)
            stats: ShuffleStats = result.shuffle_stats  # type: ignore[attr-defined]
            lines.append(
                "  actual: "
                f"{len(result.rows)} rows, {stats.network_rows} shuffled rows, "
                f"{stats.network_bytes} network bytes, "
                f"{result.metrics.wall_time_seconds:.4f}s wall"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def _execute_block(
        self, spec: QuerySpec, stats: ShuffleStats
    ) -> Tuple[List[RowDict], List[str], AggregationClass]:
        extra_filters: Dict[str, List[Expression]] = {}
        extra_residuals: List[Expression] = []
        if spec.subqueries:
            extra_filters, extra_residuals = compile_subquery_filters(
                spec.subqueries, lambda inner: self._nested_rows(inner, stats)
            )

        residuals = list(spec.residual_predicates) + extra_residuals
        partitions = self._join_all(spec, extra_filters, residuals, stats)

        # residual predicates run partition-locally
        if residuals:
            partitions = [ops.rows_passing(partition, residuals) for partition in partitions]

        aggregation_class = spec.aggregation_class(self.catalog)
        if spec.aggregates:
            rows = self._aggregate(spec, partitions, stats)
        else:
            if spec.output:
                partitions = [
                    [ops.evaluate_output_columns(spec.output, row) for row in partition]
                    for partition in partitions
                ]
            rows = gather(partitions, stats, charge=self.options.collect_result_at_driver)
            if spec.distinct:
                rows = ops.deduplicate(rows)
        # shared across all engines so results line up column for column
        columns = spec.result_columns()
        return rows, columns, aggregation_class

    def _nested_rows(self, inner: QuerySpec, stats: ShuffleStats) -> List[RowDict]:
        inner.validate(self.catalog)
        rows, _columns, _agg = self._execute_block(inner, stats)
        return rows

    # ------------------------------------------------------------------
    # scans and joins
    # ------------------------------------------------------------------
    def _scan(
        self,
        spec: QuerySpec,
        alias: str,
        extra_filters: Dict[str, List[Expression]],
        residuals: Sequence[Expression] = (),
    ) -> PartitionedRows:
        relation = self.catalog.relation(spec.table_for(alias))
        names = relation.schema.column_names
        predicates = list(spec.filters_for(alias)) + list(extra_filters.get(alias, []))
        needed = spec.required_columns_of(alias)
        for predicate in residuals:
            for qualified in predicate.columns():
                if "." in qualified:
                    owner, column = qualified.split(".", 1)
                    if owner == alias:
                        needed.add(column)
        rows = []
        for raw in relation:
            context = {f"{alias}.{name}": value for name, value in zip(names, raw)}
            if predicates and not ops.passes_filters(context, predicates):
                continue
            if needed:
                context = {
                    key: value
                    for key, value in context.items()
                    if key.split(".", 1)[1] in needed
                }
            rows.append(context)
        return scatter(rows, self.options.num_partitions)

    def _join_all(
        self,
        spec: QuerySpec,
        extra_filters: Dict[str, List[Expression]],
        residuals: Sequence[Expression],
        stats: ShuffleStats,
    ) -> PartitionedRows:
        aliases = spec.aliases()
        scans = {alias: self._scan(spec, alias, extra_filters, residuals) for alias in aliases}
        sizes = {alias: sum(len(part) for part in scans[alias]) for alias in aliases}
        remaining: Set[str] = set(aliases)
        current_alias = max(remaining, key=lambda alias: sizes[alias])
        current = scans[current_alias]
        joined = {current_alias}
        remaining.discard(current_alias)

        while remaining:
            candidates = []
            for alias in remaining:
                conditions = self._conditions_between(spec, joined, alias)
                candidates.append((not bool(conditions), sizes[alias], alias))
            candidates.sort()
            _disconnected, _size, alias = candidates[0]
            conditions = self._conditions_between(spec, joined, alias)
            current = self._join(current, scans[alias], conditions, sizes[alias], stats)
            joined.add(alias)
            remaining.discard(alias)
        return current

    def _conditions_between(
        self, spec: QuerySpec, joined: Set[str], alias: str
    ) -> List[JoinCondition]:
        conditions = []
        for condition in spec.join_conditions:
            if condition.left_alias in joined and condition.right_alias == alias:
                conditions.append(condition)
            elif condition.right_alias in joined and condition.left_alias == alias:
                conditions.append(condition.reversed())
        return conditions

    def _join(
        self,
        left: PartitionedRows,
        right: PartitionedRows,
        conditions: List[JoinCondition],
        right_size: int,
        stats: ShuffleStats,
    ) -> PartitionedRows:
        num_partitions = self.options.num_partitions
        if not conditions:
            # cross join: broadcast the right side everywhere
            replicated = broadcast(right, num_partitions, stats)
            return [
                [self._merge(left_row, right_row) for left_row in partition for right_row in replicated]
                for partition in left
            ]
        left_keys = [f"{c.left_alias}.{c.left_column}" for c in conditions]
        right_keys = [f"{c.right_alias}.{c.right_column}" for c in conditions]

        if right_size <= self.options.broadcast_threshold_rows:
            # broadcast hash join: replicate the small side to every executor
            replicated = broadcast(right, num_partitions, stats)
            build: Dict[Tuple[Any, ...], List[RowDict]] = {}
            for row in replicated:
                key = tuple(row.get(column) for column in right_keys)
                if any(part is NULL for part in key):
                    continue
                build.setdefault(key, []).append(row)
            result: PartitionedRows = []
            for partition in left:
                local = []
                for left_row in partition:
                    key = tuple(left_row.get(column) for column in left_keys)
                    for match in build.get(key, ()):
                        local.append(self._merge(left_row, match))
                result.append(local)
            return result

        # shuffle hash join: repartition both inputs on the join key
        left_shuffled = shuffle_by_key(left, left_keys, num_partitions, stats)
        right_shuffled = shuffle_by_key(right, right_keys, num_partitions, stats)
        result = []
        for left_partition, right_partition in zip(left_shuffled, right_shuffled):
            build = {}
            for row in right_partition:
                key = tuple(row.get(column) for column in right_keys)
                if any(part is NULL for part in key):
                    continue
                build.setdefault(key, []).append(row)
            local = []
            for left_row in left_partition:
                key = tuple(left_row.get(column) for column in left_keys)
                for match in build.get(key, ()):
                    local.append(self._merge(left_row, match))
            result.append(local)
        return result

    @staticmethod
    def _merge(left_row: RowDict, right_row: RowDict) -> RowDict:
        merged = dict(left_row)
        merged.update(right_row)
        return merged

    # ------------------------------------------------------------------
    # aggregation: partition-local partials + final exchange
    # ------------------------------------------------------------------
    def _aggregate(
        self, spec: QuerySpec, partitions: PartitionedRows, stats: ShuffleStats
    ) -> List[RowDict]:
        group_columns = [
            f"{group_col.table}.{group_col.column}" if group_col.table else group_col.column
            for group_col in spec.group_by
        ]
        partial_partitions: PartitionedRows = []
        for partition in partitions:
            partials: Dict[Tuple[Any, ...], Dict[str, Any]] = {}
            samples: Dict[Tuple[Any, ...], RowDict] = {}
            for row in partition:
                key = ops.group_key(group_columns, row)
                if key in partials:
                    partials[key] = ops.accumulate_partial(partials[key], spec.aggregates, row)
                else:
                    partials[key] = ops.accumulate_partial(
                        ops.empty_partial(spec.aggregates), spec.aggregates, row
                    )
                    samples[key] = row
            partial_partitions.append(
                [
                    {"__key": key, "__partial": partial, "__sample": samples[key]}
                    for key, partial in partials.items()
                ]
            )
        # exchange: all partials for a group meet on one executor
        exchanged = shuffle_by_key(
            partial_partitions, ["__key"], self.options.num_partitions, stats
        )
        merged: Dict[Tuple[Any, ...], Dict[str, Any]] = {}
        samples_all: Dict[Tuple[Any, ...], RowDict] = {}
        for partition in exchanged:
            for entry in partition:
                key = entry["__key"]
                if key in merged:
                    merged[key] = ops.merge_partials(merged[key], entry["__partial"], spec.aggregates)
                else:
                    merged[key] = entry["__partial"]
                    samples_all[key] = entry["__sample"]
        rows = []
        for key, partial in merged.items():
            final = ops.finalize_partial(partial, spec.aggregates)
            row = ops.evaluate_output_columns(spec.output, samples_all[key])
            row.update(final)
            rows.append(row)
        if not rows and not spec.group_by:
            rows = [ops.finalize_partial(ops.empty_partial(spec.aggregates), spec.aggregates)]
        return rows

    # ------------------------------------------------------------------
    @staticmethod
    def _fold_stats(metrics: RunMetrics, stats: ShuffleStats) -> None:
        step = metrics.new_superstep(0)
        step.messages_sent = stats.network_rows
        step.message_bytes = stats.network_bytes
        step.network_messages = stats.network_rows
        step.network_bytes = stats.network_bytes
        step.compute_units = stats.shuffled_rows
