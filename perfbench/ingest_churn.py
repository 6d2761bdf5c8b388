"""ingest-churn: a fixed, seeded sequence of writes and reads on a durable database.

One client, closed loop, on ``Database(data_dir=...)`` at TPC-H mini scale
0.3 with the default flush policy (fsync on every WAL append) and the
default ``snapshot_every`` of 256.  One delta-maintained join view is
registered with ``materialize()``.  The generated rows are fixed
(``DATA_SEED``); the seed decides the operation sequence.  40% of the
operations load 10 ORDERS rows, 15% delete and 15% update rows the run
itself wrote, and 30% are parameterized reads, in seed-shuffled blocks of
20.  The run then closes the database and reopens it to time recovery.

The operation count is fixed for a given ``--seconds``, so the final data,
the WAL bytes and the recovery work are the same on every commit.  The
expected answer of every read and the final rows come from a plain Python
model of the same operation sequence, which shares no code with the
engine.
"""

from __future__ import annotations

import datetime as dt
import gc
import json
import os
import random
import shutil
import time
from collections import Counter
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

from common import (
    DATA_SEED,
    WORK_DIR,
    check,
    latency_summary,
    later_setups,
    peak_rss_mb,
    result_tuples,
    rows_match,
    safe_ratio,
)
from layers import dead_row_fraction, maintenance_counters, result_metrics, span_metrics
from tracing import Tracer

SCALE = 0.3
TINY_SCALE = 0.05
#: operations per second of ``--seconds``; the operation count is this times
#: ``--seconds``.  Each write makes later operations dearer, so the rate falls
#: as a run goes on: back to back, 940 operations ran at 49/s and 1200 at
#: 38/s, and 1000 ran at 44-45/s over five seeds (2-core x86-64 VM, Python
#: 3.11), so the window takes about ``--seconds``
OPS_PER_SECOND = 40
TINY_OPS = 60
ROWS_PER_LOAD = 10
ROWS_PER_MUTATION = 2
#: keys of rows the run writes start here, far above the generated ones
KEY_ZONE = 10_000_000
VIEW_NAME = "customer_orders"
VIEW_SQL = (
    "SELECT o.O_ORDERKEY, o.O_TOTALPRICE, c.C_NAME FROM ORDERS o, CUSTOMER c "
    "WHERE o.O_CUSTKEY = c.C_CUSTKEY"
)
READS = {
    "customer_orders": (
        "SELECT o.O_ORDERKEY, o.O_TOTALPRICE, o.O_ORDERSTATUS FROM ORDERS o "
        "WHERE o.O_CUSTKEY = :c"
    ),
    "nation_orders": (
        "SELECT c.C_NAME, o.O_ORDERKEY, o.O_TOTALPRICE FROM CUSTOMER c, ORDERS o "
        "WHERE c.C_CUSTKEY = o.O_CUSTKEY AND c.C_NATIONKEY = :n"
    ),
}
GOLDEN = (
    VIEW_SQL,
    "SELECT o.O_ORDERSTATUS, COUNT(*) AS n, SUM(o.O_TOTALPRICE) AS total FROM ORDERS o "
    "GROUP BY o.O_ORDERSTATUS",
    "SELECT c.C_NATIONKEY, COUNT(*) AS n FROM CUSTOMER c, ORDERS o "
    "WHERE c.C_CUSTKEY = o.O_CUSTKEY GROUP BY c.C_NATIONKEY",
)
#: operation kinds per block of 20; each block is shuffled by the seed
MIX = {"load": 8, "delete": 3, "update": 3, "customer_orders": 3, "nation_orders": 3}
STATUSES = ("O", "F", "P")
PRIORITIES = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW")


def generate(scale: float) -> Any:
    from repro.workloads import generate_tpch

    return generate_tpch(scale=scale, seed=DATA_SEED)


def make_ops(seed: int, catalog: Any, count: int) -> List[Dict[str, Any]]:
    """The operation sequence, each read with its expected answer.

    A Python model of the ORDERS rows follows the sequence, so deletes and
    updates pick rows the run wrote and are still live, and every read
    knows its answer at its point in the sequence.
    """
    rng = random.Random(seed * 7919 + 11)
    customers = {row[0]: (row[1], row[2]) for row in catalog.relation("CUSTOMER").rows}
    nations = sorted({nation for _name, nation in customers.values()})
    orders: List[Tuple[Any, ...]] = [tuple(row) for row in catalog.relation("ORDERS").rows]
    written: List[Tuple[Any, ...]] = []
    next_key = KEY_ZONE
    ops: List[Dict[str, Any]] = []

    def new_row(key: int) -> Tuple[Any, ...]:
        return (
            key,
            rng.randint(1, len(customers)),
            rng.choice(STATUSES),
            round(rng.uniform(100.0, 50_000.0), 2),
            dt.date(1995, 1, 1) + dt.timedelta(days=rng.randint(0, 1200)),
            rng.choice(PRIORITIES),
            rng.randint(0, 1),
        )

    def take(n: int) -> List[Tuple[Any, ...]]:
        picked = [written.pop(rng.randrange(len(written))) for _ in range(n)]
        for row in picked:
            orders.remove(row)
        return picked

    kinds: List[str] = []
    for _ in range(count):
        if not kinds:
            kinds = [kind for kind, n in MIX.items() for _ in range(n)]
            rng.shuffle(kinds)
        kind = kinds.pop()
        if kind == "load" or len(written) < 2 * ROWS_PER_MUTATION:
            rows = [new_row(next_key + i) for i in range(ROWS_PER_LOAD)]
            next_key += ROWS_PER_LOAD
            written.extend(rows)
            orders.extend(rows)
            ops.append({"kind": "load", "rows": rows})
        elif kind == "delete":
            ops.append({"kind": "delete", "rows": take(ROWS_PER_MUTATION)})
        elif kind == "update":
            victims = take(ROWS_PER_MUTATION)
            replacements = [
                (row[0], row[1], rng.choice(STATUSES), round(rng.uniform(100.0, 50_000.0), 2))
                + tuple(row[4:])
                for row in victims
            ]
            written.extend(replacements)
            orders.extend(replacements)
            ops.append({"kind": "update", "rows": victims, "replacements": replacements})
        elif kind == "customer_orders":
            custkey = rng.randint(1, len(customers))
            expected = [(r[0], r[3], r[2]) for r in orders if r[1] == custkey]
            ops.append({"kind": "read", "statement": "customer_orders", "params": {"c": custkey}, "expected": expected})
        else:
            nation = rng.choice(nations)
            expected = [
                (customers[r[1]][0], r[0], r[3]) for r in orders if customers[r[1]][1] == nation
            ]
            ops.append({"kind": "read", "statement": "nation_orders", "params": {"n": nation}, "expected": expected})
    ops.append({"kind": "final", "orders": list(orders)})
    return ops


def user_row_bytes(ops: List[Dict[str, Any]]) -> int:
    """Wire-encoded JSON size of every row handed to a write call."""
    from repro.core.wire import encode_row

    total = 0
    for op in ops:
        for key in ("rows", "replacements"):
            if op["kind"] != "read" and op["kind"] != "final":
                for row in op.get(key, ()):
                    total += len(json.dumps(encode_row(list(row))))
    return total


def open_database(catalog: Any, data_dir: str) -> Any:
    from repro.api import Database

    return Database(catalog, data_dir=data_dir)


def setup_once(scale: float, data_dir: str) -> Tuple[Any, Any, float]:
    """Generate the rows in an empty ``data_dir``, then time one set-up:
    durable open + encode + statistics + engine + view."""
    shutil.rmtree(data_dir, ignore_errors=True)
    catalog = generate(scale)
    gc.collect()
    started = time.perf_counter()
    database = open_database(catalog, data_dir)
    database.tag_graph()
    database.statistics
    database.engine()
    database.materialize(VIEW_SQL, name=VIEW_NAME)
    return database, catalog, time.perf_counter() - started


def prepare_reads(database: Any, ops: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Prepare the read statements and compile each shape once."""
    session = database.connect()
    statements = {name: session.prepare(sql) for name, sql in READS.items()}
    warmed = set()
    for op in ops:  # warm-up: one compile per read shape, before the window
        if op["kind"] == "read" and op["statement"] not in warmed:
            statements[op["statement"]].execute(op["params"])
            warmed.add(op["statement"])
    return statements


def run_ops(database: Any, statements: Dict[str, Any], ops: List[Dict[str, Any]]) -> Dict[str, Any]:
    read_latencies: List[float] = []
    write_latencies: List[float] = []
    answers: List[Tuple[Dict[str, Any], Any]] = []
    window_started = time.perf_counter()
    for op in ops:
        kind = op["kind"]
        started = time.perf_counter()
        if kind == "read":
            answer = statements[op["statement"]].execute(op["params"])
            read_latencies.append(time.perf_counter() - started)
        elif kind == "load":
            answer = database.load_rows("ORDERS", op["rows"])
            write_latencies.append(time.perf_counter() - started)
        elif kind == "delete":
            answer = database.delete_rows("ORDERS", op["rows"])
            write_latencies.append(time.perf_counter() - started)
        elif kind == "update":
            answer = database.update_rows("ORDERS", op["rows"], op["replacements"])
            write_latencies.append(time.perf_counter() - started)
        else:
            continue
        answers.append((op, answer))
    return {
        "window_s": time.perf_counter() - window_started,
        "read_latencies": read_latencies,
        "write_latencies": write_latencies,
        "answers": answers,
    }


def check_answers(answers: List[Tuple[Dict[str, Any], Any]], corrupt: bool) -> None:
    first_read = True
    for op, answer in answers:
        if op["kind"] == "read":
            actual = result_tuples(answer)
            if corrupt and first_read:
                actual = actual[1:] if actual else [("corrupt", 0, 0.0)]
            first_read = False
            check(rows_match(actual, op["expected"]), f"read {op['statement']} {op['params']} differs from the model")
        else:
            check(answer == len(op["rows"]), f"{op['kind']} applied {answer} rows, expected {len(op['rows'])}")


def database_state(database: Any) -> Dict[str, Any]:
    """What must survive a close and reopen: counts, view rows, golden answers."""
    session = database.connect()
    return {
        "counts": {relation.name: len(relation) for relation in database.catalog.relations()},
        "view": result_tuples(database.query_view(VIEW_NAME)),
        "golden": [result_tuples(session.sql(sql)) for sql in GOLDEN],
    }


def cold_database(scale: float, final_orders: List[Tuple[Any, ...]]) -> Any:
    """A memory-only database loaded with the model's final rows."""
    from repro.api import Database

    catalog = generate(scale)
    orders = catalog.relation("ORDERS")
    orders.delete_where(lambda row: True)
    orders.extend(list(row) for row in final_orders)
    catalog.note_data_change()
    return Database.from_catalog(catalog)


def states_match(left: Dict[str, Any], right: Dict[str, Any]) -> bool:
    return (
        left["counts"] == right["counts"]
        and rows_match(left["view"], right["view"])
        and all(rows_match(a, b) for a, b in zip(left["golden"], right["golden"]))
    )


def measure(seed: int, seconds: float, tiny: bool, corrupt: bool, tracer: Optional[Tracer]) -> Dict[str, Any]:
    scale = TINY_SCALE if tiny else SCALE
    data_dir = os.path.join(WORK_DIR, f"ingest-{seed}-{os.getpid()}")
    try:
        outcome = _measure(seed, seconds, tiny, corrupt, tracer, scale, data_dir)
        gc.collect()  # the measured database is gone with _measure's frame
        setup_times = outcome["info"]["setup_seconds"]
        setup_times += later_setups(lambda: setup_once(scale, data_dir)[::2])  # (database, seconds)
        outcome["end_to_end"]["setup_s"] = median(setup_times)
        return outcome
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


def _measure(
    seed: int,
    seconds: float,
    tiny: bool,
    corrupt: bool,
    tracer: Optional[Tracer],
    scale: float,
    data_dir: str,
) -> Dict[str, Any]:
    setup_mark = tracer.mark() if tracer else None
    database, catalog, first_setup = setup_once(scale, data_dir)
    setup_end = tracer.mark() if tracer else None
    count = TINY_OPS if tiny else int(OPS_PER_SECOND * seconds)
    ops = make_ops(seed, catalog, count)
    final_orders = ops.pop()["orders"]
    statements = prepare_reads(database, ops)
    maintenance_before = maintenance_counters(database)
    cache_before = database.cache_stats()
    window_mark = tracer.mark() if tracer else None
    run = run_ops(database, statements, ops)
    window_end = tracer.mark() if tracer else None
    maintenance_after = maintenance_counters(database)
    cache_after = database.cache_stats()
    rss = peak_rss_mb()
    durability = database.durability_stats()
    dead_rows = dead_row_fraction(database.catalog)

    check_answers(run["answers"], corrupt)
    live_orders = [tuple(row) for row in database.catalog.relation("ORDERS").rows]
    check(Counter(live_orders) == Counter(final_orders), "live ORDERS rows differ from the model")
    before_close = database_state(database)
    database.close()

    reopen_catalog = generate(scale)
    gc.collect()
    recovery_mark = tracer.mark() if tracer else None
    started = time.perf_counter()
    recovered = open_database(reopen_catalog, data_dir)
    recovered.engine()
    recovery_s = time.perf_counter() - started
    recovery_end = tracer.mark() if tracer else None
    if tracer is not None:
        tracer.uninstall()
    after_reopen = database_state(recovered)
    graph = recovered.tag_graph()
    graph_size = (graph.vertex_count, graph.edge_count)
    recovered.close()
    check(states_match(after_reopen, before_close), "recovered state differs from the state before close")
    cold = cold_database(scale, final_orders)
    cold_golden = [result_tuples(cold.connect().sql(sql)) for sql in GOLDEN]
    cold.close()
    check(
        all(rows_match(a, b) for a, b in zip(after_reopen["golden"], cold_golden)),
        "recovered golden answers differ from a cold database loaded with the final rows",
    )

    reads = len(run["read_latencies"])
    writes = len(run["write_latencies"])
    p50, tail, pct = latency_summary(run["read_latencies"])
    write_p50, write_tail, write_pct = latency_summary(run["write_latencies"])
    write_rows = sum(
        len(op["rows"]) + len(op.get("replacements", ())) for op, _ in run["answers"] if op["kind"] != "read"
    )
    outcome: Dict[str, Any] = {
        "end_to_end": {
            "peak_rss_mb": rss,
            "query_p50_ms": p50,
            "query_tail_ms": tail,
            "ops_per_s": len(ops) / run["window_s"],
        },
        "attempted": len(ops),
        "failed": 0,
        "info": {
            "ops": len(ops),
            "reads": reads,
            "writes": writes,
            "tail_percentile": pct,
            "write_tail_percentile": write_pct,
            "window_s": run["window_s"],
            "snapshots_written": durability["snapshots_written"],
            "wal_appends": durability["wal_appends"],
            "write_share": safe_ratio(sum(run["write_latencies"]), run["window_s"]),
            "recovery_s": recovery_s,
            "setup_seconds": [first_setup],
        },
    }
    if tracer is None:
        return outcome

    window = tracer.summary(window_mark, window_end).as_dict()
    window["counters"].update(
        {name: maintenance_after[name] - maintenance_before[name] for name in maintenance_after}
    )
    window["counters"]["user_row_bytes"] = user_row_bytes(ops)
    setup_agg = tracer.summary(setup_mark, setup_end).as_dict()
    recovery = tracer.summary(recovery_mark, recovery_end).as_dict()
    layer = span_metrics(window, setup_agg, reads, writes)
    read_results = [answer for op, answer in run["answers"] if op["kind"] == "read"]
    layer.update(result_metrics(read_results, [], cache_before, cache_after))
    layer.update(
        {
            "relational.dead_row_frac": dead_rows,
            "tag.vertices": float(graph_size[0]),
            "tag.edges": float(graph_size[1]),
            "durability.replay_ms": recovery["self"].get("durability.recover", 0.0) * 1000.0,
            "durability.snapshot_load_ms": recovery["total"].get("durability.snapshot_load", 0.0) * 1000.0,
            "workload.write_p50_ms": write_p50,
            "workload.write_tail_ms": write_tail,
            "workload.write_rows_per_s": safe_ratio(write_rows, sum(run["write_latencies"])),
            "workload.write_share": outcome["info"]["write_share"],
            "workload.recovery_s": recovery_s,
        }
    )
    outcome["layer"] = layer
    return outcome
