"""tpch-warm: closed-loop passes of TPC-H q1-q22 on one in-process Session.

One client runs a warm-up pass (it fills the plan cache) and then a fixed
number of timed passes over the 22 query analogues at mini scale 1.0 on
the default engine.  The rows are fixed (``DATA_SEED``); the seed decides
the order of the queries in each timed pass.  The BSP kernel does nearly
all the work; parse+bind is about a millisecond per query.  Every answer
is checked against the ``rdbms`` engine's answer, computed once per run
outside the timed window.
"""

from __future__ import annotations

import gc
import random
import time
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

from common import (
    DATA_SEED,
    check,
    latency_summary,
    later_setups,
    peak_rss_mb,
    rows_match,
)
from layers import result_metrics, span_metrics
from tracing import Tracer

SCALE = 1.0
TINY_SCALE = 0.05
#: measured seconds per pass at scale 1.0 (median ``workload.pass_s`` on a
#: 2-core x86-64 VM, Python 3.11); sizes the pass count from ``--seconds``
PASS_SECONDS = 4.2


def pass_count(seconds: float, tiny: bool) -> int:
    if tiny:
        return 2
    return max(3, int(round(seconds / PASS_SECONDS)))


def build_database(catalog: Any, engine: Optional[str] = None) -> Any:
    """Catalog in hand to ready to serve: open, encode, statistics, engine."""
    from repro.api import Database

    database = Database.from_catalog(catalog)
    database.tag_graph()
    database.statistics
    database.engine(engine)
    return database


def setup_once(scale: float) -> Tuple[Any, Any, float]:
    """Generate the rows, then time one set-up of the database."""
    from repro.workloads import tpch_workload

    workload = tpch_workload(scale=scale, seed=DATA_SEED)
    gc.collect()
    started = time.perf_counter()
    database = build_database(workload.catalog)
    return database, workload, time.perf_counter() - started


def pass_orders(seed: int, queries: List[Any], passes: int) -> List[List[Any]]:
    """The queries of each timed pass, in an order drawn from the seed."""
    rng = random.Random(seed * 6151 + 5)
    return [rng.sample(queries, len(queries)) for _ in range(passes)]


def run_passes(session: Any, orders: List[List[Any]], traced: bool) -> Dict[str, Any]:
    latencies: List[float] = []
    pass_seconds: List[float] = []
    results: List[Tuple[str, Any]] = []
    plan_choices: List[Any] = []
    for order in orders:
        pass_started = time.perf_counter()
        for query in order:
            if traced:
                session.engine.last_plan_choice = None
            started = time.perf_counter()
            result = session.sql(query.sql)
            latencies.append(time.perf_counter() - started)
            results.append((query.name, result))
            if traced:
                plan_choices.append(session.engine.last_plan_choice)
        pass_seconds.append(time.perf_counter() - pass_started)
    return {
        "latencies": latencies,
        "pass_seconds": pass_seconds,
        "results": results,
        "plan_choices": plan_choices,
    }


def timed_pass(session: Any, queries: List[Any]) -> float:
    started = time.perf_counter()
    for query in queries:
        session.sql(query.sql)
    return time.perf_counter() - started


def check_answers(database: Any, queries: List[Any], results: List[Tuple[str, Any]], corrupt: bool) -> Any:
    """Compare every timed answer with the rdbms engine's answer; returns
    the rdbms session."""
    rdbms = database.connect("rdbms")
    reference: Dict[str, Any] = {}
    for query in queries:
        answer = rdbms.sql(query.sql)
        columns = sorted(answer.columns)
        reference[query.name] = (
            columns,
            [tuple(row.get(c) for c in columns) for row in answer.rows],
        )
    for index, (name, result) in enumerate(results):
        columns, expected = reference[name]
        actual = [tuple(row.get(c) for c in columns) for row in result.rows]
        if corrupt and index == 0:
            actual = actual[1:] if actual else [tuple(range(len(columns)))]
        check(sorted(result.columns) == columns, f"{name}: columns {result.columns} != {columns}")
        check(rows_match(actual, expected), f"{name}: answer differs from the rdbms answer")
    return rdbms


def measure(seed: int, seconds: float, tiny: bool, corrupt: bool, tracer: Optional[Tracer]) -> Dict[str, Any]:
    scale = TINY_SCALE if tiny else SCALE
    outcome = _measure(seed, seconds, tiny, corrupt, tracer, scale)
    gc.collect()  # the measured database is gone with _measure's frame
    setup_times = outcome["info"]["setup_seconds"]
    setup_times += later_setups(lambda: setup_once(scale)[::2])  # (database, seconds)
    outcome["end_to_end"]["setup_s"] = median(setup_times)
    return outcome


def _measure(
    seed: int, seconds: float, tiny: bool, corrupt: bool, tracer: Optional[Tracer], scale: float
) -> Dict[str, Any]:
    setup_mark = tracer.mark() if tracer else None
    database, workload, first_setup = setup_once(scale)
    setup_end = tracer.mark() if tracer else None
    queries = list(workload.queries)
    session = database.connect()
    for query in queries:  # warm-up: fills the plan cache
        session.sql(query.sql)
    cache_before = database.cache_stats()
    window_mark = tracer.mark() if tracer else None
    orders = pass_orders(seed, queries, pass_count(seconds, tiny))
    run = run_passes(session, orders, traced=tracer is not None)
    window_end = tracer.mark() if tracer else None
    if tracer is not None:
        tracer.uninstall()
    cache_after = database.cache_stats()
    rss = peak_rss_mb()
    rdbms = check_answers(database, queries, run["results"], corrupt)

    p50, tail, pct = latency_summary(run["latencies"])
    pass_median = median(run["pass_seconds"])
    outcome: Dict[str, Any] = {
        "end_to_end": {
            "peak_rss_mb": rss,
            "query_p50_ms": p50,
            "query_tail_ms": tail,
            "ops_per_s": len(queries) / pass_median,
        },
        "attempted": len(run["latencies"]),
        "failed": 0,
        "info": {
            "tail_percentile": pct,
            "samples": len(run["latencies"]),
            "passes": len(run["pass_seconds"]),
            "pass_seconds": run["pass_seconds"],
            "setup_seconds": [first_setup],
        },
    }
    if tracer is None:
        database.close()
        return outcome

    reads = len(run["latencies"])
    window = tracer.summary(window_mark, window_end).as_dict()
    setup_agg = tracer.summary(setup_mark, setup_end).as_dict()
    layer = span_metrics(window, setup_agg, reads, 0)
    layer.update(
        result_metrics(
            [result for _name, result in run["results"]], run["plan_choices"], cache_before, cache_after
        )
    )
    graph = database.tag_graph()
    rdbms_pass = timed_pass(rdbms, queries)
    vectorized = database.connect("tag_vectorized")
    timed_pass(vectorized, queries)  # warm-up
    layer.update(
        {
            "tag.vertices": float(graph.vertex_count),
            "tag.edges": float(graph.edge_count),
            "engine.rdbms_pass_s": rdbms_pass,
            "exec.vectorized_pass_s": timed_pass(vectorized, queries),
            "workload.pass_s": pass_median,
        }
    )
    outcome["layer"] = layer
    database.close()
    return outcome
