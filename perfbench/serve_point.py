"""serve-point: open-loop point lookups and small writes against a QueryServer.

A ``QueryServer`` runs in its own process (:mod:`serve_server`) with one
memory-only TPC-H tenant at mini scale 1.0.  This process is the load
generator: it sends requests over two multiplexed ``ServeClient``
connections at one fixed offered rate, each request due at a fixed time
and timed from when it was due, so a stall also counts against the
requests queued behind it.

The mix: 70% server-side prepared point lookups (20% order to
lineitems, 50% customer to orders, by key), 22% selective two-table
SELECTs sent as SQL text, and 8% writes, deletes and updates, in
seed-shuffled blocks of 50 requests.  The writes touch only keys at or
above ``KEY_ZONE``, so the answers of the lookups over the generated keys
never change.  The generated rows are fixed (``DATA_SEED``); the seed
decides the keys, the order and the writes.  Keys are drawn over about
3.3k values, far more than the server's 256-entry result cache.

Checks, after the window: every frame passes ``validate_response_frame``,
every lookup equals the answer computed in this process from the same
generated rows, and every write reports the row count it was sent.

``python3 perfbench/serve_point.py --calibrate`` measures the saturation
throughput of the mix (closed loop, 16 requests outstanding) that the
offered rate ``RATE`` was set from.
"""

from __future__ import annotations

import asyncio
import datetime as dt
import json
import os
import random
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

from common import (  # noqa: E402
    DATA_SEED,
    ROOT,
    WORK_DIR,
    check,
    latency_summary,
    percentile,
    rows_match,
    safe_ratio,
)
from layers import READ_ROOTS, span_metrics  # noqa: E402
from tracing import Tracer  # noqa: E402

SCALE = 1.0
TINY_SCALE = 0.05
#: closed-loop saturation of this mix with ``--calibrate`` (requests/s,
#: 2-core x86-64 VM, Python 3.11), a reference for ``RATE``
SATURATION = 122.0
#: offered requests per second.  A request of this mix takes about 10 ms
#: of server work under one interpreter lock, so 32/s keeps the server about
#: a third busy; at 48/s two of five seeds overloaded during slower spells
#: of the machine.
RATE = 32.0
TINY_REQUESTS = 60
#: per-request latency limit for goodput
LIMIT_S = 0.050
CONNECTIONS = 2
KEY_ZONE = 10_000_000
POINT = {
    "order_lines": (
        "SELECT l.L_LINENUMBER, l.L_PARTKEY, l.L_QUANTITY, l.L_EXTENDEDPRICE "
        "FROM LINEITEM l WHERE l.L_ORDERKEY = :k"
    ),
    "customer_orders": (
        "SELECT o.O_ORDERKEY, o.O_TOTALPRICE, o.O_ORDERDATE FROM ORDERS o "
        "WHERE o.O_CUSTKEY = :k"
    ),
}
TEXT = (
    "SELECT o.O_ORDERKEY, o.O_ORDERDATE, c.C_NAME FROM ORDERS o, CUSTOMER c "
    "WHERE o.O_CUSTKEY = c.C_CUSTKEY AND o.O_ORDERKEY = :k"
)
#: request kinds per block of 50; each block is shuffled by the seed, so
#: the mix is exact on every seed and only the order and keys vary
MIX = {
    "order_lines": 10,
    "customer_orders": 25,
    "text": 11,
    "load": 2,
    "delete": 1,
    "update": 1,
}
WRITE_KINDS = ("load", "delete", "update")
#: a delete or update targets a row loaded at least this many requests earlier
DEPENDENCY_GAP = 20


def expected_answers(catalog: Any) -> Dict[str, Dict[int, List[Tuple[Any, ...]]]]:
    """Lookup answers computed in plain Python from the generated rows."""
    lines: Dict[int, List[Tuple[Any, ...]]] = {}
    for row in catalog.relation("LINEITEM").rows:
        lines.setdefault(row[0], []).append((row[3], row[1], row[4], row[5]))
    orders: Dict[int, List[Tuple[Any, ...]]] = {}
    names = {row[0]: row[1] for row in catalog.relation("CUSTOMER").rows}
    text: Dict[int, List[Tuple[Any, ...]]] = {}
    for row in catalog.relation("ORDERS").rows:
        orders.setdefault(row[1], []).append((row[0], row[3], row[4]))
        text[row[0]] = [(row[0], row[4], names[row[1]])]
    return {"order_lines": lines, "customer_orders": orders, "text": text}


def make_requests(seed: int, catalog: Any, count: int) -> List[Dict[str, Any]]:
    rng = random.Random(seed * 104729 + 3)
    order_keys = [row[0] for row in catalog.relation("ORDERS").rows]
    customer_keys = [row[0] for row in catalog.relation("CUSTOMER").rows]
    loaded: List[Tuple[int, Tuple[Any, ...]]] = []  # (load request index, row)
    next_key = KEY_ZONE
    requests: List[Dict[str, Any]] = []
    kinds: List[str] = []
    for index in range(count):
        if not kinds:
            kinds = [kind for kind, n in MIX.items() for _ in range(n)]
            rng.shuffle(kinds)
        kind = kinds.pop()
        eligible = [i for i, (source, _row) in enumerate(loaded) if source <= index - DEPENDENCY_GAP]
        if kind in ("delete", "update") and not eligible:
            kind = "load"
        request: Dict[str, Any] = {"kind": kind}
        if kind == "order_lines" or kind == "text":
            request["key"] = rng.choice(order_keys)
        elif kind == "customer_orders":
            request["key"] = rng.choice(customer_keys)
        elif kind == "load":
            rows = []
            for _ in range(2):
                rows.append(
                    (
                        next_key,
                        KEY_ZONE + rng.randint(0, 99),
                        rng.choice("OFP"),
                        round(rng.uniform(100.0, 50_000.0), 2),
                        dt.date(1995, 1, 1) + dt.timedelta(days=rng.randint(0, 1200)),
                        "3-MEDIUM",
                        0,
                    )
                )
                next_key += 1
            loaded.extend((index, row) for row in rows)
            request["rows"] = rows
        else:
            source, row = loaded.pop(rng.choice(eligible))
            request["after"] = source
            request["rows"] = [row]
            if kind == "update":
                replacement = row[:3] + (round(rng.uniform(100.0, 50_000.0), 2),) + row[4:]
                request["updates"] = [replacement]
                loaded.append((index, replacement))
        requests.append(request)
    return requests


class ServerProcess:
    """The server child process and its line-based control channel."""

    def __init__(self, scale: float, trace: bool, trace_out: Optional[str]) -> None:
        command = [
            sys.executable, os.path.join(HERE, "serve_server.py"),
            "--scale", str(scale),
            "--trace", "1" if trace else "0",
        ]
        if trace_out:
            command += ["--trace-out", trace_out]
        self.process = subprocess.Popen(
            command, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        self.ready = self._line()

    def _line(self) -> Any:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"server process ended early (exit code {self.process.poll()})")
        return json.loads(line) if line.startswith("{") else line.strip()

    def mark(self) -> None:
        self.process.stdin.write("mark\n")
        self.process.stdin.flush()
        check(self._line() == "marked", "server did not acknowledge a mark")

    def finish(self) -> Dict[str, Any]:
        self.process.stdin.close()
        report = self._line()
        self.process.wait(timeout=30)
        return report

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait(timeout=30)


async def issue(client: Any, request: Dict[str, Any], statements: Dict[str, str]) -> Dict[str, Any]:
    from repro.core.wire import encode_params, iter_encoded_rows

    kind = request["kind"]
    if kind in POINT:
        return await client.request(
            "execute_prepared", statement=statements[kind], params=encode_params({"k": request["key"]})
        )
    if kind == "text":
        return await client.request("execute", sql=TEXT, params=encode_params({"k": request["key"]}))
    fields = {"relation": "ORDERS", "rows": iter_encoded_rows([list(r) for r in request["rows"]])}
    if kind == "update":
        fields["updates"] = iter_encoded_rows([list(r) for r in request["updates"]])
    return await client.request(f"{kind}_rows", **fields)


async def prepare(clients: List[Any]) -> List[Dict[str, str]]:
    statements = []
    for client in clients:
        ids = {}
        for name, sql in POINT.items():
            frame = await client.request("prepare", sql=sql)
            check(bool(frame.get("ok")), f"prepare {name} failed: {frame}")
            ids[name] = frame["result"]["statement"]
        statements.append(ids)
    return statements


async def warm_up(clients: List[Any], statements: List[Dict[str, str]], catalog: Any) -> None:
    """Compile each read shape on each connection before the window."""
    order_key = catalog.relation("ORDERS").rows[0][0]
    for client, ids in zip(clients, statements):
        for kind in ("order_lines", "customer_orders", "text"):
            frame = await issue(client, {"kind": kind, "key": order_key if kind != "customer_orders" else 1}, ids)
            check(bool(frame.get("ok")), f"warm-up {kind} failed: {frame}")


async def open_loop(
    clients: List[Any],
    statements: List[Dict[str, str]],
    requests: List[Dict[str, Any]],
    rate: float,
    poll_queue: bool,
) -> Dict[str, Any]:
    loop = asyncio.get_running_loop()
    # loads and updates write rows a later delete or update may target
    done = {i: asyncio.Event() for i, r in enumerate(requests) if r["kind"] in ("load", "update")}
    records: List[Optional[Dict[str, Any]]] = [None] * len(requests)
    queue_depths: List[int] = []

    async def one(index: int, request: Dict[str, Any], due: float) -> None:
        began = loop.time()  # how late the generator ran shows here
        if "after" in request:
            await done[request["after"]].wait()
        client = index % len(clients)
        sent = loop.time()
        frame = await issue(clients[client], request, statements[client])
        records[index] = {"due": due, "began": began, "sent": sent, "end": loop.time(), "frame": frame}
        if index in done:
            done[index].set()

    async def poller() -> None:
        while True:
            stats = await clients[0].request("stats")
            queue_depths.append(stats["result"]["server"]["queue_depth"])
            await asyncio.sleep(0.1)

    polling = asyncio.create_task(poller()) if poll_queue else None
    tasks = []
    start = loop.time() + 0.05
    for index, request in enumerate(requests):
        due = start + index / rate
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(one(index, request, due)))
    await asyncio.gather(*tasks)
    end = loop.time()
    if polling is not None:
        polling.cancel()
        try:
            await polling
        except asyncio.CancelledError:
            pass
    return {"records": records, "window_s": end - start, "queue_depths": queue_depths}


def check_frames(
    requests: List[Dict[str, Any]],
    records: List[Dict[str, Any]],
    expected: Dict[str, Dict[int, List[Tuple[Any, ...]]]],
    corrupt: bool,
) -> int:
    """Validate every frame and answer; returns the number of failed requests."""
    from repro.core.wire import decode_result_payload
    from repro.serve import validate_response_frame

    failed = 0
    tampered = False
    for request, record in zip(requests, records):
        frame = record["frame"]
        defect = validate_response_frame(frame)
        check(defect is None, f"invalid response frame: {defect}")
        if not frame["ok"]:
            failed += 1
            continue
        kind = request["kind"]
        result = frame["result"]
        if kind in WRITE_KINDS:
            applied = result.get("appended", 0) if kind == "load" else result.get("deleted", 0)
            check(applied == len(request["rows"]), f"{kind} applied {applied} rows, sent {len(request['rows'])}")
            if kind == "update":
                inserted = result.get("inserted", 0)
                check(inserted == len(request["updates"]), f"update inserted {inserted} rows, sent 1")
            continue
        payload = decode_result_payload(result["result_set"])
        rows = [tuple(row[c] for c in payload["columns"]) for row in payload["rows"]]
        if corrupt and not tampered:
            rows = rows[1:] if rows else [("corrupt",)]
            tampered = True
        want = expected[kind].get(request["key"], [])
        check(rows_match(rows, want), f"{kind} key {request['key']} differs from the generated rows")
    return failed


async def run_clients(
    server: "ServerProcess", catalog: Any, requests: List[Dict[str, Any]], rate: float, traced: bool
) -> Dict[str, Any]:
    from repro.serve import connect

    clients = [await connect("127.0.0.1", server.ready["port"]) for _ in range(CONNECTIONS)]
    try:
        statements = await prepare(clients)
        await warm_up(clients, statements, catalog)
        before = (await clients[0].request("stats"))["result"]
        server.mark()  # the server-side span window starts here ...
        run = await open_loop(clients, statements, requests, rate, poll_queue=traced)
        server.mark()  # ... and ends here
        after = (await clients[0].request("stats"))["result"]
        invalid = [frame for client in clients for frame in client.invalid_frames]
    finally:
        for client in clients:
            await client.close()
    run.update({"stats_before": before, "stats_after": after, "invalid": invalid})
    return run


def measure(seed: int, seconds: float, tiny: bool, corrupt: bool, tracer: Optional[Tracer]) -> Dict[str, Any]:
    from repro.workloads import generate_tpch

    scale = TINY_SCALE if tiny else SCALE
    count = TINY_REQUESTS if tiny else int(RATE * seconds)
    trace_out = os.path.join(WORK_DIR, f"trace-serve-point-{seed}-server.json") if tracer else None
    server = ServerProcess(scale, tracer is not None, trace_out)
    try:
        catalog = generate_tpch(scale=scale, seed=DATA_SEED)
        requests = make_requests(seed, catalog, count)
        expected = expected_answers(catalog)
        run = asyncio.run(run_clients(server, catalog, requests, RATE, tracer is not None))
        report = server.finish()
    finally:
        server.kill()

    records = run["records"]
    check(not run["invalid"], f"client saw invalid frames: {run['invalid'][:3]}")
    failed = check_frames(requests, records, expected, corrupt)
    reads = [r for q, r in zip(requests, records) if q["kind"] not in WRITE_KINDS]
    writes = [r for q, r in zip(requests, records) if q["kind"] in WRITE_KINDS]
    read_latency = [r["end"] - r["due"] for r in reads if r["frame"]["ok"]]
    write_latency = [r["end"] - r["due"] for r in writes if r["frame"]["ok"]]
    good = sum(1 for r in records if r["frame"]["ok"] and r["end"] - r["due"] <= LIMIT_S)
    p50, tail, pct = latency_summary(read_latency)
    outcome: Dict[str, Any] = {
        "end_to_end": {
            "setup_s": server.ready["setup_s"],
            "peak_rss_mb": report["peak_rss_mb"],
            "query_p50_ms": p50,
            "query_tail_ms": tail,
            "ops_per_s": good / run["window_s"],
        },
        "attempted": len(requests),
        "failed": failed,
        "info": {
            "rate": RATE,
            "requests": len(requests),
            "reads": len(reads),
            "writes": len(writes),
            "tail_percentile": pct,
            "within_limit": good,
            "window_s": run["window_s"],
            "setup_seconds": server.ready["setup_seconds"],
        },
    }
    if tracer is None:
        return outcome
    outcome["layer"] = serve_layers(report, run, requests, records, len(reads), len(writes), write_latency, failed)
    outcome["layer"]["workload.goodput_qps"] = outcome["end_to_end"]["ops_per_s"]
    return outcome


def serve_layers(
    report: Dict[str, Any],
    run: Dict[str, Any],
    requests: List[Dict[str, Any]],
    records: List[Dict[str, Any]],
    reads: int,
    writes: int,
    write_latency: List[float],
    failed: int,
) -> Dict[str, float]:
    from repro.core.wire import decode_result_payload

    window = report["window"]
    layer = span_metrics(window, report["setup"], reads, writes)
    before, after = run["stats_before"], run["stats_after"]

    def grew(section: str, field: str) -> float:
        return float(after[section][field] - before[section][field])

    plan_before = before["tenants"]["default"]["plan_cache"]
    plan_after = after["tenants"]["default"]["plan_cache"]
    hits = plan_after["hits"] - plan_before["hits"]
    misses = plan_after["misses"] - plan_before["misses"]
    cache_hits = grew("result_cache", "hits")
    cache_misses = grew("result_cache", "misses")

    executed = []  # reads the server ran (not answered from the result cache)
    lookups, supersteps, messages = [], 0, 0
    for request, record in zip(requests, records):
        if request["kind"] in WRITE_KINDS or not record["frame"]["ok"]:
            continue
        result = record["frame"]["result"]
        metrics = decode_result_payload(result["result_set"])["metrics"]
        supersteps += metrics.get("supersteps", 0)
        messages += metrics.get("messages", 0)
        if not result.get("cached"):
            executed.append(record["end"] - record["sent"])
            if metrics.get("plan_cache_hits") and not metrics.get("plan_cache_misses"):
                lookups.append(metrics.get("compile_seconds", 0.0) * 1000.0)
    read_roots = sum(window["roots"].get(name, 0.0) for name in READ_ROOTS)
    root_calls = sum(window["root_calls"].get(name, 0) for name in READ_ROOTS)
    lags = [r["began"] - r["due"] for r in records]
    write_p50, write_tail, _pct = latency_summary(write_latency) if write_latency else (0.0, 0.0, 0.0)
    all_latency = sum(r["end"] - r["due"] for r in records)
    layer.update(
        {
            "planner.cache_hit_ratio": safe_ratio(hits, hits + misses),
            "planner.compiles_timed": float(plan_after["stores"] - plan_before["stores"]),
            "planner.lookup_ms": percentile(lookups, 50.0) if lookups else 0.0,
            "bsp.supersteps": safe_ratio(supersteps, reads),
            "bsp.messages": safe_ratio(messages, reads),
            "serve.outside_exec_ms": (
                safe_ratio(sum(executed), len(executed)) - safe_ratio(read_roots, root_calls)
            ) * 1000.0,
            "serve.result_cache_hit_ratio": safe_ratio(cache_hits, cache_hits + cache_misses),
            "serve.queue_depth_max": float(max(run["queue_depths"], default=0)),
            "serve.rejected": grew("server", "rejected_queue_full") + grew("server", "rejected_overloaded"),
            "serve.timeouts": grew("server", "timeouts"),
            "serve.generator_lag_p99_ms": percentile(lags, 99.0) * 1000.0,
            "tag.vertices": float(report["graph"][0]),
            "tag.edges": float(report["graph"][1]),
            "relational.dead_row_frac": report["dead_row_frac"],
            "workload.write_p50_ms": write_p50,
            "workload.write_tail_ms": write_tail,
            "workload.write_rows_per_s": safe_ratio(
                sum(len(q["rows"]) + len(q.get("updates", ())) for q in requests if q["kind"] in WRITE_KINDS),
                sum(write_latency),
            ),
            "workload.write_share": safe_ratio(
                sum(r["end"] - r["due"] for q, r in zip(requests, records) if q["kind"] in WRITE_KINDS),
                all_latency,
            ),
            "workload.failed_frac": safe_ratio(failed, len(requests)),
        }
    )
    return layer


async def _saturate(port: int, catalog: Any, requests: List[Dict[str, Any]], outstanding: int) -> float:
    from repro.serve import connect

    clients = [await connect("127.0.0.1", port) for _ in range(CONNECTIONS)]
    try:
        statements = await prepare(clients)
        await warm_up(clients, statements, catalog)
        reads = [r for r in requests if r["kind"] not in ("delete", "update")]
        position = 0
        loop = asyncio.get_running_loop()
        started = loop.time()

        async def worker(slot: int) -> None:
            nonlocal position
            while position < len(reads):
                request = reads[position]
                position += 1
                await issue(clients[slot % CONNECTIONS], request, statements[slot % CONNECTIONS])

        await asyncio.gather(*(worker(slot) for slot in range(outstanding)))
        return len(reads) / (loop.time() - started)
    finally:
        for client in clients:
            await client.close()


def calibrate(seed: int = 1, count: int = 1200, outstanding: int = 16) -> float:
    """Saturation throughput (requests/s) of the mix, closed loop.

    Deletes and updates are left out: without pacing they could overtake
    the loads they depend on.
    """
    from repro.workloads import generate_tpch

    server = ServerProcess(SCALE, False, None)
    try:
        catalog = generate_tpch(scale=SCALE, seed=DATA_SEED)
        requests = make_requests(seed, catalog, count)
        throughput = asyncio.run(_saturate(server.ready["port"], catalog, requests, outstanding))
        server.finish()
    finally:
        server.kill()
    return throughput


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    if "--calibrate" in sys.argv:
        started = time.perf_counter()
        print(json.dumps({"saturation_qps": calibrate(), "wall_s": time.perf_counter() - started}))
