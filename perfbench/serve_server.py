"""The serve-point server process: one memory-only TPC-H tenant behind a QueryServer.

Started by :mod:`serve_point` as ``python3 perfbench/serve_server.py``.
It builds the tenant ``SETUP_REPS`` times back to back (catalog in hand to
listening; the spans of the last build, which serves, are the set-up's)
and prints one JSON line with the port and the set-up times.  Then it reads
control lines on standard input: ``mark`` records a position in the span
log and answers ``marked``; end of input stops the server, and the
process prints one JSON report line (peak RSS and, when traced, the span
aggregates between the first two marks) and exits.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import sys
import threading
import time
from statistics import median
from typing import Any, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from common import DATA_SEED, SETUP_REPS, peak_rss_mb  # noqa: E402
from layers import dead_row_fraction  # noqa: E402
from tracing import Tracer, install_layer_spans  # noqa: E402


def say(payload: Any) -> None:
    sys.stdout.write((payload if isinstance(payload, str) else json.dumps(payload)) + "\n")
    sys.stdout.flush()


async def serve(args: argparse.Namespace, tracer: Optional[Tracer]) -> None:
    from repro.api import Database
    from repro.serve import QueryServer, ServerConfig
    from repro.workloads import generate_tpch

    times: List[float] = []
    server = database = catalog = None
    for _ in range(SETUP_REPS):
        if server is not None:  # drop the last rep before building the next
            await server.stop()
            server = database = catalog = None
            gc.collect()
        setup_mark = tracer.mark() if tracer else None  # spans of the rep that serves
        catalog = generate_tpch(scale=args.scale, seed=DATA_SEED)
        gc.collect()
        started = time.perf_counter()
        database = Database.from_catalog(catalog)
        database.tag_graph()
        database.statistics
        database.engine()
        server = QueryServer(database, ServerConfig(port=0))
        await server.start()
        times.append(time.perf_counter() - started)
    setup_end = tracer.mark() if tracer else None
    say({"port": server.port, "setup_s": median(times), "setup_seconds": times})

    loop = asyncio.get_running_loop()
    stopped = asyncio.Event()
    marks: List[Any] = []

    def control() -> None:
        for line in sys.stdin:
            if line.strip() == "mark":
                marks.append(tracer.mark() if tracer else None)
                say("marked")
        loop.call_soon_threadsafe(stopped.set)

    threading.Thread(target=control, name="perfbench-control", daemon=True).start()
    await stopped.wait()
    graph = database.tag_graph()
    report: dict = {
        "graph": [graph.vertex_count, graph.edge_count],
        "dead_row_frac": dead_row_fraction(database.catalog),
    }
    await server.stop()
    report["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
        if len(marks) >= 2:
            report["window"] = tracer.summary(marks[0], marks[1]).as_dict()
        report["setup"] = tracer.summary(setup_mark, setup_end).as_dict()
        if args.trace_out:
            tracer.dump(args.trace_out)
    say(report)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()
    tracer = None
    if args.trace:
        tracer = Tracer()
        install_layer_spans(tracer)
    asyncio.run(serve(args, tracer))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
