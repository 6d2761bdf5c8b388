"""Write ``perfbench/record.json``: the settings and measured shares of the benchmark.

Runs the traced run of every workload once and records, next to the
fixed settings (offered rate, latency limit, flush policy, sizes, tail
percentiles), the shares that decide which optimisations a workload can
show: the BSP share of read time (tpch-warm), the parse+bind share and
result-cache hit share (serve-point), and the write share and snapshot
count (ingest-churn).  Also records machine info and the git commit.

    python3 perfbench/record.py --seed 5
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Dict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import ROOT, load_spec, machine_info  # noqa: E402


def traced(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    info = json.loads(completed.stderr.strip().splitlines()[-1])
    metrics = json.loads(completed.stdout.strip().splitlines()[-1])["metrics"]
    return {"info": info, "layer": {name: entry["value"] for name, entry in metrics.items()}}


def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    import ingest_churn
    import serve_point
    import tpch_warm

    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=int, default=load_spec()["run_seconds"])
    args = parser.parse_args()
    runs = {name: traced(name, args.seed, args.seconds) for name in ("tpch-warm", "serve-point", "ingest-churn")}
    tpch, serve, churn = runs["tpch-warm"], runs["serve-point"], runs["ingest-churn"]
    record = {
        "git_sha": git_sha(),
        "machine": machine_info(),
        "seed": args.seed,
        "seconds": args.seconds,
        "settings": {
            "tpch-warm": {
                "scale": tpch_warm.SCALE,
                "passes": tpch_warm.pass_count(args.seconds, False),
                "samples": tpch["info"]["samples"],
                "tail_percentile": tpch["info"]["tail_percentile"],
                "engine": "tag (the Database default)",
            },
            "serve-point": {
                "scale": serve_point.SCALE,
                "offered_rate_per_s": serve_point.RATE,
                "saturation_per_s": serve_point.SATURATION,
                "latency_limit_ms": serve_point.LIMIT_S * 1000.0,
                "requests": serve["info"]["requests"],
                "tail_percentile": serve["info"]["tail_percentile"],
                "connections": serve_point.CONNECTIONS,
                "result_cache_entries": 256,
            },
            "ingest-churn": {
                "scale": ingest_churn.SCALE,
                "ops": churn["info"]["ops"],
                "tail_percentile": churn["info"]["tail_percentile"],
                "flush_policy": "fsync on every WAL append (Database default wal_fsync=True)",
                "snapshot_every": 256,
            },
        },
        "shares": {
            "tpch-warm": {
                "bsp_share_of_read_time": tpch["layer"]["bsp.run_share"],
                "parse_bind_ms_per_query": tpch["layer"]["sql.parse_bind_ms"],
                "pass_s": tpch["layer"]["workload.pass_s"],
                "rdbms_pass_s": tpch["layer"]["engine.rdbms_pass_s"],
                "vectorized_pass_s": tpch["layer"]["exec.vectorized_pass_s"],
            },
            "serve-point": {
                "parse_bind_share_of_server_read_time": serve["layer"]["sql.parse_bind_share"],
                "parse_bind_ms_per_read": serve["layer"]["sql.parse_bind_ms"],
                "wire_encode_ms_per_read": serve["layer"]["serve.wire_encode_ms"],
                "bsp_run_ms_per_read": serve["layer"]["bsp.run_ms"],
                "result_cache_hit_share": serve["layer"]["serve.result_cache_hit_ratio"],
                "bsp_share_of_server_read_time": serve["layer"]["bsp.run_share"],
                "outside_exec_ms": serve["layer"]["serve.outside_exec_ms"],
            },
            "ingest-churn": {
                "write_share_of_time": churn["layer"]["workload.write_share"],
                "snapshots": churn["layer"]["durability.snapshots"],
                "recovery_s": churn["layer"]["workload.recovery_s"],
            },
        },
        "tracing_overhead_note": (
            "one traced run minus one untraced run of the same seed: at the noise level "
            "of a single run, see the steadiness table in README.md"
        ),
        "tracing_overhead": {
            name: {k: v for k, v in run["layer"].items() if k.startswith("overhead.")}
            for name, run in runs.items()
        },
    }
    with open(os.path.join(HERE, "record.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(json.dumps(record["shares"], indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
