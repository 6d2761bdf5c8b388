"""The repo benchmark: one seeded workload, timed end to end or per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tpch-warm --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
no tracing installed.  ``--trace 1`` runs the workload twice, untraced
and then with span recorders wrapped around each layer's public entry
points, and reports the per-layer metrics plus the tracing overhead
(``overhead.<metric>`` = traced minus untraced value); the spans are
written to ``.perfbench-work/trace-<workload>-<seed>.json``.

Every metric is printed by name and unit, and the last line of standard
output is the JSON result.  A failed answer check prints the result with
``"correct": false`` and exits 1.  ``--tiny`` (small inputs) and
``--corrupt`` (tamper with one answer before it is checked) exist for
the benchmark's self-tests.  A traced run whose entry points the program
no longer has exits 3 without a result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import common  # noqa: E402
from common import AnswerMismatch, WORK_DIR, emit, load_spec, log, safe_ratio  # noqa: E402
from tracing import MissingEntryPoint  # noqa: E402

WORKLOADS = ("tpch-warm", "serve-point", "ingest-churn")


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs (self-tests)")
    parser.add_argument(
        "--corrupt", action="store_true", help="tamper with one answer before checking (self-tests)"
    )
    return parser.parse_args(argv)


def untraced_run(args: argparse.Namespace) -> Dict[str, Any]:
    """The same run with tracing off, in a fresh process (its own peak RSS)."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0",
    ]
    if args.tiny:
        command.append("--tiny")
    completed = subprocess.run(command, stdout=subprocess.PIPE, cwd=common.ROOT, timeout=170, check=False)
    lines = completed.stdout.decode("utf-8").strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"untraced run failed with exit code {completed.returncode}")
    result = json.loads(lines[-1])
    return {
        "end_to_end": {name: entry["value"] for name, entry in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
    }


def traced_run(module: Any, args: argparse.Namespace, spec: Dict[str, Any]) -> Dict[str, Any]:
    from layers import empty_metrics
    from tracing import Tracer, install_layer_spans

    tracer = Tracer()
    try:
        install_layer_spans(tracer)  # first, so a missing entry point fails fast
        untraced = untraced_run(args)
        traced = module.measure(args.seed, args.seconds, args.tiny, args.corrupt, tracer)
    finally:
        tracer.uninstall()
    layer = empty_metrics(spec)
    layer.update(traced["layer"])
    layer["bsp.us_per_message"] = safe_ratio(layer["bsp.run_ms"] * 1000.0, layer["bsp.messages"])
    for name, value in traced["end_to_end"].items():
        layer[f"overhead.{name}"] = value - untraced["end_to_end"][name]
    if tracer.spans:  # serve-point's spans are recorded in the server process
        tracer.dump(os.path.join(WORK_DIR, f"trace-{args.workload}-{args.seed}.json"))
    return {
        "metrics": layer,
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
        "info": traced["info"],
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(common.ROOT, "src", "repro")):
        log(f"no program to measure: {os.path.join(common.ROOT, 'src', 'repro')} is missing")
        return 2
    spec = load_spec()
    module = importlib.import_module(args.workload.replace("-", "_"))
    os.makedirs(WORK_DIR, exist_ok=True)
    started = time.perf_counter()
    try:
        if args.trace:
            outcome = traced_run(module, args, spec)
        else:
            measured = module.measure(args.seed, args.seconds, args.tiny, args.corrupt, None)
            outcome = {
                "metrics": measured["end_to_end"],
                "attempted": measured["attempted"],
                "failed": measured["failed"],
                "info": measured["info"],
            }
    except MissingEntryPoint as exc:
        log(f"cannot trace: entry point {exc} is missing")
        return 3
    except AnswerMismatch as exc:
        log(f"answer check failed: {exc}")
        metrics = {entry["name"]: 0.0 for entry in spec["per_layer" if args.trace else "end_to_end"]}
        emit(spec, bool(args.trace), metrics, 1, 0, False)
        return 1
    log(json.dumps({"workload": args.workload, "seed": args.seed, "wall_s": time.perf_counter() - started, **outcome["info"]}))
    emit(spec, bool(args.trace), outcome["metrics"], outcome["attempted"], outcome["failed"], True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
