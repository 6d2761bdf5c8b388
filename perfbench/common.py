"""Helpers shared by the workloads: statistics, answer checks, output."""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple

#: root of the checkout the benchmark runs in (the parent of perfbench/)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: where runs keep their scratch data and trace files (git-ignored)
WORK_DIR = os.path.join(ROOT, ".perfbench-work")

#: set-ups per run; ``setup_s`` is their median.  The in-process workloads
#: build the set-up that serves the run first and the others after the
#: timed window: a set-up takes 0.5-2 s, and the host's speed changes over
#: seconds, so set-ups tens of seconds apart sample it more evenly than
#: back-to-back ones (on a 2-core x86-64 VM, ingest-churn's median of three
#: back-to-back set-ups moved 18% between two ten-seed sets).
SETUP_REPS = 3

#: seed of the generated TPC-H rows, the generator's own default.  The rows
#: are fixed for a scale, as TPC-H's dbgen makes them; ``--seed`` decides
#: the operation stream instead.  At mini scale the rows of different seeds
#: differ in query cost by a quarter (a tpch-warm pass took 3.7 s on one
#: seed's rows and 4.7 s on another's), which would hide a change that size.
DATA_SEED = 7

#: percentiles a tail metric may report, highest first
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class AnswerMismatch(AssertionError):
    """A checked answer differs from its reference."""


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def later_setups(setup_once: Callable[[], Tuple[Any, float]]) -> List[float]:
    """Time the ``SETUP_REPS - 1`` set-ups that follow the timed window.

    ``setup_once`` builds one database and returns it with its set-up
    seconds; each is closed and dropped before the next is built, so
    memory holds one at a time.
    """
    times: List[float] = []
    for _ in range(SETUP_REPS - 1):
        database, seconds = setup_once()
        database.close()
        del database
        gc.collect()
        times.append(seconds)
    return times


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(samples: int) -> float:
    """The highest percentile with at least ten samples beyond it."""
    for pct in TAIL_PERCENTILES:
        if samples * (100.0 - pct) / 100.0 >= 10:
            return pct
    return 50.0


def latency_summary(seconds: Sequence[float]) -> Tuple[float, float, float]:
    """(p50 ms, tail ms, tail percentile) of a latency sample."""
    pct = tail_percentile(len(seconds))
    return (
        percentile(seconds, 50.0) * 1000.0,
        percentile(seconds, pct) * 1000.0,
        pct,
    )


def peak_rss_mb() -> float:
    """High-water resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def safe_ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# answer checks: an order-insensitive comparison with float tolerance
# ----------------------------------------------------------------------
def _sort_key(row: Sequence[Any]) -> Tuple[Any, ...]:
    key = []
    for value in row:
        if isinstance(value, float):
            key.append((1, float(f"{value:.6g}")))
        elif value is None:
            key.append((0, 0))
        else:
            key.append((2, str(value)))
    return tuple(key)


def _values_equal(left: Any, right: Any) -> bool:
    if isinstance(left, float) or isinstance(right, float):
        if left is None or right is None:
            return False
        return math.isclose(float(left), float(right), rel_tol=1e-9, abs_tol=1e-6)
    return left == right


def rows_match(actual: Sequence[Sequence[Any]], expected: Sequence[Sequence[Any]]) -> bool:
    """Bag equality of two row lists, floats compared with a tolerance."""
    if len(actual) != len(expected):
        return False
    for left, right in zip(sorted(actual, key=_sort_key), sorted(expected, key=_sort_key)):
        if len(left) != len(right):
            return False
        if not all(_values_equal(a, b) for a, b in zip(left, right)):
            return False
    return True


def result_tuples(result: Any) -> List[Tuple[Any, ...]]:
    """A QueryResult's rows as tuples in its column order."""
    columns = list(result.columns)
    return [tuple(row.get(column) for column in columns) for row in result.rows]


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AnswerMismatch(message)


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def emit(
    spec: Dict[str, Any],
    trace: bool,
    metrics: Dict[str, float],
    attempted: int,
    failed: int,
    correct: bool,
    out=None,
) -> None:
    """Print every metric by name and unit, then the one-line JSON result."""
    out = out or sys.stdout
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    names = [entry["name"] for entry in declared]
    missing = [name for name in names if name not in metrics]
    extra = sorted(set(metrics) - set(names))
    if missing or extra:
        raise RuntimeError(f"metric set differs from BENCHMARK.json: missing {missing}, extra {extra}")
    payload = {}
    for entry in declared:
        value = float(metrics[entry["name"]])
        if not math.isfinite(value):
            raise RuntimeError(f"metric {entry['name']} is not finite: {value}")
        payload[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']:>36} {value:14.6f} {entry['unit']}", file=out)
    print(
        json.dumps(
            {"correct": correct, "attempted": int(attempted), "failed": int(failed), "metrics": payload}
        ),
        file=out,
    )
    out.flush()


def machine_info() -> Dict[str, Any]:
    import platform

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
