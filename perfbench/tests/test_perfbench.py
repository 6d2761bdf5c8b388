"""Self-tests of the benchmark (tiny inputs).

Run from the root of the checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

WORKLOADS = ("tpch-warm", "serve-point", "ingest-churn")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_bench(workload, *extra, cwd=ROOT, seed=3):
    command = [
        sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "2", *extra,
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(completed):
    lines = completed.stdout.strip().splitlines()
    assert lines, completed.stderr
    return json.loads(lines[-1])


def test_spec_follows_the_contract():
    data = spec()
    assert set(data) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert data["command"] == ["python3", "perfbench/run.py"]
    assert data["paths"] == ["perfbench"]
    assert isinstance(data["run_seconds"], int) and 1 <= data["run_seconds"] <= 60
    assert [w["name"] for w in data["workloads"]] == list(WORKLOADS)
    for workload in data["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    names = [w["name"] for w in data["workloads"]]
    for entry in data["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
        names.append(entry["name"])
    for entry in data["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
        names.append(entry["name"])
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(e["unit"]) for e in data["end_to_end"] + data["per_layer"])
    assert all(e["better"] in ("lower", "higher") for e in data["end_to_end"] + data["per_layer"])
    setup = next(e for e in data["end_to_end"] if e["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(e["bound"] for e in data["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ("0", "1"))
def test_tiny_run_emits_the_declared_metrics(workload, trace):
    completed = run_bench(workload, "--tiny", "--trace", trace)
    assert completed.returncode == 0, completed.stderr[-3000:]
    result = last_json(completed)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = spec()["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [entry["name"] for entry in declared]
    for entry in declared:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
        assert isinstance(result["metrics"][entry["name"]]["value"], float)
    if trace == "0":
        assert all(value["value"] > 0 for value in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_answer_fails_the_check(workload):
    completed = run_bench(workload, "--tiny", "--corrupt")
    assert completed.returncode == 1
    assert last_json(completed)["correct"] is False
    assert "answer check failed" in completed.stderr


def test_missing_entry_point_fails_the_traced_run(monkeypatch, capsys):
    import repro.sql
    import run
    import tracing

    install = tracing.install_layer_spans

    def install_with_a_renamed_function(tracer):
        install(tracer)
        tracer.wrap(repro.sql, "parse_and_bind_renamed", "sql.parse_and_bind")

    monkeypatch.setattr(tracing, "install_layer_spans", install_with_a_renamed_function)
    original = repro.sql.parse_and_bind
    code = run.main(["--workload", "tpch-warm", "--seed", "3", "--seconds", "2", "--trace", "1", "--tiny"])
    assert code != 0
    assert '"correct"' not in capsys.readouterr().out
    assert repro.sql.parse_and_bind is original  # every wrapper was taken off again


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_bench("tpch-warm", "--tiny", cwd=str(tmp_path))
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_seed_decides_the_inputs():
    import ingest_churn
    import serve_point
    import tpch_warm
    from common import DATA_SEED
    from repro.workloads import generate_tpch, tpch_queries

    catalog = generate_tpch(scale=0.05, seed=DATA_SEED)
    queries = tpch_queries()
    tpch = lambda seed: [[q.name for q in p] for p in tpch_warm.pass_orders(seed, queries, 3)]  # noqa: E731
    assert tpch(1) == tpch(1)
    assert tpch(1) != tpch(2)
    churn = lambda seed: ingest_churn.make_ops(seed, catalog, 40)  # noqa: E731
    assert churn(1) == churn(1)
    assert churn(1) != churn(2)
    serve = lambda seed: serve_point.make_requests(seed, catalog, 40)  # noqa: E731
    assert serve(1) == serve(1)
    assert serve(1) != serve(2)
