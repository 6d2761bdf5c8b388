PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-stress test-differential test-chaos perfbench-test bench-smoke bench-micro bench-incremental bench-delete bench-encoding bench-recovery bench serve-bench examples lint format-check

test:
	$(PYTHON) -m pytest -x -q

test-stress:
	$(PYTHON) -m pytest -m stress -q

# deep randomized cross-engine sweep; size/seed via env:
#   DIFFERENTIAL_EXAMPLES=500 (generated queries)
#   DIFFERENTIAL_SEED_MODE=fixed|random (derandomized vs fresh entropy)
test-differential:
	$(PYTHON) -m pytest -m differential -q tests/differential

# crash matrix: a subprocess workload is killed (os._exit 137) at every
# registered failpoint via a seeded crash schedule, then a fault-free
# process must recover, observe every acknowledged batch as already
# applied, and answer golden queries identically to a clean load
test-chaos:
	$(PYTHON) -m pytest -m chaos -q tests/chaos

# self-tests of the repo benchmark (perfbench/): a tiny traced run must
# emit every declared metric, so renaming or removing an entry point the
# traced run wraps (apply_write/apply_delete/apply_update, refresh_view_*,
# WriteAheadLog.append, DurabilityManager.snapshot/recover) fails here
perfbench-test:
	$(PYTHON) -m pytest -q perfbench/tests

bench-smoke:
	$(PYTHON) -m repro.bench.smoke --scale 0.03 --out benchmarks/results/smoke.json

bench-micro:
	$(PYTHON) -m repro.bench.microbench --scale 0.03 --out benchmarks/results/microbench.json

# delta ingest vs scorched-earth rebuild at 1/100/10k-row batches plus
# seminaïve view refresh cost; exits non-zero if a <=1% delta is not
# measurably sub-linear, a data-only write recompiles a plan, or the
# patched graph/view diverge from a cold rebuild
bench-incremental:
	$(PYTHON) -m repro.bench.incremental --base-rows 20000 \
		--out benchmarks/results/BENCH_incremental.json

# tombstone delete deltas vs scorched-earth rebuild; exits non-zero if
# deleting 1% of 20k rows is not >=10x faster than the full rebuild, a
# delete recompiles a plan or triggers a full rebuild, or the patched
# graph/maintained view diverge from a cold rebuild
bench-delete:
	$(PYTHON) -m repro.bench.delete --base-rows 20000 \
		--out benchmarks/results/BENCH_delete.json

# dictionary/sentinel encoding vs. the object-dtype path; exits non-zero
# if a kernel microbenchmark falls below 2x or the q1-like hot path
# materialises an object-dtype column
bench-encoding:
	$(PYTHON) -m repro.bench.encoding --scale 0.3 \
		--out benchmarks/results/BENCH_encoding.json

# WAL write-path overhead + recovery-time curve; exits non-zero if a
# recovered database diverges from a clean load or buffered-WAL ingest
# p99 regresses more than 10% over memory-only
bench-recovery:
	$(PYTHON) -m repro.bench.recovery \
		--out benchmarks/results/BENCH_recovery.json

# closed-loop serving benchmark against a live query server; exits non-zero
# if sustained QPS is zero, any response frame fails schema validation, or
# the warm-started server recompiles a manifest-covered query shape
serve-bench:
	$(PYTHON) -m repro.serve.driver --scale 0.05 --duration 6 --qps 80 \
		--out benchmarks/results/BENCH_serving.json

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/warehouse_analytics.py
	$(PYTHON) examples/distributed_cluster.py

bench:
	$(PYTHON) -m pytest benchmarks/ -q

lint:
	ruff check .

format-check:
	ruff format --check .
