# Developer entry points (plain pytest works too).

PYTHON ?= python3

.PHONY: install check layers test test-fast perfbench-smoke trace-smoke obs-smoke fault-smoke verify-smoke service-smoke measures-smoke strategy-smoke multicore-smoke hotpath-bench service-bench measure-bench strategy-bench bench-gate bench-history obs-bench bench bench-full examples clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

# The CI gate: byte-compile everything, the tier-1 suite, then a trace
# round-trip on a bundled example dataset, the fault-tolerance smoke and
# the other smokes below.
check:
	$(PYTHON) -m compileall -q src
	$(MAKE) layers
	PYTHONPATH=src $(PYTHON) -m pytest -x -q
	$(MAKE) trace-smoke
	$(MAKE) obs-smoke
	$(MAKE) fault-smoke
	$(MAKE) verify-smoke
	$(MAKE) service-smoke
	$(MAKE) measures-smoke
	$(MAKE) strategy-smoke
	$(MAKE) perfbench-smoke

# Discovery-benchmark smoke: the benchmark's own tests (outside the
# tier-1 testpaths), then every workload traced at smoke size.  The
# traced run wraps program entry points by name, so a renamed one fails
# here instead of as failed calls in a full benchmark run.
perfbench-smoke:
	$(PYTHON) -m pytest perfbench/tests -q
	$(PYTHON) perfbench/run.py --workload all --smoke --trace 1 > /dev/null

# Import-layering gate: repro.search must not reach up into the
# plugin layers (repro.parallel / repro.obs / repro.core.checkpoint).
layers:
	$(PYTHON) tools/check_layers.py

# End-to-end observability smoke: record a trace (serial and parallel),
# assert it is non-empty, and render the report from it.
trace-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.cli discover examples/data/orders.csv --trace /tmp/repro-trace.jsonl > /dev/null
	test -s /tmp/repro-trace.jsonl
	PYTHONPATH=src $(PYTHON) -m repro.cli trace-report /tmp/repro-trace.jsonl > /dev/null
	PYTHONPATH=src $(PYTHON) -m repro.cli discover examples/data/orders.csv --workers 2 --trace /tmp/repro-trace-par.jsonl > /dev/null
	PYTHONPATH=src $(PYTHON) -m repro.cli trace-report /tmp/repro-trace-par.jsonl | grep "worker utilization" > /dev/null
	rm -f /tmp/repro-trace.jsonl /tmp/repro-trace-par.jsonl

# Telemetry smoke (extends trace-smoke): one instrumented discover run
# producing the event stream, profiler sidecar, and metrics snapshots;
# then every exported artifact is consumed — events schema-checked,
# profile rendered via trace-report --profile, snapshots re-exported as
# Prometheus text — and the exposition-format golden + profiler unit
# tests and the bench-trajectory tool run on top.
obs-smoke:
	rm -f /tmp/repro-obs.events.jsonl /tmp/repro-obs.trace.jsonl \
	  /tmp/repro-obs.trace.jsonl.profile.json /tmp/repro-obs.prom \
	  /tmp/repro-obs.snapshots.jsonl /tmp/repro-obs.export.prom
	PYTHONPATH=src $(PYTHON) -m repro.cli discover examples/data/orders.csv \
	  --progress --events /tmp/repro-obs.events.jsonl \
	  --trace /tmp/repro-obs.trace.jsonl --profile \
	  --metrics-file /tmp/repro-obs.prom \
	  --metrics-snapshots /tmp/repro-obs.snapshots.jsonl > /dev/null
	PYTHONPATH=src $(PYTHON) -c "\
	from repro.obs.events import load_events, validate_event; \
	events = load_events('/tmp/repro-obs.events.jsonl'); \
	assert events and events[0].kind == 'run_start' and events[-1].kind == 'run_end', 'event stream not bracketed'; \
	problems = [p for e in events for p in validate_event(e)]; \
	assert not problems, problems; \
	print(f'obs-smoke: {len(events)} events schema-valid')"
	PYTHONPATH=src $(PYTHON) -m repro.cli trace-report /tmp/repro-obs.trace.jsonl --profile | grep "profile:" > /dev/null
	grep -q "^repro_" /tmp/repro-obs.prom
	PYTHONPATH=src $(PYTHON) -m repro.cli export-metrics /tmp/repro-obs.snapshots.jsonl --output /tmp/repro-obs.export.prom
	grep -q "^repro_" /tmp/repro-obs.export.prom
	PYTHONPATH=src $(PYTHON) -m pytest tests/obs/test_export.py tests/obs/test_profile.py tests/obs/test_events.py tests/test_bench_history.py -q
	$(PYTHON) tools/bench_history.py > /dev/null
	rm -f /tmp/repro-obs.events.jsonl /tmp/repro-obs.trace.jsonl \
	  /tmp/repro-obs.trace.jsonl.profile.json /tmp/repro-obs.prom \
	  /tmp/repro-obs.snapshots.jsonl /tmp/repro-obs.export.prom

# Fault-tolerance smoke: the resilience suite (checkpoint/resume,
# worker-kill recovery, crash-path store errors) plus a CLI
# checkpoint/resume round trip.
fault-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest tests/resilience tests/partition/test_store_faults.py -q
	rm -rf /tmp/repro-ckpt
	PYTHONPATH=src $(PYTHON) -m repro.cli discover examples/data/orders.csv --checkpoint-dir /tmp/repro-ckpt | sed 's/, [0-9.]*s>/>/' > /tmp/repro-ckpt-first.out
	test -s /tmp/repro-ckpt/checkpoint.json
	PYTHONPATH=src $(PYTHON) -m repro.cli discover examples/data/orders.csv --checkpoint-dir /tmp/repro-ckpt --resume | sed 's/, [0-9.]*s>/>/' > /tmp/repro-ckpt-second.out
	diff /tmp/repro-ckpt-first.out /tmp/repro-ckpt-second.out
	rm -rf /tmp/repro-ckpt /tmp/repro-ckpt-first.out /tmp/repro-ckpt-second.out

# Differential/metamorphic verification smoke: the harness's smoke-marked
# end-to-end tests, then a real fuzz campaign over the serial matrix.
# Mismatches write minimized repro cases to .verify-failures/.
verify-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest tests/verify -m smoke -q
	PYTHONPATH=src $(PYTHON) -m repro.cli verify --seeds 25 --matrix smoke

# Discovery-service smoke: the serve suite and the concurrency
# regression tests (thread-local obs activation, single-flight dedup,
# invalidation on re-registration), then the real thing — a
# ``repro serve`` subprocess driven over HTTP by tools/service_smoke.py
# (register, discover, cache hit, event stream, SIGINT shutdown).
service-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest tests/serve tests/obs/test_thread_isolation.py -q
	$(PYTHON) tools/service_smoke.py

# Measure-suite smoke: golden fixtures, property invariants, the
# cross-measure metamorphic layer, and the planted-recovery bench in
# check mode (every measure must find the planted FDs back under
# corruption).
measures-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest tests/search/test_measures.py \
	  tests/search/test_measures_golden.py \
	  tests/search/test_measures_properties.py \
	  tests/verify/test_compare_measures.py tests/test_fingerprint.py -q
	PYTHONPATH=src $(PYTHON) benchmarks/run_measure_bench.py --smoke --check \
	  --output /tmp/repro-measures-smoke.json > /dev/null
	rm -f /tmp/repro-measures-smoke.json

# Traversal-strategy smoke: the dfd/topk strategy suites plus the
# strategy bench in check mode (the dfd walk must reproduce the
# levelwise cover and visit strictly fewer nodes on the twin-column
# workload).
strategy-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest tests/search/test_dfd.py \
	  tests/search/test_topk.py tests/search/test_strategy.py \
	  tests/verify/test_compare_strategy.py \
	  tests/resilience/test_checkpoint_formats.py -q
	PYTHONPATH=src $(PYTHON) benchmarks/run_strategy_bench.py --smoke --check \
	  --output /tmp/repro-strategy-smoke.json > /dev/null
	rm -f /tmp/repro-strategy-smoke.json

# Multi-core gate (CI runs this on a 4-core runner): the multicore
# test marker (parity + speedup > 1) plus the parallel bench with the
# speedup assertion on.  The bench runs its full-size workload — the
# smoke-scale relation is too small for parallelism to ever pay.
multicore-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest -m multicore -q
	PYTHONPATH=src $(PYTHON) benchmarks/run_parallel_bench.py --require-speedup --output /tmp/repro-parallel-smoke.json > /dev/null
	rm -f /tmp/repro-parallel-smoke.json

# Re-measure the single-core hot path and refresh the committed JSON.
hotpath-bench:
	PYTHONPATH=src $(PYTHON) benchmarks/run_hotpath_bench.py

# Re-measure service throughput/latency under multiprocess load and
# refresh the committed BENCH_service_throughput.json.
service-bench:
	PYTHONPATH=src $(PYTHON) benchmarks/run_service_bench.py --check

# Re-measure planted-FD recovery per measure under corruption and
# refresh the committed BENCH_measures.json.
measure-bench:
	PYTHONPATH=src $(PYTHON) benchmarks/run_measure_bench.py --check

# Re-measure the traversal-strategy comparison at full scale and
# refresh the committed BENCH_strategy.json.
strategy-bench:
	PYTHONPATH=src $(PYTHON) benchmarks/run_strategy_bench.py --check

# CI gate: fresh hot-path improvement ratio must stay within 10% of
# the committed benchmarks/results/BENCH_hotpath.json, the
# progress-event overhead must stay within its bars, the service
# load driver must hold its invariants (no errors, single-flight,
# warm-cache hit ratio), and every measure must keep recovering
# planted dependencies under corruption.
bench-gate:
	$(PYTHON) tools/check_bench_regression.py

# Benchmark trajectory: headline metric of every committed BENCH_*.json
# across git history, with regression flags.
bench-history:
	$(PYTHON) tools/bench_history.py

# Re-measure observability overhead (spans + progress events) and
# refresh the committed BENCH_obs*.json artifacts.
obs-bench:
	PYTHONPATH=src $(PYTHON) benchmarks/run_obs_overhead.py

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow" -x -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-full:
	REPRO_BENCH_SCALE=full $(PYTHON) -m pytest benchmarks/ --benchmark-only

examples:
	for script in examples/*.py; do echo "== $$script"; $(PYTHON) $$script || exit 1; done

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
