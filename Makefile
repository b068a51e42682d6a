# Developer entry points (plain pytest works too).

PYTHON ?= python3

.PHONY: install check layers test test-fast perfbench-smoke trace-smoke obs-smoke fault-smoke verify-smoke service-smoke measures-smoke strategy-smoke multicore-smoke bench bench-full examples clean

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
# plugin layers (repro.obs / repro.core.checkpoint).
layers:
	$(PYTHON) tools/check_layers.py

# End-to-end observability smoke: record a trace, assert it is
# non-empty, and render the report from it.
trace-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.cli discover examples/data/orders.csv --trace /tmp/repro-trace.jsonl > /dev/null
	test -s /tmp/repro-trace.jsonl
	PYTHONPATH=src $(PYTHON) -m repro.cli trace-report /tmp/repro-trace.jsonl > /dev/null
	rm -f /tmp/repro-trace.jsonl

# Telemetry smoke (extends trace-smoke): one instrumented discover run
# (--progress --trace --profile plus the metrics exporters) writes the
# one telemetry stream; then the trace file must parse, be bracketed by
# the discover open and close records and pair every open record with a
# close record, trace-report --profile must render from that file alone,
# snapshots are re-exported as Prometheus text, and the exposition-format
# golden, profiler, stream/ETA and disabled-path overhead (<= 0.1%)
# tests run on top.
obs-smoke:
	rm -f /tmp/repro-obs.trace.jsonl /tmp/repro-obs.prom \
	  /tmp/repro-obs.snapshots.jsonl /tmp/repro-obs.export.prom
	PYTHONPATH=src $(PYTHON) -m repro.cli discover examples/data/orders.csv \
	  --progress --trace /tmp/repro-obs.trace.jsonl --profile \
	  --metrics-file /tmp/repro-obs.prom \
	  --metrics-snapshots /tmp/repro-obs.snapshots.jsonl > /dev/null
	PYTHONPATH=src $(PYTHON) -c "\
	from repro.obs.sinks import load_records; \
	records = load_records('/tmp/repro-obs.trace.jsonl'); \
	first, last = records[0], records[-1]; \
	assert first['name'] == last['name'] == 'discover' and 'end' not in first and 'end' in last, 'trace not bracketed by the discover records'; \
	opens = sorted(r['span_id'] for r in records if 'end' not in r); \
	closes = sorted(r['span_id'] for r in records if 'end' in r); \
	assert opens == closes, 'an open record has no matching close record'; \
	print(f'obs-smoke: {len(records)} records parse, {len(opens)} spans paired')"
	test ! -e /tmp/repro-obs.trace.jsonl.profile.json
	PYTHONPATH=src $(PYTHON) -m repro.cli trace-report /tmp/repro-obs.trace.jsonl --profile | grep "profile:" > /dev/null
	grep -q "^repro_" /tmp/repro-obs.prom
	PYTHONPATH=src $(PYTHON) -m repro.cli export-metrics /tmp/repro-obs.snapshots.jsonl --output /tmp/repro-obs.export.prom
	grep -q "^repro_" /tmp/repro-obs.export.prom
	PYTHONPATH=src $(PYTHON) -m pytest tests/obs/test_export.py tests/obs/test_profile.py tests/obs/test_events.py tests/obs/test_disabled_overhead.py -q
	rm -f /tmp/repro-obs.trace.jsonl /tmp/repro-obs.prom \
	  /tmp/repro-obs.snapshots.jsonl /tmp/repro-obs.export.prom

# Fault-tolerance smoke: the resilience suite (checkpoint/resume,
# crash-path store errors; tests/resilience/test_wide_block_spills.py
# is the disk store's spill, reload and level-<n>.bin adoption
# coverage, on a 65-attribute relation with a one-byte budget), the
# probe-safety tests (the shared and the pool threads' probe workspaces
# are clean after a raise), the partition manager's store lifetime on
# the memory and the disk store (two resident levels, an exact walk's
# release by prefix block) plus a CLI checkpoint/resume round trip for
# the levelwise and the dfd strategy, each writing the one version-2
# checkpoint format, with the memory and with the disk store (at the
# CLI's default budget nothing of orders.csv spills), and an
# approximate levelwise run on the disk store, whose validity tests
# read the level blocks' label rows.
fault-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest tests/resilience tests/partition/test_store_faults.py tests/partition/test_probe_safety.py tests/search/test_partitions.py -q
	for run in "levelwise memory" "dfd memory" "levelwise disk" "dfd disk" "levelwise disk --epsilon 0.05"; do \
	  set -- $$run && strategy=$$1 && store=$$2 && shift 2 && \
	  rm -rf /tmp/repro-ckpt && \
	  PYTHONPATH=src $(PYTHON) -m repro.cli discover examples/data/orders.csv --strategy $$strategy --store $$store "$$@" --checkpoint-dir /tmp/repro-ckpt | sed 's/, [0-9.]*s>/>/' > /tmp/repro-ckpt-first.out && \
	  test -s /tmp/repro-ckpt/checkpoint.json && \
	  $(PYTHON) -c "import json, sys; sys.exit(json.load(open('/tmp/repro-ckpt/checkpoint.json'))['version'] != 2)" && \
	  PYTHONPATH=src $(PYTHON) -m repro.cli discover examples/data/orders.csv --strategy $$strategy --store $$store "$$@" --checkpoint-dir /tmp/repro-ckpt --resume | sed 's/, [0-9.]*s>/>/' > /tmp/repro-ckpt-second.out && \
	  diff /tmp/repro-ckpt-first.out /tmp/repro-ckpt-second.out || exit 1; \
	done
	rm -rf /tmp/repro-ckpt /tmp/repro-ckpt-first.out /tmp/repro-ckpt-second.out

# Differential/metamorphic verification smoke: the harness's smoke-marked
# end-to-end tests, then a real fuzz campaign over the smoke matrix.
# Mismatches write minimized repro cases to .verify-failures/.
verify-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest tests/verify -m smoke -q
	PYTHONPATH=src $(PYTHON) -m repro.cli verify --seeds 25 --matrix smoke

# Discovery-service smoke: the serve suite and the concurrency
# regression tests (thread-local obs activation, single-flight dedup,
# invalidation on re-registration), the CSV ingest tests (the service
# registers datasets through read_csv_text), then the real thing — a
# ``repro serve`` subprocess driven over HTTP by tools/service_smoke.py
# (register, discover, cache hit, event stream, SIGINT shutdown).
service-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest tests/serve tests/obs/test_thread_isolation.py tests/datasets/test_csvio.py -q
	$(PYTHON) tools/service_smoke.py

# Measure-suite smoke: golden fixtures, property invariants, the
# cross-measure metamorphic layer, and planted recovery (every measure
# must find the planted FDs back under corruption).
measures-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest tests/search/test_measures.py \
	  tests/search/test_measures_golden.py \
	  tests/search/test_contingency.py tests/partition/test_errors.py \
	  tests/search/test_expected_mutual_information.py \
	  tests/search/test_measures_properties.py \
	  tests/search/test_planted_recovery.py \
	  tests/search/test_golden_parity.py tests/search/test_rank_bound.py \
	  tests/verify/test_compare_measures.py tests/test_fingerprint.py -q

# Traversal-strategy smoke: the dfd/topk strategy suites (the dfd walk
# must reproduce the levelwise cover and visit strictly fewer nodes on
# the twin-column workload), the node engine's chain planning and
# column-keyed chain products, the level blocks' parity with chained
# products, the from-singletons ablation helper, and the wide-mask path:
# level steps on int64 masks against the same masks past bit 63
# (object arrays), and leading constant columns shifting the levelwise,
# dfd and UCC covers across bit 63.  Also the join's subset positions
# (equal to a search of every X∖{A}, in both mask forms), the tracker
# steps that index them instead of searching, and the level blocks'
# dense kernel (flagged keys at the int16 limit, zero-row blocks).
strategy-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest tests/search/test_dfd.py \
	  tests/search/test_topk.py tests/search/test_strategy.py \
	  tests/search/test_level_arrays.py \
	  tests/core/test_lattice.py tests/search/test_tracker.py \
	  tests/search/test_chain_planning.py \
	  tests/partition/test_column_products.py \
	  tests/partition/test_level_blocks.py \
	  tests/partition/test_dense_products.py \
	  tests/verify/test_compare_strategy.py \
	  tests/resilience/test_checkpoint_formats.py \
	  tests/core/test_measures_and_strategies.py -q

# Multi-core gate: the multicore test marker (auto-skipped on one CPU)
# — tests/partition/test_kernel_speedup.py, where the affinity-sized
# kernel thread pool must beat one thread with identical results, the
# kernel-thread parity tests, and the pool-thread case of
# tests/partition/test_left_label_grouping.py, which checks the large
# tasks' position-tagged grouping on pool threads against a pair-key
# argsort.
multicore-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest -m multicore -q

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
