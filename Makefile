.PHONY: all build test check mc mc-crash mc-batch lint trace-smoke trace-cp bench bench-quick bench-scale tables tables-quick

all: build

build:
	dune build

test:
	dune runtest

# Static analysis: token lint + cross-file protocol-flow rules
# (Check.Analyzer) over the library, the binaries and the examples.
# `--format json` emits a SARIF-style report.
lint:
	dune build bin/lint.exe && ./_build/default/bin/lint.exe lib bin examples

# Trace smoke test: tiny traced run -> validate the Chrome JSON + byte
# fingerprint golden (test/goldens/trace_smoke.expected).
trace-smoke:
	dune build @trace-smoke

# Critical-path smoke: decompose the smoke/batched traces into latency
# components and replay a recorded snapshot series
# (test/goldens/trace_critpath.expected).
trace-cp:
	dune build @trace-cp

# Deep model-checking configuration (exhausts the dcs=2/keys=2/txs=3
# schedule tree on the heap and on the wheel; about 12 s each).
mc:
	dune build @mc

# Deep crash-schedule model checking: crash-recover of a node ordered
# against every reachable protocol point (heap + wheel), including the
# rf=1 tree where fail-over cannot promote.  Slower than @mc.
mc-crash:
	dune build @mc-crash

# Batched-pipeline model checking: message coalescing on (flushes are
# ordinary explored transitions), heap + wheel, plus a crash schedule
# where in-doubt batched prepares must resolve via AC1-AC5 and a broken
# recovery variant that must still be caught through the batched path.
mc-batch:
	dune build @mc-batch

check: test mc mc-crash mc-batch lint

# Worker processes for the sweep grid (empty = STR_JOBS, else 1).
# Table output is byte-identical whatever the value; only wall-clock
# changes.
JOBS ?=
JOBS_FLAG = $(if $(JOBS),-j $(JOBS),)

# Regenerate every paper table/figure (Quick scale: CI-friendly).
tables-quick:
	dune build bin/str_sim.exe
	./_build/default/bin/str_sim.exe all $(JOBS_FLAG)

# Same at Full scale (matches the experiment index in DESIGN.md).
tables:
	dune build bin/str_sim.exe
	./_build/default/bin/str_sim.exe all --full $(JOBS_FLAG)

# Per-PR bench trajectory slot: bench/BENCH_<n>.json, n = highest
# committed slot + 1 (override with BENCH_ID=<n>).
BENCH_ID ?= $(shell ls bench/BENCH_[0-9]*.json 2>/dev/null \
	| sed 's/.*BENCH_\([0-9]*\)\.json/\1/' | sort -n | tail -1 \
	| awk '{ print $$1 + 1 }' ; true)

# Full benchmark pass: regenerate the paper tables, run the bechamel
# suite, write BENCH.json + the bench/BENCH_$(BENCH_ID).json trajectory
# snapshot, and diff against the committed baseline
# (bench/BENCH.baseline.json) — the diff prints the regression verdict.
bench: tables-quick
	dune build bench/main.exe
	./_build/default/bench/main.exe
	./_build/default/bench/main.exe json
	./_build/default/bench/main.exe json bench/BENCH_$(if $(BENCH_ID),$(BENCH_ID),0).json

# Machine-readable report + baseline diff only (fast; what CI runs).
bench-quick:
	dune build bench/main.exe
	./_build/default/bench/main.exe json

# Million-client scale probe: one open-loop run of ~1M clients on the
# 9-DC grid per queue structure (binary heap, then timer wheel),
# asserting the two produce identical results, then the regular json
# report with the scale rows (events/s, bytes/event, peak RSS) appended
# into the numbered trajectory slot.
bench-scale:
	dune build bench/main.exe
	./_build/default/bench/main.exe scale bench/BENCH_$(if $(BENCH_ID),$(BENCH_ID),0).json
