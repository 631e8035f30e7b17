# Mirrors .github/workflows/ci.yml so local runs and CI stay in lockstep.

GO ?= go

.PHONY: build test race vet fmt-check bench bench-json bench-compare alloc-gate ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needs to run on:" >&2; echo "$$out" >&2; exit 1; fi

# Engine-scale benchmarks (the million-node routing benchmark included).
bench:
	$(GO) test ./internal/congest/ -run 'xxx' -bench . -benchtime 1x

# Machine-readable experiment record; commit one per milestone as
# BENCH_$(shell date +%F)_small.json to extend the perf trajectory.
bench-json:
	$(GO) run ./cmd/mdsbench -scale small -seed 1 -format json

# Compare two committed engine-benchmark records (benchstat format). The
# defaults pin the staged drain/merge router's record against the
# broadcast-native gather's (one barrier per round, no routing phase).
# The newer record also carries rows of the engine it replaced, taken on
# the same machine under `engine: staged-router` (compare the two within
# the file with `benchstat -col engine <record>`), and its
# BenchmarkBroadcastGather rows are the older records' BenchmarkRouteOnly.
# Override with BENCH_OLD=/BENCH_NEW= to compare other points on the
# trajectory (every BENCH_*_engine_*.txt record is committed). Note each
# record's numcpu/gomaxprocs header before reading workers>1 rows as a
# scaling curve — single-core records measure dispatch overhead,
# not scaling. Uses benchstat when available (CI installs it); falls
# back to printing both records side by side offline.
BENCH_OLD ?= BENCH_2026-08-07_engine_pr9.txt
BENCH_NEW ?= BENCH_2026-10-17_engine_pr13.txt
bench-compare:
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat $(BENCH_OLD) $(BENCH_NEW); \
	else \
		echo "benchstat not installed (go install golang.org/x/perf/cmd/benchstat@latest);"; \
		echo "raw records:"; \
		echo "--- $(BENCH_OLD)"; grep Benchmark $(BENCH_OLD); \
		echo "--- $(BENCH_NEW)"; grep Benchmark $(BENCH_NEW); \
	fi

# Allocation-regression gate: a mid-size run must stay within the
# testing.AllocsPerRun ceilings of TestAllocationCeiling (O(1) allocs on a
# reused Runner; far below one-per-node transient). Runs inside the normal
# test suite too; this target exists so CI (and humans) can exercise it
# explicitly next to bench-compare.
alloc-gate:
	$(GO) test ./internal/congest/ -run TestAllocationCeiling -count=1 -v

ci: build vet fmt-check race
