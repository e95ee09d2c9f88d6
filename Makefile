# Developer entry points for the checks ROADMAP.md requires before merging.
# `make check` is the full pre-merge gate: tier-1 (build + test), static
# analysis (go vet + hpelint), the race-detector subsets over the suite's
# shared-cache paths, the probe hot path and the serving layer, and the
# fuzz seed corpus. One command reproduces everything CI would ask for.

GO ?= go

.PHONY: all check build test vet lint lint-bench spec-goldens race race-probe serve-check cluster-check workload-check fuzz-seed bench bench-probe bench-json bench-smoke clean

all: check

check: build vet lint spec-goldens test race race-probe serve-check cluster-check workload-check fuzz-seed bench-smoke

# Tier-1 verify (ROADMAP.md).
build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# hpelint machine-checks the repo's load-bearing invariants (DESIGN.md §10):
# determinism, map-order hygiene, probe nil-guards, context threading, lock
# discipline, hot-path allocation freedom, lock-acquisition order, and the
# /v1 error envelope. Exit 1 means a finding; fix it or annotate the line
# above with `//lint:ignore hpelint/<analyzer> reason`. The second run
# self-lints the analyzer suite: hpelint's own output must obey the
# determinism rules it enforces.
lint:
	$(GO) build ./cmd/hpelint && ./hpelint ./... && ./hpelint ./internal/lint/ ./cmd/hpelint/

# Wall-clock for the full analyzer suite over the whole repo (the call graph
# dominates). Informational; run it when touching internal/lint to keep the
# precommit slice fast.
lint-bench:
	$(GO) build ./cmd/hpelint && time ./hpelint ./...

# RunSpec identity goldens (DESIGN.md §12): the committed canonical-JSON +
# Spec.ID() fixtures must match exactly — a drift means cached results and
# client-side run IDs silently diverge. Deliberate spec changes bump
# runspec.IDVersion and regenerate with
# `go test ./internal/runspec/ -run SpecGoldens -update-spec-goldens`.
spec-goldens:
	$(GO) test -run SpecGoldens -count=1 ./internal/runspec/

# The experiment suite's shared-cache paths and plan pass under the race
# detector (~45 s).
race:
	$(GO) test -race -run 'Concurrent|Dedup|RunPool|Plan' ./internal/experiments/

# The probe hot path and the rewritten event engine under the race detector:
# emission sites, Chrome-trace streaming, probed-vs-unprobed determinism, and
# parallel independent engines (no hidden shared state in the SoA store).
race-probe:
	$(GO) test -race -run 'Probe|Trace|Race' ./internal/probe/ ./internal/gpu/ ./internal/sim/

# The hped serving layer under the race detector: coalescer, result cache,
# admission queue, cancellation, the soak test, and the daemon's SIGTERM
# lifecycle in both modes are all concurrency-critical.
serve-check:
	$(GO) vet ./internal/server/ ./internal/flight/ ./cmd/hped/
	$(GO) test -race -count=1 ./internal/server/ ./internal/flight/ ./cmd/hped/

# The cluster coordinator under the race detector (DESIGN.md §13): ring
# routing, shard dispatch with re-dispatch and circuit breaking, the chaos
# tests (backend killed mid-sweep, backend paused past the health deadline),
# byte-identity of merged sweeps against single-node goldens, and the
# concurrent soak.
cluster-check:
	$(GO) vet ./internal/cluster/
	$(GO) test -race -count=1 -timeout 600s ./internal/cluster/

# Workload v2 (DESIGN.md §14) under the race detector: phase-schedule and
# colocation generators, scenario presets, and the versioned .hpet codec
# (v1/v2 round-trips, annotation tables, fuzzed header validation).
workload-check:
	$(GO) test -race -count=1 ./internal/workload/... ./internal/trace/

# Fuzz targets, seed corpus only (the -fuzz loop is interactive; run
# `go test -fuzz=FuzzEngineEquivalence ./internal/sim/`,
# `go test -fuzz=FuzzCatalogGenerate ./internal/workload/`,
# `go test -fuzz=FuzzPhaseSchedule ./internal/workload/`,
# `go test -fuzz=FuzzPageTable ./internal/addrspace/`,
# `go test -fuzz=FuzzTLBReference ./internal/tlb/`,
# `go test -fuzz=FuzzRRIPReference ./internal/policy/`,
# `go test -fuzz=FuzzSpecDecode ./internal/runspec/`, or
# `go test -fuzz=FuzzDecodeError ./internal/server/` to explore).
fuzz-seed:
	$(GO) test -run 'Fuzz' ./internal/workload/ ./internal/sim/ ./internal/trace/ ./internal/addrspace/ ./internal/tlb/ ./internal/policy/ ./internal/runspec/ ./internal/server/

# One benchmark per paper table/figure plus the ablations.
bench:
	$(GO) test -bench=. -benchtime=1x ./...

# Probe overhead contract: BenchmarkNilProbe must track
# BenchmarkSimulatorThroughput-class numbers (nil probe = one dead branch
# per emission site); BenchmarkMetricsProbe prices the instrumentation.
bench-probe:
	$(GO) test -run '^$$' -bench 'BenchmarkNilProbe|BenchmarkMetricsProbe' -benchtime=5x -count=3 .

# Performance trajectory (EXPERIMENTS.md): append the next numbered
# BENCH_<n>.json at the repo root — engine microbenchmarks, the retained
# reference engine as in-run baseline, and the serial full-sweep wall-clock.
bench-json:
	sh scripts/bench_json.sh

# 1-iteration schema smoke of the trajectory harness (part of `make check`):
# validates that -bench-json still emits a schema-correct report without
# paying for a full measurement run.
bench-smoke:
	sh scripts/bench_json.sh --smoke

clean:
	rm -f hpelint
	$(GO) clean ./...
