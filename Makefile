GO ?= go

.PHONY: build test serve-test chaos-test lint alloc-report check bench trend

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The serving layer's gates in isolation: the HTTP conformance suite at the
# repo root (in-process ≡ over-HTTP byte-identity at several worker counts),
# plus the endpoint golden, backpressure, shutdown and stress tests — all
# race-enabled. `make check` covers these too via its full -race run.
serve-test:
	$(GO) test -race -run TestDifferentialServeHTTP .
	$(GO) test -race ./internal/serve/ ./cmd/dimed/

# The resilience gate: the chaos differential suite (the 210-group corpus
# replayed through a fault-injected server with the resilient client at
# three chaos seeds, demanding byte-identical results, zero duplicated jobs
# and zero client-visible failures) plus the fault-injector and client unit
# tests — all race-enabled. `make check` covers these too via its full
# -race run.
chaos-test:
	$(GO) test -race -run TestDifferentialChaosHTTP .
	$(GO) test -race ./internal/fault/ ./internal/client/

# Static analysis with the checked-in baselines and allocation budget: fails
# only on findings not recorded in lint.baseline.json or lock.baseline.json
# (both kept empty — fix or //lint:ignore instead of baselining whenever
# possible) or hot-path allocation sites beyond alloc.budget.json (regenerate
# deliberately with
# `go run ./cmd/dimelint -write-alloc-budget alloc.budget.json ./...`).
# lock.baseline.json gates the locklint concurrency suite
# (lockorder/heldcall/goleak/ctxflow).
lint:
	$(GO) run ./cmd/dimelint -baseline lint.baseline.json -alloc-budget alloc.budget.json -lock-baseline lock.baseline.json ./...

# Ranked hot-path allocation sites (what alloc.budget.json gates).
alloc-report:
	$(GO) run ./cmd/dimelint -alloc-report ./...

# Full verification gate: build, vet, gofmt, dimelint, race tests, fuzz smoke.
# Override the fuzz budget with FUZZTIME=30s etc. Add CHECK_BENCH=1 to also
# refresh the BENCH_core.json performance snapshot.
check:
	./scripts/check.sh

# Performance snapshot: BenchmarkDIMEPlus + experiment smoke, written to
# BENCH_core.json via cmd/benchjson and appended to BENCH_history.jsonl.
# Override BENCHTIME / BENCH_OUT / BENCH_HISTORY.
bench:
	./scripts/bench.sh

# Multi-run regression check: compare BENCH_history.jsonl's newest entry
# against the median of the preceding runs (exit 2 on regression; see
# cmd/benchjson for the exit-code contract).
trend:
	$(GO) run ./cmd/benchjson -trend -history BENCH_history.jsonl -gate BenchmarkDIMEPlus
