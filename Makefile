GO ?= go

.PHONY: build test serve-test lint check bench trend

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The serving layer's gates in isolation, all race-enabled: the one served
# replay (difftest.DiffServe) in both of its suites at the repo root — the
# fault-free conformance suite (one corpus per case, a client with one
# attempt per call) and the chaos suite (three fault seeds, injectors on both
# sides of the wire, the retrying client). Each demands byte-identity with
# in-process DIME+, one job per submission, and two submissions per corpus:
# the first computes and the second reuses its result. Then the endpoint
# golden, backpressure, shutdown, reuse and stress tests, the fault-injector
# and client unit tests, and dimed's entry point. `make check` covers these
# too via its full -race run.
serve-test:
	$(GO) test -race -run 'TestDifferential(Serve|Chaos)HTTP$$' .
	$(GO) test -race ./internal/serve/ ./internal/fault/ ./internal/client/ ./cmd/dimed/

# Static analysis: the eight dimelint analyzers over the module (nested
# bench/ module included); exits 1 on any finding. Fix a finding or carry a
# reasoned //lint:ignore.
lint:
	$(GO) run ./cmd/dimelint ./...

# Full verification gate: build, vet, gofmt, dimelint, race tests, the
# nested bench module's vet and tests (`go -C bench vet/test ./...`, which
# the root's ./... skips), fuzz smoke.
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
