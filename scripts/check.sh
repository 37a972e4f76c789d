#!/usr/bin/env bash
# check.sh is the repository's full verification gate: build, vet, gofmt,
# the dimelint invariant analyzers, the race-enabled test suite, and a short
# fuzz smoke on the parser, edit-distance, edit-similarity verification and
# differential fuzz targets. CI and pre-merge runs should invoke exactly this
# script (or `make check`, which delegates here).
#
# The race-enabled suite includes the differential harness at the repo root
# (dime_difftest_test.go), which runs DIME+ with IntraWorkers of 2 and 4 over
# a couple hundred generated groups — that is the gate proving the parallel
# path both data-race-free and byte-identical to the sequential one. It also
# includes the serving-layer conformance suite (dime_serve_difftest_test.go),
# which replays the same corpus through the internal/serve HTTP API and
# demands byte-identity with the in-process results, plus the endpoint
# golden, backpressure, graceful-shutdown and concurrent-clients stress
# tests under internal/serve and cmd/dimed (`make serve-test` runs just
# those), and the chaos differential suite (dime_chaos_difftest_test.go),
# which replays that corpus through deterministic fault injection with the
# resilient client and demands byte-identical results, deduplicated jobs and
# zero surfaced failures (`make chaos-test` runs just that slice).
set -euo pipefail
cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-10s}"

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
# vet's copylocks check is the lock-copy gate: a struct holding a sync.Mutex,
# WaitGroup or other lock passed, received or returned by value fails here.
go vet ./...

echo "== gofmt -l ."
unformatted="$(gofmt -l .)"
if [[ -n "${unformatted}" ]]; then
    echo "gofmt: these files need formatting (run gofmt -w):"
    echo "${unformatted}"
    exit 1
fi

echo "== dimelint ./... (baseline: lint.baseline.json)"
# One baseline covers every analyzer and is kept empty: fix a finding or
# carry a reasoned //lint:ignore instead of recording it.
go run ./cmd/dimelint -baseline lint.baseline.json ./...

echo "== go test -race ./..."
go test -race ./...

echo "== fuzz smoke (${FUZZTIME} per target)"
# -fuzz must match exactly one target per package, hence the anchors.
go test -run=NONE -fuzz='^FuzzParseRule$' -fuzztime="${FUZZTIME}" ./internal/rules
go test -run=NONE -fuzz='^FuzzEditSimEval$' -fuzztime="${FUZZTIME}" ./internal/rules
go test -run=NONE -fuzz='^FuzzEditDistance$' -fuzztime="${FUZZTIME}" ./internal/sim
go test -run=NONE -fuzz='^FuzzDiffDIMEPlus$' -fuzztime="${FUZZTIME}" .

if [[ "${CHECK_BENCH:-0}" == "1" ]]; then
    echo "== bench snapshot (CHECK_BENCH=1)"
    ./scripts/bench.sh
    # The snapshot bench.sh just appended to BENCH_history.jsonl becomes the
    # newest trend entry: compare it against the median of the preceding runs
    # so a slow creep that never trips the single-diff gate still fails here.
    if [[ "${BENCH_ALLOW_REGRESS:-0}" != "1" && -s BENCH_history.jsonl ]]; then
        echo "== bench trend (vs BENCH_history.jsonl median)"
        go run ./cmd/benchjson -trend -history BENCH_history.jsonl -gate "${BENCH_GATE:-BenchmarkDIMEPlus}"
    fi
fi

echo "check: all gates passed"
