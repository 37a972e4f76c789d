#!/usr/bin/env bash
# check.sh is the repository's full verification gate: build, vet, gofmt,
# the dimelint invariant analyzers, the race-enabled test suite, the vet and
# tests of the nested dimebench module (bench/), and a short fuzz smoke on
# the parser, edit-distance, edit-similarity verification and differential
# fuzz targets. CI and pre-merge runs should invoke exactly this script (or
# `make check`, which delegates here).
#
# The race-enabled suite includes the differential harness at the repo root
# (dime_difftest_test.go), which runs DIME and DIME+ over a couple hundred
# generated groups and demands the same partitions, pivot, levels and marking
# rules, and the answer digest (dime_answers_test.go), which pins every DIME+
# answer of those groups against testdata/answers.txt across commits. It also
# includes the one served replay (difftest.DiffServe), which drives the same
# corpus through the internal/serve HTTP API with internal/client and demands
# byte-identity with the in-process results, in two suites: fault-free
# (dime_serve_difftest_test.go: one corpus per case, a client that makes one
# attempt per call) and under deterministic fault injection with the
# retrying client (dime_chaos_difftest_test.go: one corpus per case,
# deduplicated jobs, zero surfaced failures). `make serve-test`
# runs both, plus the endpoint golden, backpressure, graceful-shutdown and
# concurrent-clients stress tests and the fault and client unit tests.
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

echo "== dimelint ./..."
# Any finding fails the gate: fix it or carry a reasoned //lint:ignore.
# ./... includes the nested bench/ module.
go run ./cmd/dimelint ./...

echo "== go test -race ./..."
go test -race ./...

echo "== go -C bench vet ./... && go -C bench test ./..."
# bench/ is a module of its own, so the root's ./... leaves it out: this runs
# its oracle, smoke (every workload for about a second), load-generator and
# statistics tests.
go -C bench vet ./...
go -C bench test ./...

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
