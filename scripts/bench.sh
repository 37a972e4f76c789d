#!/usr/bin/env bash
# bench.sh runs the repository's performance snapshot: the end-to-end
# BenchmarkDIMEPlus pair (nil probe vs flight recorder) plus a one-shot smoke
# of two experiment benches, all with -benchmem. The combined output is converted by cmd/benchjson into
# BENCH_core.json, the checked-in performance snapshot that lets perf
# regressions show up in review, and appended as one timestamped JSON line
# to BENCH_history.jsonl, the multi-run log `benchjson -trend` (and `make
# trend`) analyzes.
#
# When a previous ${BENCH_OUT} exists it is diffed against: per-benchmark
# ns/op and allocs/op deltas print to stderr, and an allocs/op regression of
# more than ${BENCH_MAX_ALLOCS_REGRESS}% in ${BENCH_GATE} fails the run
# (exit 2 from benchjson) — this is how CHECK_BENCH=1 in check.sh turns the
# snapshot into a perf gate. The same run also enforces the instrumentation
# budget: BenchmarkDIMEPlus/flight-recorder must stay within
# ${BENCH_MAX_OVERHEAD}% ns/op of /nil-probe. Set BENCH_ALLOW_REGRESS=1 to
# record a deliberate regression (the deltas still print).
#
# Environment:
#   BENCHTIME                 benchtime for BenchmarkDIMEPlus (default 1s)
#   BENCH_OUT                 output JSON path (default BENCH_core.json)
#   BENCH_HISTORY             history JSONL path (default BENCH_history.jsonl;
#                             empty string disables the append)
#   BENCH_GATE                gated benchmark (default BenchmarkDIMEPlus)
#   BENCH_MAX_ALLOCS_REGRESS  allowed allocs/op growth percent (default 25)
#   BENCH_MAX_OVERHEAD        allowed flight-recorder ns/op overhead percent
#                             vs nil-probe (default 5)
#   BENCH_ALLOW_REGRESS       1 = diff but never fail
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1s}"
BENCH_OUT="${BENCH_OUT:-BENCH_core.json}"
BENCH_HISTORY="${BENCH_HISTORY-BENCH_history.jsonl}"
BENCH_GATE="${BENCH_GATE:-BenchmarkDIMEPlus}"
BENCH_MAX_ALLOCS_REGRESS="${BENCH_MAX_ALLOCS_REGRESS:-25}"
BENCH_MAX_OVERHEAD="${BENCH_MAX_OVERHEAD:-5}"

tmp="$(mktemp)"
prev_snap="$(mktemp)"
trap 'rm -f "$tmp" "$prev_snap"' EXIT

extra_args=()
if [[ -n "${BENCH_HISTORY}" ]]; then
    extra_args+=(-history "${BENCH_HISTORY}")
fi
if [[ -s "${BENCH_OUT}" ]]; then
    cp "${BENCH_OUT}" "$prev_snap"
    extra_args+=(-prev "$prev_snap")
fi
if [[ "${BENCH_ALLOW_REGRESS:-0}" != "1" ]]; then
    if [[ -s "$prev_snap" ]]; then
        extra_args+=(-gate "${BENCH_GATE}" -max-allocs-regress "${BENCH_MAX_ALLOCS_REGRESS}")
    fi
    extra_args+=(-overhead-base "${BENCH_GATE}/nil-probe" \
                 -overhead-probe "${BENCH_GATE}/flight-recorder" \
                 -max-overhead "${BENCH_MAX_OVERHEAD}")
fi

echo "== BenchmarkDIMEPlus (-benchtime=${BENCHTIME})"
go test -run='^$' -bench='^BenchmarkDIMEPlus$' -benchmem -benchtime="${BENCHTIME}" . | tee "$tmp"

echo "== experiment smoke (-benchtime=1x)"
go test -run='^$' -bench='^BenchmarkExp(1Fig6|4TableI)$' -benchmem -benchtime=1x . | tee -a "$tmp"

go run ./cmd/benchjson -o "${BENCH_OUT}" ${extra_args[@]+"${extra_args[@]}"} <"$tmp"
echo "bench: wrote ${BENCH_OUT}"
if [[ -n "${BENCH_HISTORY}" ]]; then
    echo "bench: appended to ${BENCH_HISTORY}"
fi
