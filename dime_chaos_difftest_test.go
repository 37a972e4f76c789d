package dime_test

import (
	"fmt"
	"testing"

	"dime/internal/difftest"
	"dime/internal/serve"
)

// TestDifferentialChaosHTTP is the resilience capstone: the same seeded
// random corpus as TestDifferentialServeHTTP, replayed through a server
// wrapped in deterministic fault injection (latency, 503 refusals,
// connection resets, truncated bodies — each rule firing at >= 10%) while
// the resilient internal/client retries, paces on Retry-After and dedupes
// discover submissions with idempotency keys. Each case submits two
// discovers on one corpus: the first computes DIME+ under faults, and the
// second reuses that result under faults. At every chaos seed the
// requirements are absolute:
//
//   - every result fetched over the faulty wire is byte-identical to the
//     in-process DIME+ run (partitions, pivot, levels, witnesses, stats);
//   - no discovery job is duplicated by a retried submission, and exactly
//     one job per case computes;
//   - no injected fault surfaces to the caller — zero client-visible
//     failures;
//   - faults actually fired (the injector counters are asserted non-zero,
//     so a mis-wired injector cannot silently pass the suite).
func TestDifferentialChaosHTTP(t *testing.T) {
	n := 210
	if testing.Short() {
		n = 45
	}
	for _, seed := range []int64{1, 7, 0xC4A05} {
		t.Run(fmt.Sprintf("chaos-seed-%d", seed), func(t *testing.T) {
			// The replay runs under the test's own deadline: if retries ever
			// grind, the context expires instead of the whole run hanging.
			ctx, cancel := deadlineContext(t)
			defer cancel()
			// Snapshot before the target exists, assert after it is torn
			// down: the chaos run must not strand a single goroutine.
			snap := difftest.Goroutines()
			defer snap.CheckReleased(t)
			tgt, done := difftest.NewTarget(
				serve.Options{Workers: 2},
				&difftest.ChaosOptions{Seed: seed, Rate: 0.15},
			)
			defer done()
			for _, c := range difftest.Corpus(n, 0x5E12E) {
				t.Run(c.Name, func(t *testing.T) {
					difftest.CheckServe(t, ctx, tgt, c, c.Name)
				})
			}
			if fired := tgt.ServerFaults.Fired(); fired == 0 {
				t.Error("server-side injector never fired — chaos suite ran fault-free")
			}
			if fired := tgt.ClientFaults.Fired(); fired == 0 {
				t.Error("client-side injector never fired — chaos suite ran fault-free")
			}
			if retries := tgt.Registry.Counter("dime.client.retries").Value(); retries == 0 {
				t.Error("client never retried — faults were not exercised end to end")
			}
			for _, rc := range tgt.ServerFaults.Snapshot() {
				t.Logf("server rule %-17s fired %d", rc.Name, rc.Fired)
			}
			for _, rc := range tgt.ClientFaults.Snapshot() {
				t.Logf("client rule %-17s fired %d", rc.Name, rc.Fired)
			}
		})
	}
}
