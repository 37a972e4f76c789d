package dime_test

import (
	"testing"

	"dime/internal/difftest"
	"dime/internal/obs"
)

// TestDifferentialDIMEVariants is the differential harness: across a corpus
// of seeded random groups (cycling the Scholar, Amazon and DBGen generators
// at 30–150 entities), DIME and DIME+ must agree on every partition, pivot,
// scrollbar level and marked partition with its marking rule. Failures log
// the case seed, so any divergence reproduces with
// `-run 'TestDifferentialDIMEVariants/<case-name>'`.
func TestDifferentialDIMEVariants(t *testing.T) {
	n := 210
	if testing.Short() {
		n = 45
	}
	for _, c := range difftest.Corpus(n, 0xD1FE) {
		t.Run(c.Name, func(t *testing.T) {
			difftest.Check(t, c)
		})
	}
}

// TestDifferentialFlightRecorderAttached reruns a slice of the differential
// corpus with the flight recorder (resource attribution on) attached as the
// probe on both algorithms: instrumentation that is meant to stay always-on
// in production must not change the answer.
func TestDifferentialFlightRecorderAttached(t *testing.T) {
	n := 45
	if testing.Short() {
		n = 15
	}
	fr := obs.NewFlightRecorder(obs.FlightOptions{Resources: true})
	for _, c := range difftest.Corpus(n, 0xF117) {
		c.Probe = fr
		t.Run(c.Name, func(t *testing.T) {
			difftest.Check(t, c)
		})
	}
	if fr.Kept() == 0 {
		t.Fatal("flight recorder observed no runs")
	}
}

// TestCorpusDeterministic pins the generator contract the harness depends
// on: the same (n, seed) pair must reproduce the same case list, so a seed
// logged by a failure is sufficient to replay it.
func TestCorpusDeterministic(t *testing.T) {
	a := difftest.Corpus(9, 7)
	b := difftest.Corpus(9, 7)
	if len(a) != len(b) {
		t.Fatalf("case counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Seed != b[i].Seed {
			t.Fatalf("case %d differs: %s/%d vs %s/%d", i, a[i].Name, a[i].Seed, b[i].Name, b[i].Seed)
		}
		if len(a[i].Group.Entities) != len(b[i].Group.Entities) {
			t.Fatalf("case %d group sizes differ: %d vs %d",
				i, len(a[i].Group.Entities), len(b[i].Group.Entities))
		}
	}
}
