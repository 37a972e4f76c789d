package dime_test

import (
	"testing"

	"dime/internal/difftest"
	"dime/internal/serve"
)

// TestDifferentialServeHTTP is the serving-layer conformance suite: across a
// corpus of seeded random groups (the same generator mix as
// TestDifferentialDIMEVariants), every discovery result served over the HTTP
// API must be byte-identical — partitions, pivot, scrollbar levels,
// witnesses and stats — to an in-process DIME+ run on the same group. Each
// case gets one corpus per IntraWorkers setting (1, 2 and 4): its first
// discover computes DIME+ at that setting, and a second discover on the
// unchanged corpus must reuse that result. All cases share one httptest
// server, so the suite also exercises corpus create/ingest/delete lifecycles
// back to back against a single long-lived service. Failures log the case
// seed, so any divergence reproduces with
// `-run 'TestDifferentialServeHTTP/<case-name>'`.
func TestDifferentialServeHTTP(t *testing.T) {
	n := 210
	if testing.Short() {
		n = 45
	}
	tgt, done := difftest.NewServeTarget(serve.Options{Workers: 2})
	defer done()
	for _, c := range difftest.Corpus(n, 0x5E12E) {
		t.Run(c.Name, func(t *testing.T) {
			difftest.CheckServe(t, tgt, c, 1, 2, 4)
		})
	}
}
