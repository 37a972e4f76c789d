package dime_test

import (
	"context"
	"testing"

	"dime/internal/difftest"
	"dime/internal/serve"
)

// TestDifferentialServeHTTP is the serving-layer conformance suite: across a
// corpus of seeded random groups (the same generator mix as
// TestDifferentialDIMEVariants), every discovery result served over the HTTP
// API must be byte-identical — partitions, pivot, scrollbar levels,
// witnesses and stats — to an in-process DIME+ run on the same group. Each
// case gets one corpus with two keyed submissions: the first computes DIME+,
// and the second, on the unchanged corpus, must reuse that result. The client
// makes one attempt per call, so a status the chaos suite's retries would
// absorb fails here.
// All cases share one httptest server, so the suite also exercises corpus
// create/ingest/delete lifecycles back to back against a single long-lived
// service. Failures log the case seed, so any divergence reproduces with
// `-run 'TestDifferentialServeHTTP/<case-name>'`.
func TestDifferentialServeHTTP(t *testing.T) {
	n := 210
	if testing.Short() {
		n = 45
	}
	ctx, cancel := deadlineContext(t)
	defer cancel()
	tgt, done := difftest.NewTarget(serve.Options{Workers: 2}, nil)
	defer done()
	for _, c := range difftest.Corpus(n, 0x5E12E) {
		t.Run(c.Name, func(t *testing.T) {
			difftest.CheckServe(t, ctx, tgt, c, c.Name)
		})
	}
}

// deadlineContext returns a context that expires at the test's deadline, so
// a replay whose requests stall fails instead of hanging the whole run.
func deadlineContext(t *testing.T) (context.Context, context.CancelFunc) {
	if dl, ok := t.Deadline(); ok {
		return context.WithDeadline(context.Background(), dl)
	}
	return context.WithCancel(context.Background())
}
