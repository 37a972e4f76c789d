package core

import (
	"math/rand"
	"testing"

	"dime/internal/partition"
	"dime/internal/signature"
)

// TestCandidateBufferAllocatedOnce pins the candidate-gen phase at one
// allocation beyond the index enumeration it drives: the ranked-candidate
// buffer, sized once from the indexes' PairBound instead of regrown.
func TestCandidateBufferAllocatedOnce(t *testing.T) {
	g, opts := randomGroup(rand.New(rand.NewSource(5)), 60)
	recs, err := opts.Config.NewRecords(g)
	if err != nil {
		t.Fatal(err)
	}
	ctx := signature.NewContext(opts.Config, recs, opts.Rules)
	var indexes []*signature.PosIndex
	for _, rule := range opts.Rules.Positive {
		indexes = append(indexes, signature.BuildPositive(ctx, rule, recs))
	}
	enumerate := testing.AllocsPerRun(20, func() {
		for _, ix := range indexes {
			ix.ForEach(func(signature.Candidate) {})
		}
	})

	var stats Stats
	pver := &posVerifier{opts: &opts, recs: recs, uf: partition.New(len(recs)), stats: &stats,
		perRuleVerified: make([]int64, len(opts.Rules.Positive))}
	perRule := make([]int64, len(indexes))
	var cands []posCand
	sorting := false
	collect := testing.AllocsPerRun(20, func() {
		cands, sorting = pver.collect(indexes, 1<<15, perRule)
	})
	if !sorting || len(cands) == 0 {
		t.Fatalf("collect returned %d candidates, sorting=%v; want a non-empty ranked buffer", len(cands), sorting)
	}
	if extra := int(collect) - int(enumerate); extra != 1 {
		t.Fatalf("candidate generation allocates %d times beyond the index enumeration (%v), want 1", extra, enumerate)
	}
	bound := 0
	for _, ix := range indexes {
		bound += ix.PairBound()
	}
	if len(cands) > bound || cap(cands) != bound {
		t.Fatalf("%d candidates in a buffer of capacity %d; PairBound sum is %d", len(cands), cap(cands), bound)
	}
}
