package signature

import (
	"fmt"
	"math/rand"
	"testing"

	"dime/internal/entity"
	"dime/internal/fixtures"
	"dime/internal/ontology"
	"dime/internal/rules"
)

// buildScholar compiles the Figure 1 group and its rule set.
func buildScholar(t *testing.T) (*rules.Config, []*rules.Record, rules.RuleSet, *Context) {
	t.Helper()
	g := fixtures.Figure1Group()
	cfg := fixtures.ScholarConfig()
	rs := fixtures.PaperRules(cfg)
	recs, err := cfg.NewRecords(g)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, recs, rs, NewContext(cfg, recs, rs)
}

func shares(a, b []string) bool {
	set := make(map[string]struct{}, len(a))
	for _, s := range a {
		set[s] = struct{}{}
	}
	for _, s := range b {
		if _, ok := set[s]; ok {
			return true
		}
	}
	return false
}

func hasUniversal(sigs []string) bool {
	for _, s := range sigs {
		if s == Universal {
			return true
		}
	}
	return false
}

// TestSimilarSideGuarantee: for every positive-rule predicate and every pair
// of Figure-1 records, if the predicate holds, the records share a signature
// (or one is a wildcard).
func TestSimilarSideGuarantee(t *testing.T) {
	_, recs, rs, ctx := buildScholar(t)
	for _, rule := range rs.Positive {
		for _, p := range rule.Predicates {
			for i := range recs {
				for j := i + 1; j < len(recs); j++ {
					if !p.Eval(recs[i], recs[j]) {
						continue
					}
					si := ctx.Signatures(p, recs[i])
					sj := ctx.Signatures(p, recs[j])
					if !shares(si, sj) && !hasUniversal(si) && !hasUniversal(sj) {
						t.Errorf("pred %v holds for (%s,%s) but signatures disjoint: %v vs %v",
							p, recs[i].Entity.ID, recs[j].Entity.ID, si, sj)
					}
				}
			}
		}
	}
}

// TestDissimilarSideGuarantee: for every negative-rule predicate, records
// with disjoint signature sets (no wildcards) must satisfy the predicate.
func TestDissimilarSideGuarantee(t *testing.T) {
	_, recs, rs, ctx := buildScholar(t)
	for _, rule := range rs.Negative {
		for _, p := range rule.Predicates {
			for i := range recs {
				for j := i + 1; j < len(recs); j++ {
					si := ctx.Signatures(p, recs[i])
					sj := ctx.Signatures(p, recs[j])
					if hasUniversal(si) || hasUniversal(sj) || shares(si, sj) {
						continue
					}
					if !p.Eval(recs[i], recs[j]) {
						t.Errorf("pred %v: (%s,%s) signatures disjoint but predicate false",
							p, recs[i].Entity.ID, recs[j].Entity.ID)
					}
				}
			}
		}
	}
}

// TestPositiveCandidatesComplete: every pair satisfying a positive rule is a
// candidate of that rule's index (paper-example group).
func TestPositiveCandidatesComplete(t *testing.T) {
	_, recs, rs, ctx := buildScholar(t)
	for _, rule := range rs.Positive {
		ix := BuildPositive(ctx, rule, recs)
		cands := make(map[[2]int]bool)
		for _, c := range ix.Candidates() {
			cands[[2]int{c.I, c.J}] = true
		}
		for i := range recs {
			for j := i + 1; j < len(recs); j++ {
				if rule.Eval(recs[i], recs[j]) && !cands[[2]int{i, j}] {
					t.Errorf("rule %s: satisfied pair (%s,%s) missing from candidates",
						rule.Name, recs[i].Entity.ID, recs[j].Entity.ID)
				}
			}
		}
	}
}

// TestExample8Candidates reproduces Example 8: ϕ+1 generates candidates
// {(e1,e3),(e2,e5)}; ϕ+2 generates ⊇ {(e1,e2),(e1,e3),(e2,e3)}.
func TestExample8Candidates(t *testing.T) {
	_, recs, rs, ctx := buildScholar(t)
	ix1 := BuildPositive(ctx, rs.Positive[0], recs)
	got := map[string]bool{}
	for _, c := range ix1.Candidates() {
		got[fmt.Sprintf("%s-%s", recs[c.I].Entity.ID, recs[c.J].Entity.ID)] = true
	}
	for _, want := range []string{"e1-e3", "e2-e5"} {
		if !got[want] {
			t.Errorf("phi+1 candidates missing %s (got %v)", want, got)
		}
	}
	// No pair with zero shared authors may appear for phi+1 (overlap >= 2
	// prefixes are selective); e4 shares no author with anyone.
	for pair := range got {
		if pair[:2] == "e4" || pair[3:] == "e4" {
			t.Errorf("phi+1 candidates should not include e4: %v", got)
		}
	}
}

// TestNegativeFilterPaperExample reproduces Example 9: P2 = {e4} is provably
// mis-categorized under φ−1 by signatures alone, and P3 = {e6} under φ−2.
func TestNegativeFilterPaperExample(t *testing.T) {
	_, recs, rs, ctx := buildScholar(t)
	pivot := []*rules.Record{recs[0], recs[1], recs[2], recs[4]} // e1,e2,e3,e5

	nf1 := BuildNegative(ctx, rs.Negative[0], pivot)
	if !nf1.PartitionMustSatisfy([]*rules.Record{recs[3]}) {
		t.Error("φ−1: partition {e4} should be provably mis-categorized by signatures")
	}
	if nf1.PartitionMustSatisfy([]*rules.Record{recs[5]}) {
		t.Error("φ−1: partition {e6} shares the author Nan Tang with the pivot")
	}

	nf2 := BuildNegative(ctx, rs.Negative[1], pivot)
	if !nf2.PartitionMustSatisfy([]*rules.Record{recs[5]}) {
		t.Error("φ−2: partition {e6} should be provably mis-categorized by signatures")
	}
}

// TestProbeCertain: probing e4 against the pivot under φ−1 finds a certain
// pair; probing e1 (a pivot-like record) does not.
func TestProbeCertain(t *testing.T) {
	_, recs, rs, ctx := buildScholar(t)
	pivot := []*rules.Record{recs[0], recs[1], recs[2], recs[4]}
	nf := BuildNegative(ctx, rs.Negative[0], pivot)
	if pr := nf.Probe(recs[3]); pr.Certain < 0 {
		t.Error("probe(e4) should find a certainly-dissimilar pivot record")
	}
	if pr := nf.Probe(recs[0]); pr.Certain >= 0 {
		t.Errorf("probe(e1) should not be certainly dissimilar from the pivot")
	}
}

// randomGroup builds a random group over a small schema with token sets and
// ontology venues for property testing.
func randomGroup(rng *rand.Rand, n int) (*entity.Group, *rules.Config, rules.RuleSet) {
	schema := entity.MustSchema("Name", "Tags", "Venue")
	tree := ontology.VenueTree()
	leaves := tree.Leaves()
	cfg := rules.NewConfig(schema).
		WithTokenMode("Name", rules.WordsMode).
		WithTree("Venue", tree)
	g := entity.NewGroup("rand", schema)
	words := []string{"alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta"}
	for i := 0; i < n; i++ {
		name := words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))]
		var tags []string
		for k := 0; k < 1+rng.Intn(4); k++ {
			tags = append(tags, words[rng.Intn(len(words))])
		}
		venue := leaves[rng.Intn(len(leaves))].Label
		e, err := entity.NewEntity(schema, fmt.Sprintf("r%d", i), [][]string{{name}, tags, {venue}})
		if err != nil {
			panic(err)
		}
		g.MustAdd(e)
	}
	rs := rules.RuleSet{
		Positive: []rules.Rule{
			rules.MustParse(cfg, "p1", rules.Positive, "ov(Tags) >= 2"),
			rules.MustParse(cfg, "p2", rules.Positive, "jac(Name) >= 0.5 && on(Venue) >= 0.75"),
			rules.MustParse(cfg, "p3", rules.Positive, "ed(Name) <= 2"),
		},
		Negative: []rules.Rule{
			rules.MustParse(cfg, "n1", rules.Negative, "ov(Tags) = 0"),
			rules.MustParse(cfg, "n2", rules.Negative, "ov(Tags) <= 1 && on(Venue) <= 0.25"),
			rules.MustParse(cfg, "n3", rules.Negative, "jac(Name) <= 0.2 && ed(Name) >= 4"),
		},
	}
	return g, cfg, rs
}

// TestGuaranteesRandomized re-checks both signature guarantees over random
// groups, exercising set, edit and ontology schemes together.
func TestGuaranteesRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		g, cfg, rs := randomGroup(rng, 3+rng.Intn(20))
		recs, err := cfg.NewRecords(g)
		if err != nil {
			t.Fatal(err)
		}
		ctx := NewContext(cfg, recs, rs)
		var preds []rules.Predicate
		var sides []bool // true = similar side
		for _, r := range rs.Positive {
			for _, p := range r.Predicates {
				preds, sides = append(preds, p), append(sides, true)
			}
		}
		for _, r := range rs.Negative {
			for _, p := range r.Predicates {
				preds, sides = append(preds, p), append(sides, false)
			}
		}
		for pi, p := range preds {
			for i := range recs {
				for j := i + 1; j < len(recs); j++ {
					si := ctx.Signatures(p, recs[i])
					sj := ctx.Signatures(p, recs[j])
					wild := hasUniversal(si) || hasUniversal(sj)
					if sides[pi] {
						if p.Eval(recs[i], recs[j]) && !wild && !shares(si, sj) {
							t.Fatalf("trial %d: similar-side violation on %v for (%d,%d)", trial, p, i, j)
						}
					} else {
						if !wild && !shares(si, sj) && !p.Eval(recs[i], recs[j]) {
							t.Fatalf("trial %d: dissimilar-side violation on %v for (%d,%d)", trial, p, i, j)
						}
					}
				}
			}
		}
	}
}

// TestCandidatesCompleteRandomized: index candidates cover all satisfied
// pairs on random groups.
func TestCandidatesCompleteRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		g, cfg, rs := randomGroup(rng, 3+rng.Intn(25))
		recs, err := cfg.NewRecords(g)
		if err != nil {
			t.Fatal(err)
		}
		ctx := NewContext(cfg, recs, rs)
		for _, rule := range rs.Positive {
			ix := BuildPositive(ctx, rule, recs)
			cands := make(map[[2]int]bool)
			for _, c := range ix.Candidates() {
				cands[[2]int{c.I, c.J}] = true
			}
			for i := range recs {
				for j := i + 1; j < len(recs); j++ {
					if rule.Eval(recs[i], recs[j]) && !cands[[2]int{i, j}] {
						t.Fatalf("trial %d rule %s: pair (%d,%d) satisfied but not candidate",
							trial, rule.Name, i, j)
					}
				}
			}
		}
	}
}

// TestNegativeFilterSoundRandomized: PartitionMustSatisfy never lies — when
// it returns true, some (indeed every) pair satisfies the rule.
func TestNegativeFilterSoundRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		g, cfg, rs := randomGroup(rng, 4+rng.Intn(16))
		recs, err := cfg.NewRecords(g)
		if err != nil {
			t.Fatal(err)
		}
		ctx := NewContext(cfg, recs, rs)
		mid := len(recs) / 2
		pivot, rest := recs[:mid], recs[mid:]
		if len(pivot) == 0 || len(rest) == 0 {
			continue
		}
		for _, rule := range rs.Negative {
			nf := BuildNegative(ctx, rule, pivot)
			if nf.PartitionMustSatisfy(rest) {
				for _, e := range rest {
					for _, p := range pivot {
						if !rule.Eval(e, p) {
							t.Fatalf("trial %d rule %s: filter claimed certain but pair fails", trial, rule.Name)
						}
					}
				}
			}
			for _, e := range rest {
				pr := nf.Probe(e)
				if pr.Certain >= 0 {
					if !rule.Eval(e, pivot[pr.Certain]) {
						t.Fatalf("trial %d rule %s: probe certain pair fails verification", trial, rule.Name)
					}
				}
			}
		}
	}
}

// TestContextConcurrentReads asserts the concurrent-read guarantee the
// Context documents (and parallel DIME+ relies on): after NewContext,
// Signatures for every predicate of the rule set is a pure read, so
// concurrent calls are race-free and agree with a sequential baseline. The
// race detector (make check runs the suite with -race) turns any lazily
// populated cache left behind by NewContext into a failure here.
func TestContextConcurrentReads(t *testing.T) {
	_, recs, rs, ctx := buildScholar(t)
	var preds []rules.Predicate
	for _, r := range append(append([]rules.Rule(nil), rs.Positive...), rs.Negative...) {
		preds = append(preds, r.Predicates...)
	}
	// Sequential baseline on a fresh context (same construction is
	// deterministic, so cross-context signatures must match too).
	want := make(map[string][]string)
	key := func(pi, ri int) string { return fmt.Sprintf("%d/%d", pi, ri) }
	for pi, p := range preds {
		for ri, r := range recs {
			want[key(pi, ri)] = ctx.Signatures(p, r)
		}
	}
	const goroutines = 8
	errs := make(chan error, goroutines)
	for w := 0; w < goroutines; w++ {
		go func(w int) {
			for round := 0; round < 20; round++ {
				for pi, p := range preds {
					for ri, r := range recs {
						got := ctx.Signatures(p, r)
						if fmt.Sprint(got) != fmt.Sprint(want[key(pi, ri)]) {
							errs <- fmt.Errorf("goroutine %d: signatures diverged for predicate %d record %d: %v vs %v",
								w, pi, ri, got, want[key(pi, ri)])
							return
						}
					}
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < goroutines; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
