package rules

import (
	"fmt"
	"strings"
	"testing"

	"dime/internal/entity"
)

// TestRecordTokensDistinct pins the invariant set predicates rely on:
// NewRecord and NewRecords emit duplicate-free Tokens in both token modes,
// for short lists and for lists past the linear-scan dedup size.
func TestRecordTokensDistinct(t *testing.T) {
	var many []string
	for i := 0; i < 40; i++ {
		many = append(many, fmt.Sprintf("Author %d", i%25))
	}
	values := [][][]string{
		{{"the data the Data THE data"}, {"Nan Tang", "nan tang", "Xu Chu", "NAN TANG"}, {"SIGMOD"}},
		{{strings.Repeat("clean data ", 30) + "system"}, many, {"VLDB"}},
		{{""}, {"Xu Chu", "Xu Chu"}, {""}},
	}
	cfg := testConfig()
	g := &entity.Group{Name: "dups", Schema: testSchema}
	for i, v := range values {
		e, err := entity.NewEntity(testSchema, fmt.Sprintf("e%d", i), v)
		if err != nil {
			t.Fatal(err)
		}
		g.Entities = append(g.Entities, e)
	}
	recs, err := cfg.NewRecords(g)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range g.Entities {
		single, err := cfg.NewRecord(e)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*Record{recs[i], single} {
			for attr, toks := range r.Tokens {
				seen := map[string]bool{}
				for _, tok := range toks {
					if seen[tok] {
						t.Fatalf("%s attribute %d: token %q repeated in %q", e.ID, attr, tok, toks)
					}
					seen[tok] = true
				}
			}
		}
	}
	if got := recs[0].Tokens[1]; len(got) != 2 {
		t.Fatalf("Authors tokens = %q, want the two distinct normalized names", got)
	}
	if got := recs[1].Tokens[1]; len(got) != 25 {
		t.Fatalf("Authors tokens = %d distinct, want 25", len(got))
	}
}

// TestEvalAllocationFree pins zero allocations for predicate verification on
// the kernels' allocation-free inputs: eds and ed on ASCII values of at most
// 64 bytes, and the set functions on short token lists.
func TestEvalAllocationFree(t *testing.T) {
	cfg := testConfig()
	a := mustRecord(t, cfg, "a", "NADEEF: A Commodity Data Cleaning System",
		[]string{"Nan Tang", "Xu Chu", "Ihab F. Ilyas", "Paolo Papotti"}, "SIGMOD")
	b := mustRecord(t, cfg, "b", "NADEEF: a commodity data cleaning system!",
		[]string{"Xu Chu", "Nan Tang", "Mourad Ouzzani"}, "VLDB")
	for _, p := range []Predicate{
		{Attr: 0, Fn: EditSim, Op: GE, Threshold: 0.9},
		{Attr: 0, Fn: EditSim, Op: GE, Threshold: 0.2},
		{Attr: 0, Fn: EditSim, Op: LE, Threshold: 0.5},
		{Attr: 0, Fn: EditDist, Op: LE, Threshold: 3},
		{Attr: 1, Fn: Overlap, Op: GE, Threshold: 2},
		{Attr: 1, Fn: Overlap, Op: LE, Threshold: 0},
		{Attr: 0, Fn: Jaccard, Op: GE, Threshold: 0.6},
		{Attr: 0, Fn: Dice, Op: GE, Threshold: 0.6},
		{Attr: 0, Fn: Cosine, Op: LE, Threshold: 0.25},
	} {
		if n := testing.AllocsPerRun(100, func() { p.Eval(a, b) }); n != 0 {
			t.Errorf("%v: Eval allocates %v times per call, want 0", p, n)
		}
	}
}
