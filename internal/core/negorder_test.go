package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dime/internal/entity"
	"dime/internal/rules"
	"dime/internal/signature"
)

// sortedFirstNegHit is the reference firstNegHit must reproduce: the same
// probe and benefits, but each entity's candidates fully sorted before
// verification. tied reports whether the verified list held equal benefits.
func sortedFirstNegHit(stats *Stats, nf *signature.NegFilter, neg rules.Rule,
	e *rules.Record, pivot []*rules.Record, opts Options, probe *signature.ProbeScratch) (hit int, tied bool) {

	if certain := nf.ProbeInto(e, probe); certain >= 0 {
		stats.CertainPairsBySignature++
		return certain, false
	}
	type negCand struct {
		p       int32
		benefit float32
	}
	nonzero := probe.NonzeroShared()
	var cands []negCand
	for pi, p := range pivot {
		prob := (float64(probe.SharedCount(pi)) + 0.5) / (float64(nonzero) + 1)
		cost := max(neg.Cost(e, p), 1)
		cands = append(cands, negCand{p: int32(pi), benefit: float32(1 / (cost * prob))})
	}
	if !opts.DisableBenefitOrder {
		slices.SortFunc(cands, func(a, b negCand) int {
			if c := cmp.Compare(b.benefit, a.benefit); c != 0 {
				return c
			}
			return cmp.Compare(a.p, b.p)
		})
	}
	for k, c := range cands {
		tied = tied || k > 0 && cmp.Compare(cands[k-1].benefit, c.benefit) == 0
		stats.NegativeVerified++
		if neg.Eval(e, pivot[c.p]) {
			return int(c.p), tied
		}
	}
	return -1, tied
}

// TestNegativeOrderMatchesFullSort runs plusMarkPartition, which sorts packed
// integer keys, against the comparator-sort reference on random
// groups drawn from a tiny vocabulary, so many pivot records tie on benefit
// and the pivot-position tie-break decides the witness. Stats, witness and
// pivot ID must match with and without DisableBenefitOrder.
func TestNegativeOrderMatchesFullSort(t *testing.T) {
	schema := entity.MustSchema("Name", "Tags")
	cfg := rules.NewConfig(schema).WithTokenMode("Name", rules.WordsMode)
	negs := []rules.Rule{
		rules.MustParse(cfg, "n1", rules.Negative, "ov(Tags) <= 1"),
		rules.MustParse(cfg, "n2", rules.Negative, "jac(Name) <= 0.4"),
		rules.MustParse(cfg, "n3", rules.Negative, "ov(Tags) <= 1 && eds(Name) <= 0.6"),
	}
	words := []string{"alpha", "beta", "gamma", "delta"}
	rng := rand.New(rand.NewSource(13))
	tiedLists := 0
	for trial := 0; trial < 1000; trial++ {
		g := entity.NewGroup("ties", schema)
		n := 6 + rng.Intn(24)
		for i := 0; i < n; i++ {
			name := words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))]
			tags := []string{words[rng.Intn(len(words))], words[rng.Intn(len(words))]}
			e, err := entity.NewEntity(schema, fmt.Sprintf("r%02d", i), [][]string{{name}, tags})
			if err != nil {
				t.Fatal(err)
			}
			g.MustAdd(e)
		}
		recs, err := cfg.NewRecords(g)
		if err != nil {
			t.Fatal(err)
		}
		neg := negs[trial%len(negs)]
		ctx := signature.NewContext(cfg, recs, rules.RuleSet{Negative: []rules.Rule{neg}})
		split := 2 + rng.Intn(n-3)
		pivot, part := recs[:split], recs[split:]
		nf := signature.BuildNegative(ctx, neg, pivot)
		for _, disable := range []bool{false, true} {
			opts := Options{DisableBenefitOrder: disable}
			var got, want Stats
			gw, gok := plusMarkPartition(&got, nf, neg, part, pivot, opts, &negScratch{})

			var probe signature.ProbeScratch
			var ww Witness
			wok := false
			for _, e := range part {
				hit, tied := sortedFirstNegHit(&want, nf, neg, e, pivot, opts, &probe)
				if tied {
					tiedLists++
				}
				if hit >= 0 {
					ww, wok = Witness{Rule: neg.Name, EntityID: e.Entity.ID, PivotID: pivot[hit].Entity.ID}, true
					break
				}
			}
			if got != want || gw != ww || gok != wok {
				t.Fatalf("trial %d (%s, DisableBenefitOrder=%v): key sort (%+v, %+v, %v), reference (%+v, %+v, %v)",
					trial, neg.Name, disable, got, gw, gok, want, ww, wok)
			}
		}
	}
	if tiedLists < 100 {
		t.Fatalf("only %d verified candidate lists held benefit ties; the test no longer forces the tie-break", tiedLists)
	}
}
