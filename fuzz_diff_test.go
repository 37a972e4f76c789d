package dime_test

import (
	"bytes"
	"testing"

	"dime"
	"dime/internal/difftest"
)

// fuzzRuleSet builds an overlap-only rule set over the decoded group's own
// schema: one positive rule and up to two negative rules on the first
// attributes. Overlap needs no token-mode or ontology configuration, so any
// decodable schema works; a schema whose attribute names the DSL cannot
// parse is reported as not usable.
func fuzzRuleSet(cfg *dime.Config, g *dime.Group) (dime.RuleSet, bool) {
	a0 := g.Schema.Attributes[0]
	pos, err := dime.ParseRule(cfg, "f+1", dime.Positive, "ov("+a0+") >= 1")
	if err != nil {
		return dime.RuleSet{}, false
	}
	neg, err := dime.ParseRule(cfg, "f-1", dime.Negative, "ov("+a0+") = 0")
	if err != nil {
		return dime.RuleSet{}, false
	}
	rs := dime.RuleSet{Positive: []dime.Rule{pos}, Negative: []dime.Rule{neg}}
	if g.Schema.Len() > 1 {
		a1 := g.Schema.Attributes[1]
		if neg2, err := dime.ParseRule(cfg, "f-2", dime.Negative,
			"ov("+a0+") <= 1 && ov("+a1+") = 0"); err == nil {
			rs.Negative = append(rs.Negative, neg2)
		}
	}
	return rs, true
}

// fuzzSeedCorpus encodes a few real groups as the JSON-lines corpus format
// the fuzzer mutates: the Figure 1 running example and a tiny two-attribute
// group with an isolated entity.
func fuzzSeedCorpus(f *testing.F) [][]byte {
	f.Helper()
	schema := dime.MustSchema("Title", "Authors", "Venue")
	fig1 := dime.NewGroup("Nan Tang", schema)
	add := func(g *dime.Group, s *dime.Schema, id string, values [][]string) {
		e, err := dime.NewEntity(s, id, values)
		if err != nil {
			f.Fatal(err)
		}
		if err := g.Add(e); err != nil {
			f.Fatal(err)
		}
	}
	add(fig1, schema, "e1", [][]string{{"t1"}, {"Xu Chu", "Ihab F. Ilyas", "Nan Tang"}, {"SIGMOD"}})
	add(fig1, schema, "e2", [][]string{{"t2"}, {"Nan Tang", "Jeffrey Xu Yu"}, {"ICDE"}})
	add(fig1, schema, "e4", [][]string{{"t4"}, {"Yunqing Xia", "NJ Tang"}, {"SIGIR"}})

	small := dime.MustSchema("A", "B")
	tiny := dime.NewGroup("tiny", small)
	add(tiny, small, "x1", [][]string{{"a", "b"}, {"k"}})
	add(tiny, small, "x2", [][]string{{"b", "c"}, {}})
	add(tiny, small, "x3", [][]string{{"z"}, {"q"}})

	var seeds [][]byte
	for _, groups := range [][]*dime.Group{{fig1}, {tiny}, {fig1, tiny}} {
		var buf bytes.Buffer
		if err := dime.WriteGroups(&buf, groups); err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	return seeds
}

// FuzzDiffDIMEPlus feeds arbitrary bytes through the corpus decoder and, for
// every decoded group small enough to brute-force, asserts the differential
// invariant of internal/difftest: DIME and DIME+ must agree on partitions,
// pivot, levels and marking rules. Inputs the pipeline legitimately rejects
// (undecodable corpora, unusable schemas, groups the record compiler
// refuses) are skipped; only a divergence or a panic fails.
func FuzzDiffDIMEPlus(f *testing.F) {
	for _, seed := range fuzzSeedCorpus(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		groups, err := dime.ReadGroups(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, g := range groups {
			if g.Schema == nil || g.Schema.Len() == 0 || len(g.Entities) == 0 || len(g.Entities) > 48 {
				continue
			}
			cfg := dime.NewConfig(g.Schema)
			rs, ok := fuzzRuleSet(cfg, g)
			if !ok {
				continue
			}
			// Probe once: a group the record compiler rejects (JSON can
			// encode value lists no Add call would accept) is a skip, not a
			// divergence.
			if _, err := dime.DiscoverBasic(g, dime.Options{Config: cfg, Rules: rs}); err != nil {
				continue
			}
			difftest.Check(t, difftest.Case{Name: "fuzz-" + g.Name, Group: g, Config: cfg, Rules: rs})
		}
	})
}
