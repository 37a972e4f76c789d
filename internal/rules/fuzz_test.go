package rules

import (
	"math"
	"strings"
	"testing"

	"dime/internal/sim"
)

// FuzzParseRule drives the rule-DSL parser with arbitrary input. Two
// invariants: Parse never panics (garbage must come back as an error), and
// every accepted rule round-trips — rendering it with String() and
// re-parsing yields the same predicates. The seeds mix every preset rule
// shipped in internal/presets with the near-miss shapes the robustness test
// exercises.
func FuzzParseRule(f *testing.F) {
	seeds := []string{
		// Preset corpora (Scholar and DBGen rule tables).
		"ov(Authors) >= 2",
		"ov(Authors) >= 1 && on(Venue) >= 0.75",
		"ov(Authors) = 0",
		"ov(Authors) <= 1 && on(Venue) <= 0.25",
		"ov(Authors) <= 1 && jac(Title) <= 0.25",
		"eds(Title) >= 0.9",
		"jac(Title) >= 0.6 && ov(Authors) >= 2",
		"ed(Title) <= 3",
		"dice(Title) >= 0.5 && cos(Title) >= 0.5",
		// Near-misses and hostile shapes.
		"",
		"ov(Authors)",
		"ov(Authors) >=",
		"ov(Authors) = 1",
		"ov() >= 2",
		"zz(Authors) >= 2",
		"ov(Missing) >= 2",
		"on(Title) >= 0.5",
		"ov(Authors) >= NaN",
		"ov(Authors) >= Inf",
		"ov(Authors) >= -1",
		"ov(Authors) >= 1e309",
		"ov(Authors) >= 2 && ",
		"(( && ))",
		"ov(Aut)hors) >= 2",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	cfg := testConfig()
	f.Fuzz(func(t *testing.T, dsl string) {
		for _, kind := range []Kind{Positive, Negative} {
			r, err := Parse(cfg, "fuzz", kind, dsl)
			if err != nil {
				continue
			}
			if len(r.Predicates) == 0 {
				t.Fatalf("Parse(%q) accepted a rule with no predicates", dsl)
			}
			rendered := strings.TrimPrefix(r.String(), "fuzz: ")
			back, err := Parse(cfg, "fuzz", kind, rendered)
			if err != nil {
				t.Fatalf("round trip of %q failed: rendered %q, err %v", dsl, rendered, err)
			}
			if len(back.Predicates) != len(r.Predicates) {
				t.Fatalf("round trip of %q changed arity: %d vs %d", dsl, len(r.Predicates), len(back.Predicates))
			}
			for i := range r.Predicates {
				p, q := r.Predicates[i], back.Predicates[i]
				//lint:ignore float-threshold the DSL round trip is bit-exact by design (%g renders the shortest unique form)
				if p.Attr != q.Attr || p.Fn != q.Fn || p.Op != q.Op || p.Threshold != q.Threshold {
					t.Fatalf("round trip of %q changed predicate %d: %+v vs %+v", dsl, i, p, q)
				}
			}
		}
	})
}

// FuzzEditSimEval checks the banded eds verification in Predicate.Eval
// against the definition it replaces: for both operators, Eval must equal
// sim.AtLeast / sim.AtMost applied to the full-DP sim.EditSimilarity. The
// seeds cover thresholds of 0, 1, above 1, below 0 and non-finite, thresholds
// where (1−θ)·max(|a|,|b|) is an integer (the band edge), multi-byte and
// invalid UTF-8 values, and values longer than the 64-byte allocation-free
// path.
func FuzzEditSimEval(f *testing.F) {
	long := strings.Repeat("ab", 40)
	seeds := []struct {
		a, b  string
		theta float64
	}{
		{"", "", 1},
		{"", "abc", 0},
		{"kitten", "sitting", 0},
		{"sigmod", "sigmod", 1},
		{"abcd", "abcx", 0.75}, // (1−θ)·m = 1: s lands exactly on θ
		{"abcd", "abxy", 0.5},  // (1−θ)·m = 2
		{"abcdefghij", "abcdefghxy", 0.8},
		{"ICDE 2018", "ICDE2018", 0.9},
		{"VLDB", "Very Large Data Bases", 1.5},
		{"VLDB", "Very Large Data Bases", -0.5},
		{"VLDB", "VLDB", 1 + 1e-10},
		{"héllo wörld", "hello world", 0.8},
		{"日本語", "日本", 0.6},
		{"\xff\xfe", "\xfd\xfc", 1}, // invalid bytes all decode to U+FFFD
		{"a\xffb", "a\xfeb", 0.9},
		{long, long[1:] + "a", 0.9},
		{long, strings.Repeat("ba", 40), 0.5},
		{long + "é", long, 0.95},
		{"abc", "abd", math.NaN()},
		{"abc", "abd", math.Inf(1)},
		{"abc", "abd", math.Inf(-1)},
	}
	for _, s := range seeds {
		f.Add(s.a, s.b, s.theta)
	}
	f.Fuzz(func(t *testing.T, a, b string, theta float64) {
		if len(a) > 256 || len(b) > 256 {
			return // keep the full DP cheap
		}
		ra, rb := &Record{Joined: []string{a}}, &Record{Joined: []string{b}}
		s := sim.EditSimilarity(a, b)
		for _, op := range []Op{GE, LE} {
			want := sim.AtLeast(s, theta)
			if op == LE {
				want = sim.AtMost(s, theta)
			}
			p := Predicate{Fn: EditSim, Op: op, Threshold: theta}
			if got := p.Eval(ra, rb); got != want {
				t.Fatalf("eds(%q, %q) %v %g: Eval = %v, EditSimilarity %g says %v", a, b, op, theta, got, s, want)
			}
		}
	})
}
