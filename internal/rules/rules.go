// Package rules defines DIME's positive and negative rules: conjunctions of
// similarity predicates over the attributes of a multi-valued relation
// (Section II of the paper).
//
// A positive rule ϕ+(e, e') = ⋀ f_i(A_i) ≥ θ_i evaluates to true when the
// two entities are similar enough to be categorized together; a negative
// rule φ−(e, e') = ⋀ f_i(A_i) ≤ σ_i evaluates to true when they must not be.
//
// Predicates evaluate against Records — precomputed per-entity views holding
// tokens, joined strings, and ontology-node mappings — so that repeated rule
// application over a group never re-tokenizes.
package rules

import (
	"fmt"
	"math"
	"strings"
	"unicode/utf8"

	"dime/internal/entity"
	"dime/internal/ontology"
	"dime/internal/sim"
)

// Func identifies a similarity function family.
type Func int

// Similarity function identifiers. Overlap counts common tokens (thresholds
// are integral); Jaccard, Dice, Cosine, EditSim and Ontology are in [0, 1];
// EditDist is a distance (lower means more similar).
const (
	Overlap Func = iota
	Jaccard
	Dice
	Cosine
	EditSim
	EditDist
	Ontology
)

// String returns the DSL name of the function.
func (f Func) String() string {
	switch f {
	case Overlap:
		return "ov"
	case Jaccard:
		return "jac"
	case Dice:
		return "dice"
	case Cosine:
		return "cos"
	case EditSim:
		return "eds"
	case EditDist:
		return "ed"
	case Ontology:
		return "on"
	default:
		return fmt.Sprintf("Func(%d)", int(f))
	}
}

// DistanceLike reports whether lower values of the function mean more
// similar (true only for EditDist).
func (f Func) DistanceLike() bool { return f == EditDist }

// Op is a predicate comparison operator.
type Op int

// Comparison operators for predicates.
const (
	GE Op = iota // f(A) ≥ θ
	LE           // f(A) ≤ σ
)

// String returns the operator's DSL spelling.
func (o Op) String() string {
	if o == GE {
		return ">="
	}
	return "<="
}

// Predicate is a single f_i(A_i) op θ_i term of a rule.
type Predicate struct {
	// Attr is the attribute index in the schema.
	Attr int
	// AttrName is the attribute name, kept for display and DSL round-trips.
	AttrName string
	// Fn is the similarity function.
	Fn Func
	// Op compares the similarity against Threshold (GE for positive-rule
	// predicates, LE for negative-rule predicates, by convention).
	Op Op
	// Threshold is θ (or σ). For Overlap and EditDist it holds an integer.
	Threshold float64
	// Tree is the ontology used when Fn == Ontology; nil otherwise.
	Tree *ontology.Tree
	// Q is the gram length for EditSim/EditDist signatures; 0 means 2.
	Q int
}

// Similarity computes the raw similarity (or distance, for EditDist) of the
// predicate's attribute between two records. Set functions use the sim
// kernels for duplicate-free inputs, which Record.Tokens is by construction.
func (p Predicate) Similarity(a, b *Record) float64 {
	switch p.Fn {
	case Overlap:
		return float64(sim.OverlapDistinct(a.Tokens[p.Attr], b.Tokens[p.Attr]))
	case Jaccard:
		return sim.JaccardDistinct(a.Tokens[p.Attr], b.Tokens[p.Attr])
	case Dice:
		return sim.DiceDistinct(a.Tokens[p.Attr], b.Tokens[p.Attr])
	case Cosine:
		return sim.CosineDistinct(a.Tokens[p.Attr], b.Tokens[p.Attr])
	case EditSim:
		return sim.EditSimilarity(a.Joined[p.Attr], b.Joined[p.Attr])
	case EditDist:
		return float64(sim.EditDistance(a.Joined[p.Attr], b.Joined[p.Attr]))
	case Ontology:
		if p.Tree == nil {
			return 0
		}
		return p.Tree.Similarity(a.Nodes[p.Attr], b.Nodes[p.Attr])
	default:
		return 0
	}
}

// Eval reports whether the predicate holds between two records. EditDist
// with Op GE/LE compares the raw distance; all other functions compare the
// similarity value. Both edit functions verify through the banded DP.
func (p Predicate) Eval(a, b *Record) bool {
	switch p.Fn {
	case EditDist:
		bound := int(p.Threshold)
		d, within := sim.EditDistanceBounded(a.Joined[p.Attr], b.Joined[p.Attr], bound)
		if p.Op == LE {
			return within && d <= bound
		}
		// GE over a distance: "at least θ edits apart".
		return !within || d >= bound
	case EditSim:
		return p.evalEditSim(a.Joined[p.Attr], b.Joined[p.Attr])
	}
	return p.holds(p.Similarity(a, b))
}

// holds compares a similarity value against the threshold. The comparisons
// are epsilon-tolerant: a similarity that is mathematically equal to the
// threshold can round to either side of it, and rule semantics must not
// depend on that noise.
func (p Predicate) holds(s float64) bool {
	if p.Op == GE {
		return sim.AtLeast(s, p.Threshold)
	}
	return sim.AtMost(s, p.Threshold)
}

// evalEditSim decides eds(a, b) against θ without the full O(|a|·|b|) DP.
// With m = max(|a|, |b|) in runes and band = ⌈(1−θ)·m⌉+1, a distance d above
// the band gives s = 1 − d/m < θ − 1/m, which no epsilon-tolerant GE accepts
// and every LE does. Inside the band the exact similarity goes through
// holds, as Similarity's value would.
func (p Predicate) evalEditSim(a, b string) bool {
	m := max(utf8.RuneCountInString(a), utf8.RuneCountInString(b))
	bound := m // every distance is at most m: the band is the whole DP
	if band := math.Ceil((1-p.Threshold)*float64(m)) + 1; band < float64(m) {
		bound = int(max(band, -1)) // -1 rejects every distance; NaN θ keeps m
	}
	d, within := sim.EditDistanceBounded(a, b, bound)
	if !within {
		return p.Op == LE
	}
	s := 1.0
	if m > 0 {
		s = 1 - float64(d)/float64(m)
	}
	return p.holds(s)
}

// Cost estimates the verification cost of evaluating the predicate on a pair
// of records, following the paper's cost model (Section IV-C): edit distance
// costs θ·min(|e|,|e'|); set similarity costs |e|+|e'|; ontology similarity
// costs d_e + d_e'.
func (p Predicate) Cost(a, b *Record) float64 {
	switch p.Fn {
	case EditSim, EditDist:
		la, lb := len(a.Joined[p.Attr]), len(b.Joined[p.Attr])
		m := la
		if lb < m {
			m = lb
		}
		t := p.Threshold
		if p.Fn == EditSim {
			t = (1 - p.Threshold) * float64(la+lb) / 2
		}
		if t < 1 {
			t = 1
		}
		return t * float64(m)
	case Ontology:
		da, db := 0, 0
		if n := a.Nodes[p.Attr]; n != nil {
			da = n.Depth
		}
		if n := b.Nodes[p.Attr]; n != nil {
			db = n.Depth
		}
		return float64(da + db)
	default:
		return float64(len(a.Tokens[p.Attr]) + len(b.Tokens[p.Attr]))
	}
}

// String renders the predicate in DSL form, e.g. "ov(Authors) >= 2".
func (p Predicate) String() string {
	return fmt.Sprintf("%s(%s) %s %g", p.Fn, p.AttrName, p.Op, p.Threshold)
}

// Rule is a named conjunction of predicates. Positive rules conventionally
// use GE predicates, negative rules LE predicates; Kind records the intent.
type Rule struct {
	// Name labels the rule for display (e.g. "phi+1").
	Name string
	// Kind distinguishes positive from negative rules.
	Kind Kind
	// Predicates is the conjunction body; empty rules evaluate to false.
	Predicates []Predicate
}

// Kind tags a rule as positive or negative.
type Kind int

// Rule kinds.
const (
	Positive Kind = iota
	Negative
)

// String returns "positive" or "negative".
func (k Kind) String() string {
	if k == Positive {
		return "positive"
	}
	return "negative"
}

// Eval reports whether all predicates hold between the two records. An empty
// rule evaluates to false (it carries no evidence either way).
func (r Rule) Eval(a, b *Record) bool {
	if len(r.Predicates) == 0 {
		return false
	}
	for _, p := range r.Predicates {
		if !p.Eval(a, b) {
			return false
		}
	}
	return true
}

// Cost is the summed predicate verification cost for a pair.
func (r Rule) Cost(a, b *Record) float64 {
	var c float64
	for _, p := range r.Predicates {
		c += p.Cost(a, b)
	}
	return c
}

// String renders the rule in DSL form, predicates joined by " && ".
func (r Rule) String() string {
	parts := make([]string, len(r.Predicates))
	for i, p := range r.Predicates {
		parts[i] = p.String()
	}
	body := strings.Join(parts, " && ")
	if r.Name == "" {
		return body
	}
	return r.Name + ": " + body
}

// RuleSet bundles the positive rules (applied as a disjunction) and the
// negative rules (applied in sequence as growing disjunctions).
type RuleSet struct {
	Positive []Rule
	Negative []Rule
}

// Validate checks that rule kinds and attribute indexes are consistent with
// the given schema and that ontology predicates carry trees.
func (rs RuleSet) Validate(schema *entity.Schema) error {
	check := func(r Rule, kind Kind) error {
		if r.Kind != kind {
			return fmt.Errorf("rules: rule %q has kind %v, expected %v", r.Name, r.Kind, kind)
		}
		if len(r.Predicates) == 0 {
			return fmt.Errorf("rules: rule %q has no predicates", r.Name)
		}
		for _, p := range r.Predicates {
			if p.Attr < 0 || p.Attr >= schema.Len() {
				return fmt.Errorf("rules: rule %q: attribute index %d out of range", r.Name, p.Attr)
			}
			if got := schema.Name(p.Attr); p.AttrName != "" && got != p.AttrName {
				return fmt.Errorf("rules: rule %q: attribute %d is %q, predicate says %q", r.Name, p.Attr, got, p.AttrName)
			}
			if p.Fn == Ontology && p.Tree == nil {
				return fmt.Errorf("rules: rule %q: ontology predicate on %q has no tree", r.Name, p.AttrName)
			}
			if p.Threshold < 0 {
				return fmt.Errorf("rules: rule %q: negative threshold %g", r.Name, p.Threshold)
			}
			if math.IsNaN(p.Threshold) || math.IsInf(p.Threshold, 0) {
				// NaN compares false with everything and ±Inf can never be
				// crossed, so such predicates silently evaluate to a constant.
				return fmt.Errorf("rules: rule %q: non-finite threshold %g", r.Name, p.Threshold)
			}
		}
		return nil
	}
	for _, r := range rs.Positive {
		if err := check(r, Positive); err != nil {
			return err
		}
	}
	for _, r := range rs.Negative {
		if err := check(r, Negative); err != nil {
			return err
		}
	}
	return nil
}
