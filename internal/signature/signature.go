// Package signature implements DIME+'s filter step (Section IV of the
// paper): per-predicate signature generation for set-based, character-based
// and ontology-based similarity functions, in both the "similar side" used
// by positive rules (share a signature ⇒ candidate pair) and the "dissimilar
// side" used by negative rules (no shared signature ⇒ the predicate must
// hold), plus the inverted indexes built over those signatures.
//
// Guarantees, per predicate p and records a, b:
//
//   - similar side: if p.Eval(a, b) is true then Signatures(p, a) and
//     Signatures(p, b) intersect;
//   - dissimilar side: if Signatures(p, a) and Signatures(p, b) do NOT
//     intersect then p.Eval(a, b) is true.
//
// Set-based predicates use prefix signatures under a global
// document-frequency token ordering; character-based predicates use q-gram
// prefixes; ontology predicates use the τ-ancestor node signatures of
// Lemmas 4.1/4.2.
package signature

import (
	"math"

	"dime/internal/ontology"
	"dime/internal/rules"
	"dime/internal/tokenize"
)

// Universal is the signature emitted when a predicate is trivially satisfied
// by every pair (e.g. threshold 0 on the similar side): every entity shares
// it, so no pair is pruned.
const Universal = "\x00*"

// Context carries the group-level state signature generation needs: global
// token and q-gram orderings per attribute, and the global τ_min depths for
// ontology node signatures. Build one per group with NewContext.
//
// Concurrency: after NewContext returns, the context is read-only for every
// predicate of the rule set it was built with — NewContext precomputes the
// gram lists, gram orderings, τ_min values and ontology depth floors those
// predicates need, so Signatures and the NegFilter/PosIndex methods built on
// them may be called from multiple goroutines concurrently (parallel DIME+
// relies on this). Two exceptions, both single-goroutine by
// contract: Signatures on a predicate *outside* the original rule set may
// lazily build orderings, and the incremental Append/Accepts path mutates
// the context. Neither may run concurrently with other context use.
type Context struct {
	cfg       *rules.Config
	tokenOrd  []*tokenize.Ordering // per attribute
	gramOrd   map[gramKey]*tokenize.Ordering
	tauMin    map[tauKey]int
	minDepth  map[int]int            // per attribute: shallowest mapped node
	gramCache map[gramKey][][]string // per attribute+q: grams per record index
	// sortedTok caches, per attribute, every record's token list sorted by
	// the global ordering; the prefix signatures of all set predicates on
	// that attribute are subslices of it, so a rule set with several
	// thresholds over one attribute sorts (and allocates) once per record.
	sortedTok map[int][][]string
	// sigCache holds, per rule-set predicate, every record's signature set.
	// NewContext fills it eagerly so that DIME+'s filter phases — index
	// build, partition filtering, and the per-entity probes of the negative
	// phase — are pure lookups instead of recomputing (and reallocating)
	// signatures at every call. Entries are extended by Append.
	sigCache map[rules.Predicate][][]string
	records  []*rules.Record
}

// universalSigs is the shared one-element Universal signature set; callers
// treat signature sets as read-only, so every trivially-satisfied predicate
// can return the same backing array.
var universalSigs = []string{Universal}

type gramKey struct {
	attr int
	q    int
}

type tauKey struct {
	attr  int
	theta float64
}

// NewContext builds the signature context for a compiled group. The rule set
// determines which gram lengths and ontology thresholds need precomputation;
// signatures for predicates outside the rule set are still generated, just
// with lazily built orderings.
func NewContext(cfg *rules.Config, recs []*rules.Record, rs rules.RuleSet) *Context {
	c := &Context{
		cfg:       cfg,
		gramOrd:   make(map[gramKey]*tokenize.Ordering),
		tauMin:    make(map[tauKey]int),
		minDepth:  make(map[int]int),
		gramCache: make(map[gramKey][][]string),
		sortedTok: make(map[int][][]string),
		sigCache:  make(map[rules.Predicate][][]string),
		records:   recs,
	}
	nAttr := cfg.Schema.Len()
	c.tokenOrd = make([]*tokenize.Ordering, nAttr)
	for attr := 0; attr < nAttr; attr++ {
		docs := make([][]string, len(recs))
		for i, r := range recs {
			docs[i] = r.Tokens[attr]
		}
		c.tokenOrd[attr] = tokenize.BuildOrdering(docs)
	}
	for _, r := range rs.Positive {
		for _, p := range r.Predicates {
			c.prepare(p)
		}
	}
	for _, r := range rs.Negative {
		for _, p := range r.Predicates {
			c.prepare(p)
		}
	}
	return c
}

// prepare precomputes every lazily-built cache a predicate's signature
// generation can touch — and the predicate's per-record signature sets —
// so that Signatures is a pure read afterwards (the concurrent-read
// guarantee documented on Context).
func (c *Context) prepare(p rules.Predicate) {
	switch p.Fn {
	case rules.Overlap, rules.Jaccard, rules.Dice, rules.Cosine:
		c.sortedTokensFor(p.Attr)
	case rules.EditSim, rules.EditDist:
		c.gramsFor(p.Attr, qOf(p))
	case rules.Ontology:
		c.tauMinFor(p)
		// The dissimilar side signs with the group's depth floor; warm it
		// here so concurrent probes never race to write the cache.
		c.minDepthFor(p.Attr)
	}
	if _, ok := c.sigCache[p]; !ok {
		sets := make([][]string, len(c.records))
		for i, r := range c.records {
			sets[i] = c.computeSignatures(p, r)
		}
		c.sigCache[p] = sets
	}
}

// sortedTokensFor builds (once) the globally-ordered token lists of every
// record on an attribute.
func (c *Context) sortedTokensFor(attr int) [][]string {
	if s, ok := c.sortedTok[attr]; ok {
		return s
	}
	s := make([][]string, len(c.records))
	for i, r := range c.records {
		s[i] = c.tokenOrd[attr].Sorted(r.Tokens[attr])
	}
	c.sortedTok[attr] = s
	return s
}

func qOf(p rules.Predicate) int {
	if p.Q > 0 {
		return p.Q
	}
	return 2
}

// gramsFor builds (once) the q-gram lists for every record on an attribute
// and the document-frequency ordering over those grams.
func (c *Context) gramsFor(attr, q int) ([][]string, *tokenize.Ordering) {
	key := gramKey{attr, q}
	if g, ok := c.gramCache[key]; ok {
		return g, c.gramOrd[key]
	}
	grams := make([][]string, len(c.records))
	for i, r := range c.records {
		grams[i] = tokenize.QGrams(r.Joined[attr], q)
	}
	c.gramCache[key] = grams
	ord := tokenize.BuildOrdering(grams)
	c.gramOrd[key] = ord
	return grams, ord
}

// tauMinFor computes (once) the global τ_min for an ontology predicate's
// generation threshold over the group's mapped nodes.
func (c *Context) tauMinFor(p rules.Predicate) int {
	theta := genThreshold(p)
	key := tauKey{p.Attr, theta}
	if v, ok := c.tauMin[key]; ok {
		return v
	}
	nodes := make([]*ontology.Node, 0, len(c.records))
	for _, r := range c.records {
		nodes = append(nodes, r.Nodes[p.Attr])
	}
	v := ontology.TauMin(nodes, theta)
	c.tauMin[key] = v
	return v
}

// genThreshold maps a predicate to the similarity threshold its signatures
// are generated at. Similar-side predicates use their own threshold;
// dissimilar-side predicates use the smallest value strictly above σ
// (σ+1 for the integral overlap function, σ+ε for continuous similarities,
// σ−1 as the gram bound for edit distance).
func genThreshold(p rules.Predicate) float64 {
	const eps = 1e-9
	if similarSide(p) {
		return p.Threshold
	}
	switch p.Fn {
	case rules.Overlap:
		return p.Threshold + 1
	case rules.EditDist:
		// dissimilar side of a distance: ed ≥ σ; grams generated at bound σ−1.
		return p.Threshold - 1
	default:
		return p.Threshold + eps
	}
}

// similarSide reports whether the predicate asserts similarity (true for
// GE on similarity functions and LE on EditDist).
func similarSide(p rules.Predicate) bool {
	if p.Fn.DistanceLike() {
		return p.Op == rules.LE
	}
	return p.Op == rules.GE
}

// Signatures returns the signature set of a record w.r.t. one predicate.
// A nil result means the record can never be on the "sharing" side: for a
// similar-side predicate it can never satisfy it; for a dissimilar-side
// predicate it satisfies it against every partner.
//
// For predicates of the rule set the context was built with, the result is a
// cached slice shared across calls; callers must treat it as read-only.
func (c *Context) Signatures(p rules.Predicate, r *rules.Record) []string {
	if sets, ok := c.sigCache[p]; ok && r.Index >= 0 && r.Index < len(sets) && c.records[r.Index] == r {
		return sets[r.Index]
	}
	return c.computeSignatures(p, r)
}

// computeSignatures generates a record's signature set from scratch; the
// sigCache fill and records outside the context go through it.
func (c *Context) computeSignatures(p rules.Predicate, r *rules.Record) []string {
	switch p.Fn {
	case rules.Overlap, rules.Jaccard, rules.Dice, rules.Cosine:
		return c.setSignatures(p, r)
	case rules.EditSim, rules.EditDist:
		return c.gramSignatures(p, r)
	case rules.Ontology:
		return c.ontologySignatures(p, r)
	default:
		return nil
	}
}

// setSignatures returns the prefix signature of the record's token set under
// the global document-frequency ordering. The per-side overlap lower bound t
// follows the function family; the prefix keeps the first len−t+1 tokens.
func (c *Context) setSignatures(p rules.Predicate, r *rules.Record) []string {
	tokens := r.Tokens[p.Attr]
	theta := genThreshold(p)
	if theta <= 0 {
		return universalSigs
	}
	n := len(tokens)
	t := overlapBound(p.Fn, theta, n)
	if t < 1 {
		return universalSigs
	}
	k := n - t + 1
	if k <= 0 {
		return nil
	}
	// Records of the context share one globally-sorted token list per
	// attribute; every threshold's prefix is a subslice of it.
	if s := c.sortedTok[p.Attr]; r.Index >= 0 && r.Index < len(s) && c.records[r.Index] == r {
		return s[r.Index][:k]
	}
	sorted := c.tokenOrd[p.Attr].Sorted(tokens)
	return sorted[:k]
}

// overlapBound returns the guaranteed minimum overlap t for a record of n
// tokens when the set similarity is ≥ theta. The ceil is taken with a small
// negative epsilon so exact products (0.75·4) do not round up; rounding t
// down only lengthens the prefix, preserving completeness.
func overlapBound(fn rules.Func, theta float64, n int) int {
	ceil := func(x float64) int { return int(math.Ceil(x - 1e-9)) }
	switch fn {
	case rules.Overlap:
		return ceil(theta)
	case rules.Jaccard:
		return ceil(theta * float64(n))
	case rules.Dice:
		return ceil(theta * float64(n) / 2)
	case rules.Cosine:
		return ceil(theta * theta * float64(n))
	default:
		return 1
	}
}

// gramSignatures returns the q-gram prefix signature for edit-based
// predicates: for an edit-distance bound b, values within b edits share a
// gram among the first q·b+1 grams (Gravano et al.).
func (c *Context) gramSignatures(p rules.Predicate, r *rules.Record) []string {
	q := qOf(p)
	gramsAll, ord := c.gramsFor(p.Attr, q)
	var grams []string
	if r.Index >= 0 && r.Index < len(gramsAll) {
		grams = gramsAll[r.Index]
	} else {
		grams = tokenize.QGrams(r.Joined[p.Attr], q)
	}
	bound := editBound(p, len([]rune(r.Joined[p.Attr])))
	if bound < 0 {
		// Dissimilar side with σ ≤ 0 edits: the predicate is trivially true
		// against every partner; a bound of 0 keeps exact-match pruning.
		bound = 0
	}
	k := q*bound + 1
	grams = tokenize.Dedup(append([]string(nil), grams...))
	if len(grams) < k {
		// The q-gram count guarantee is vacuous for strings this short
		// (fewer than q·b+1 grams): emit the wildcard so the record pairs
		// with everything instead of being pruned incorrectly.
		return universalSigs
	}
	ord.Sort(grams)
	return grams[:k]
}

// editBound converts an edit predicate's generation threshold to an integer
// edit-distance bound for a value of rune length n.
func editBound(p rules.Predicate, n int) int {
	theta := genThreshold(p)
	switch p.Fn {
	case rules.EditDist:
		return int(theta)
	case rules.EditSim:
		if theta <= 0 {
			return n // universal-ish: keep all grams
		}
		if theta > 1 {
			return 0
		}
		// sim ≥ θ ⇒ ed ≤ (1−θ)·max and max ≤ n/θ ⇒ ed ≤ (1−θ)·n/θ.
		return int(math.Floor((1-theta)*float64(n)/theta + 1e-9))
	default:
		return 0
	}
}

// ontologySignatures returns the node signatures of the record's mapped
// node. On the similar side they are the τ-ancestor node signatures of
// Lemma 4.2: nodes with similarity ≥ θ share their ancestor at depth
// min(τ_n, τ_min).
//
// On the dissimilar side the τ scheme is sound but weak (for small σ it
// degenerates to the root, which everything shares). We instead sign with
// the ancestor at depth d = 1 + ⌊σ·minDepth⌋, where minDepth is the
// shallowest mapped node in the group: if two nodes of depths d_a, d_b ≥ d
// have different ancestors at depth d, their LCA has depth ≤ d−1, so their
// similarity is at most 2(d−1)/(d_a+d_b) ≤ (d−1)/minDepth ≤ σ — exactly the
// "no shared signature ⇒ predicate true" guarantee the negative filter
// needs. Nodes shallower than d emit the wildcard.
func (c *Context) ontologySignatures(p rules.Predicate, r *rules.Record) []string {
	node := r.Nodes[p.Attr]
	if node == nil {
		return nil
	}
	if similarSide(p) {
		theta := p.Threshold
		if theta <= 0 {
			return universalSigs
		}
		tmin := c.tauMinFor(p)
		sig := ontology.NodeSignature(node, theta, tmin)
		if sig == nil {
			return nil
		}
		return []string{sig.String()}
	}
	sigma := p.Threshold
	minDepth := c.minDepthFor(p.Attr)
	d := 1 + int(math.Floor(sigma*float64(minDepth)+1e-9))
	if node.Depth < d {
		return universalSigs
	}
	sig := node.AncestorAt(d)
	if sig == nil {
		return universalSigs
	}
	return []string{sig.String()}
}

// minDepthFor returns (and caches) the minimum depth of the group's mapped
// nodes on an attribute; attributes with no mapped nodes yield 1.
func (c *Context) minDepthFor(attr int) int {
	if v, ok := c.minDepth[attr]; ok {
		return v
	}
	min := math.MaxInt32
	for _, r := range c.records {
		if n := r.Nodes[attr]; n != nil && n.Depth < min {
			min = n.Depth
		}
	}
	if min == math.MaxInt32 {
		min = 1
	}
	c.minDepth[attr] = min
	return min
}
