package signature

import (
	"slices"
	"sort"

	"dime/internal/rules"
)

// Candidate is an unordered record pair (I < J) that shares signatures under
// a positive rule and therefore must be verified. Shared counts the shared
// signatures summed over the rule's predicates; the verification scheduler
// turns it into a similarity probability estimate.
type Candidate struct {
	I, J   int
	Shared int
}

// bitsetLimit is the group size up to which pair dedup uses a bitset
// (n² bits ≈ 256 MB at the limit); it is a variable only so tests can force
// the hash-set path.
var bitsetLimit = 45000

func pairKey(i, j int) uint64 {
	if i > j {
		i, j = j, i
	}
	return uint64(i)<<32 | uint64(uint32(j))
}

// PosIndex holds the inverted indexes of one positive rule over a group's
// records and produces the candidate pairs of DIME+'s filter step. A pair is
// a candidate iff for every predicate of the rule the two records share a
// signature (the tuple-signature semantics of Section IV-B) or one of them
// is a wildcard on that predicate.
//
// Candidate generation enumerates co-occurrence pairs only for the cheapest
// predicate (fewest expected pairs) and filters them against the remaining
// predicates by intersecting the two records' signature sets directly, so a
// rule with one selective predicate stays fast even when another predicate's
// inverted lists are long.
type PosIndex struct {
	// Rule is the positive rule the index serves.
	Rule rules.Rule

	n         int
	perPred   []predIndex
	sigCounts []int // total signatures per record across predicates
}

// predIndex is the inverted index of one predicate. Signatures are interned
// to dense int32 ids (first-seen order, deterministic), so per-pair
// intersection compares integers rather than strings.
type predIndex struct {
	ids       map[string]int32
	lists     [][]int   // signature id -> record indexes (ascending)
	sigs      [][]int32 // per record: its signature ids, sorted ascending
	wildcards []int     // records whose signature set contains Universal
	isWild    []bool
	pairEst   int // Σ len(list)² + wildcards·n — enumeration cost estimate
}

// BuildPositive constructs the signature index of a positive rule over all
// records of a group.
func BuildPositive(ctx *Context, rule rules.Rule, recs []*rules.Record) *PosIndex {
	ix := &PosIndex{Rule: rule, n: len(recs)}
	ix.perPred = make([]predIndex, len(rule.Predicates))
	ix.sigCounts = make([]int, len(recs))
	for pi, p := range rule.Predicates {
		pd := predIndex{
			ids:    make(map[string]int32),
			sigs:   make([][]int32, len(recs)),
			isWild: make([]bool, len(recs)),
		}
		// All per-record id sets share one arena sized by the total signature
		// count (an upper bound: wildcards are skipped), so the build costs
		// one allocation here instead of one per record.
		total := 0
		for _, r := range recs {
			total += len(ctx.Signatures(p, r))
		}
		backing := make([]int32, 0, total)
		for ri, r := range recs {
			sigs := ctx.Signatures(p, r)
			ix.sigCounts[ri] += len(sigs)
			start := len(backing)
			for _, s := range sigs {
				if s == Universal {
					pd.isWild[ri] = true
					continue
				}
				id, ok := pd.ids[s]
				if !ok {
					id = int32(len(pd.lists))
					pd.ids[s] = id
					pd.lists = append(pd.lists, nil)
				}
				backing = append(backing, id)
				pd.lists[id] = append(pd.lists[id], ri)
			}
			kept := backing[start:len(backing):len(backing)]
			slices.Sort(kept)
			pd.sigs[ri] = kept
			if pd.isWild[ri] {
				pd.wildcards = append(pd.wildcards, ri)
			}
		}
		for _, list := range pd.lists {
			pd.pairEst += len(list) * (len(list) - 1) / 2
		}
		pd.pairEst += len(pd.wildcards) * len(recs)
		ix.perPred[pi] = pd
	}
	return ix
}

// PairBound returns an upper bound on the number of candidates ForEach
// emits: the smallest per-predicate pair estimate, since ForEach enumerates
// only the pairs of that predicate's inverted lists and wildcards.
func (ix *PosIndex) PairBound() int {
	if len(ix.perPred) == 0 || ix.n < 2 {
		return 0
	}
	bound := ix.perPred[0].pairEst
	for _, pd := range ix.perPred[1:] {
		bound = min(bound, pd.pairEst)
	}
	return bound
}

// SigCount returns the total signature count of record i across the rule's
// predicates (used to estimate similarity probability).
func (ix *PosIndex) SigCount(i int) int { return ix.sigCounts[i] }

// sharedCount intersects the (sorted, interned) signature-id sets of records
// i and j on this predicate by a merge walk — no allocation, integer
// comparisons only. The second return value is true when the pair passes the
// predicate's filter (shares a signature or a wildcard is involved).
func (pd *predIndex) sharedCount(i, j int) (int, bool) {
	if pd.isWild[i] || pd.isWild[j] {
		return 0, true
	}
	a, b := pd.sigs[i], pd.sigs[j]
	n := 0
	for x, y := 0, 0; x < len(a) && y < len(b); {
		switch {
		case a[x] == b[y]:
			n++
			x++
			y++
		case a[x] < b[y]:
			x++
		default:
			y++
		}
	}
	return n, n > 0
}

// ForEach streams the candidate pairs of the rule in a deterministic order
// (base-predicate signatures sorted, then list position), calling fn once
// per unique pair. Pairs not visited cannot satisfy the rule. The Shared
// count sums shared signatures across all predicates.
func (ix *PosIndex) ForEach(fn func(Candidate)) {
	if len(ix.perPred) == 0 || ix.n < 2 {
		return
	}
	// Enumerate pairs for the predicate with the smallest pair estimate.
	base := 0
	for pi := range ix.perPred {
		if ix.perPred[pi].pairEst < ix.perPred[base].pairEst {
			base = pi
		}
	}
	bp := &ix.perPred[base]

	// Pair dedup: a bitset over i·n+j while the n² bits stay within ~256 MB
	// (n ≤ 45k). Beyond that a bitset is still the right call when the pair
	// estimate is large (a hash set with tens of millions of entries costs
	// far more than zeroing ~1–2 GB once); only large-n sparse runs use the
	// hash set.
	var bitset []uint64
	var seen map[uint64]struct{}
	denseBits := int64(ix.n)*int64(ix.n)/8 <= 2<<30 && bp.pairEst > 8_000_000
	if ix.n <= bitsetLimit || denseBits {
		bitset = make([]uint64, (ix.n*ix.n+63)/64)
	} else {
		seen = make(map[uint64]struct{}, bp.pairEst/2+1)
	}
	dup := func(i, j int) bool {
		if bitset != nil {
			bit := uint(i*ix.n + j)
			word, mask := bit/64, uint64(1)<<(bit%64)
			if bitset[word]&mask != 0 {
				return true
			}
			bitset[word] |= mask
			return false
		}
		key := pairKey(i, j)
		if _, ok := seen[key]; ok {
			return true
		}
		seen[key] = struct{}{}
		return false
	}
	emit := func(i, j, sharedBase int) {
		if i > j {
			i, j = j, i
		}
		if dup(i, j) {
			return
		}
		shared := sharedBase
		for pi := range ix.perPred {
			if pi == base {
				continue
			}
			c, pass := ix.perPred[pi].sharedCount(i, j)
			if !pass {
				return
			}
			shared += c
		}
		fn(Candidate{I: min(i, j), J: max(i, j), Shared: shared})
	}
	for _, list := range bp.lists {
		for a := 0; a < len(list); a++ {
			for b := a + 1; b < len(list); b++ {
				if list[a] == list[b] {
					continue
				}
				// Base shared count: re-intersect so duplicates across
				// several shared base signatures are counted once, at emit.
				c, _ := bp.sharedCount(list[a], list[b])
				emit(list[a], list[b], c)
			}
		}
	}
	for _, w := range bp.wildcards {
		for o := 0; o < ix.n; o++ {
			if o != w {
				emit(w, o, 0)
			}
		}
	}
}

// Candidates materializes ForEach's stream ordered by (I, J).
func (ix *PosIndex) Candidates() []Candidate {
	var out []Candidate
	ix.ForEach(func(c Candidate) { out = append(out, c) })
	sort.Slice(out, func(a, b int) bool {
		if out[a].I != out[b].I {
			return out[a].I < out[b].I
		}
		return out[a].J < out[b].J
	})
	return out
}

// NegFilter is the signature filter of one negative rule against the pivot
// partition P*: per-predicate inverted indexes over the pivot's records
// (Section IV-D). For a pair (e, e*), sharing no signature on every
// predicate proves φ−(e, e*) is true.
type NegFilter struct {
	// Rule is the negative rule the filter serves.
	Rule rules.Rule

	ctx     *Context
	pivot   []*rules.Record
	perPred []negPredIndex
}

type negPredIndex struct {
	lists     map[string][]int // signature -> positions within pivot slice
	wildcards []int
	sigUnion  map[string]struct{}
	anyWild   bool
}

// BuildNegative indexes the pivot partition's records under a negative rule.
func BuildNegative(ctx *Context, rule rules.Rule, pivot []*rules.Record) *NegFilter {
	nf := &NegFilter{Rule: rule, ctx: ctx, pivot: pivot}
	nf.perPred = make([]negPredIndex, len(rule.Predicates))
	for pi, p := range rule.Predicates {
		pd := negPredIndex{
			lists:    make(map[string][]int),
			sigUnion: make(map[string]struct{}),
		}
		for ri, r := range pivot {
			sigs := ctx.Signatures(p, r)
			for _, s := range sigs {
				if s == Universal {
					pd.wildcards = append(pd.wildcards, ri)
				} else {
					pd.lists[s] = append(pd.lists[s], ri)
					pd.sigUnion[s] = struct{}{}
				}
			}
		}
		pd.anyWild = len(pd.wildcards) > 0
		nf.perPred[pi] = pd
	}
	return nf
}

// PartitionMustSatisfy reports whether every pair (e ∈ part, e* ∈ pivot)
// provably satisfies the negative rule via signatures alone: for every
// predicate, the partition's signature union is disjoint from the pivot's
// and neither side has wildcards (lines 18–19 of Algorithm 2).
func (nf *NegFilter) PartitionMustSatisfy(part []*rules.Record) bool {
	if len(part) == 0 || len(nf.pivot) == 0 {
		return false
	}
	for pi, p := range nf.Rule.Predicates {
		pd := &nf.perPred[pi]
		if pd.anyWild {
			return false
		}
		for _, r := range part {
			for _, s := range nf.ctx.Signatures(p, r) {
				if s == Universal {
					return false
				}
				if _, shared := pd.sigUnion[s]; shared {
					return false
				}
			}
		}
	}
	return true
}

// ProbeResult describes one outside record probed against the pivot.
type ProbeResult struct {
	// Certain is the position (within the pivot slice) of some pivot record
	// whose pair with the probed record provably satisfies the rule, or -1
	// when no such record exists.
	Certain int
	// Shared maps pivot position -> shared-signature count summed over
	// predicates, for the pivot records that share something somewhere. Only
	// meaningful when Certain == -1.
	Shared map[int]int
}

// Probe checks one record of an outside partition against the pivot. If some
// pivot record shares no signatures with r on any predicate (and no
// wildcards interfere), the pair provably satisfies the rule and its pivot
// position is returned in Certain. Otherwise Shared carries the per-pivot
// shared counts used to order verification.
//
// Probe allocates its result map on every call; hot loops that probe many
// records against the same pivot should hold a ProbeScratch and call
// ProbeInto instead.
func (nf *NegFilter) Probe(r *rules.Record) ProbeResult {
	var sc ProbeScratch
	res := ProbeResult{Certain: nf.ProbeInto(r, &sc), Shared: make(map[int]int, sc.nonzero)}
	for pi, c := range sc.shared {
		if c != 0 {
			res.Shared[pi] = int(c)
		}
	}
	return res
}

// ProbeScratch holds the per-probe working buffers of ProbeInto so repeated
// probes against the same (or smaller) pivot allocate nothing. The zero value
// is ready to use; a scratch must not be shared between goroutines.
type ProbeScratch struct {
	matched []bool
	shared  []int32
	nonzero int
}

// SharedCount returns the shared-signature count of pivot position pi from
// the most recent ProbeInto (ProbeResult.Shared[pi], with 0 for absent keys).
func (sc *ProbeScratch) SharedCount(pi int) int { return int(sc.shared[pi]) }

// NonzeroShared returns the number of pivot positions with a nonzero shared
// count in the most recent ProbeInto — exactly len(ProbeResult.Shared) of the
// allocating Probe.
func (sc *ProbeScratch) NonzeroShared() int { return sc.nonzero }

// ProbeInto is Probe with caller-owned buffers: it returns the Certain pivot
// position (or -1) and leaves the per-pivot shared counts readable through
// sc. Results are identical to Probe's for the same inputs.
func (nf *NegFilter) ProbeInto(r *rules.Record, sc *ProbeScratch) int {
	n := len(nf.pivot)
	if cap(sc.matched) < n {
		sc.matched = make([]bool, n)
		sc.shared = make([]int32, n)
	}
	sc.matched = sc.matched[:n]
	sc.shared = sc.shared[:n]
	for i := range sc.matched {
		sc.matched[i] = false
		sc.shared[i] = 0
	}
	sc.nonzero = 0
	// matched[ri] = true when the pair (r, pivot[ri]) shares a signature (or
	// hits a wildcard) on at least one predicate and thus cannot be proven
	// dissimilar by the filter.
	selfWildAll := false
	for pi, p := range nf.Rule.Predicates {
		pd := &nf.perPred[pi]
		sigs := nf.ctx.Signatures(p, r)
		selfWild := false
		for _, s := range sigs {
			if s == Universal {
				selfWild = true
				continue
			}
			for _, ri := range pd.lists[s] {
				sc.matched[ri] = true
				if sc.shared[ri] == 0 {
					sc.nonzero++
				}
				sc.shared[ri]++
			}
		}
		if selfWild {
			selfWildAll = true
		}
		for _, ri := range pd.wildcards {
			sc.matched[ri] = true
		}
	}
	if selfWildAll {
		for ri := range sc.matched {
			sc.matched[ri] = true
		}
	}
	for ri, m := range sc.matched {
		if !m {
			return ri
		}
	}
	return -1
}
