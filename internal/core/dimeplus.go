package core

import (
	"math"
	"slices"

	"dime/internal/entity"
	"dime/internal/obs"
	"dime/internal/partition"
	"dime/internal/rules"
	"dime/internal/signature"
)

// DIMEPlus runs the signature-based algorithm (Algorithm 2). The filter step
// builds per-rule inverted indexes over prefix / q-gram / ontology-node
// signatures so only candidate pairs are verified; the verify step orders
// candidates by benefit (similarity probability over verification cost for
// positive rules, its reciprocal for negative rules) and exploits
// transitivity and early exit to skip work.
func DIMEPlus(g *entity.Group, opts Options) (*Result, error) {
	if err := opts.validate(g); err != nil {
		return nil, err
	}
	run := obs.Start(opts.Probe, "dime+", obs.A("group", g.Name))
	defer run.End()
	sp := run.StartSpan(obs.PhaseRecordCompile)
	recs, err := opts.Config.NewRecords(g)
	if err != nil {
		sp.End()
		return nil, err
	}
	sp.Count("records", int64(len(recs)))
	sp.End()
	res := &Result{Group: g, Pivot: -1}
	n := len(recs)
	if n == 0 {
		return res, nil
	}

	sb := run.StartSpan(obs.PhaseSignatureBuild)
	ctx := signature.NewContext(opts.Config, recs, opts.Rules)
	indexes := make([]*signature.PosIndex, len(opts.Rules.Positive))
	for ri, rule := range opts.Rules.Positive {
		rsp := sb.StartSpan(obs.PhaseSignatureBuild, obs.A("rule", rule.Name))
		indexes[ri] = signature.BuildPositive(ctx, rule, recs)
		rsp.End()
	}
	sb.End()

	// Step 1: candidates from the positive-rule signature indexes, verified
	// under transitivity. Small candidate sets are verified in global
	// benefit order (Algorithm 2 line 5); past the sort limit the candidates
	// are verified as they stream off the inverted lists — transitivity
	// skips the bulk either way and the resulting partitions are identical,
	// but sorting millions of candidates would cost more than it saves.
	uf := partition.New(n)
	perRuleCands := make([]int64, len(opts.Rules.Positive))
	pver := &posVerifier{
		opts: &opts, recs: recs, uf: uf, stats: &res.Stats,
		perRuleVerified: make([]int64, len(opts.Rules.Positive)),
	}
	sortLimit := opts.BenefitSortLimit
	if sortLimit <= 0 {
		sortLimit = 1 << 15
	}
	// Candidate generation: streaming verification (no benefit sort, or the
	// sort limit overflowed) interleaves here; its verified counters still
	// land on the positive-verify span below.
	cg := run.StartSpan(obs.PhaseCandidateGen)
	cands, sorting := pver.collect(indexes, sortLimit, perRuleCands)
	cg.Count("candidates", res.Stats.PositivePairsConsidered)
	for ri, rule := range opts.Rules.Positive {
		cg.Count("candidates/"+rule.Name, perRuleCands[ri])
	}
	cg.End()

	pv := run.StartSpan(obs.PhasePositiveVerify)
	if sorting {
		slices.SortFunc(cands, func(a, b posCand) int {
			switch {
			case a.benefit > b.benefit:
				return -1
			case a.benefit < b.benefit:
				return 1
			case a.i != b.i:
				return int(a.i) - int(b.i)
			case a.j != b.j:
				return int(a.j) - int(b.j)
			default:
				return int(a.rule) - int(b.rule)
			}
		})
		for _, pc := range cands {
			pver.add(pc)
		}
	}
	pv.Count("verified", res.Stats.PositiveVerified)
	pv.Count("skipped-transitivity", res.Stats.PositiveSkippedByTransitivity)
	for ri, rule := range opts.Rules.Positive {
		pv.Count("verified/"+rule.Name, pver.perRuleVerified[ri])
	}
	pv.End()
	res.Partitions = uf.Sets()

	// Steps 2 and 3: pivot partition, then the negative rules in sequence
	// with signature filtering (shared with Session.Result).
	applyNegativeRules(res, run, ctx, recs, opts)
	return res, nil
}

// posCand is one candidate pair under one positive rule, with the benefit
// DIME+ sorts by (similarity probability over verification cost).
type posCand struct {
	i, j    int32
	rule    int32
	benefit float64
}

// posVerifier runs positive-phase verification, one candidate at a time in
// the order collect or the benefit sort hands them over.
type posVerifier struct {
	opts  *Options
	recs  []*rules.Record
	uf    *partition.UnionFind
	stats *Stats

	perRuleVerified []int64
}

// add verifies one candidate: transitivity skip, stats, evaluate, union.
func (v *posVerifier) add(c posCand) {
	i, j, ri := int(c.i), int(c.j), int(c.rule)
	if !v.opts.DisableTransitivitySkip && v.uf.Same(i, j) {
		v.stats.PositiveSkippedByTransitivity++
		return
	}
	v.stats.PositiveVerified++
	v.perRuleVerified[ri]++
	if v.opts.Rules.Positive[ri].Eval(v.recs[i], v.recs[j]) {
		v.uf.Union(i, j)
	}
}

// collect generates the candidates of every positive-rule index, counting
// them per rule. With benefit ordering it ranks them into a buffer allocated
// once, sized by the indexes' PairBound and capped at sortLimit+1, and
// returns them for the caller to sort and verify. Without benefit ordering,
// or once more than sortLimit candidates arrive, it verifies them in arrival
// order as they stream and returns sorting == false.
func (v *posVerifier) collect(indexes []*signature.PosIndex, sortLimit int, perRuleCands []int64) (cands []posCand, sorting bool) {
	sorting = !v.opts.DisableBenefitOrder
	if sorting {
		bound := 0
		for _, ix := range indexes {
			bound += ix.PairBound()
		}
		cands = make([]posCand, 0, min(bound, sortLimit+1))
	}
	for ri, ix := range indexes {
		rule := v.opts.Rules.Positive[ri]
		ix.ForEach(func(c signature.Candidate) {
			v.stats.PositivePairsConsidered++
			perRuleCands[ri]++
			if !sorting {
				v.add(posCand{i: int32(c.I), j: int32(c.J), rule: int32(ri)})
				return
			}
			avg := float64(ix.SigCount(c.I)+ix.SigCount(c.J)) / 2
			if avg < 1 {
				avg = 1
			}
			prob := float64(c.Shared) / avg
			if prob <= 0 {
				prob = 1e-6 // wildcard-only candidates still need a rank
			}
			cost := rule.Cost(v.recs[c.I], v.recs[c.J])
			if cost < 1 {
				cost = 1
			}
			cands = append(cands, posCand{
				i: int32(c.I), j: int32(c.J), rule: int32(ri), benefit: prob / cost,
			})
			if len(cands) > sortLimit {
				// Too many to sort profitably: verify what we have in
				// arrival order and fall back to streaming.
				sorting = false
				for _, pc := range cands {
					v.add(pc)
				}
				cands = nil
			}
		})
	}
	return cands, sorting
}

// negKey packs one pivot record awaiting verification against a probed
// entity into an integer whose ascending order is the verification order:
// benefit 1/(C·P) descending, then pivot position ascending. Benefits are
// never negative or NaN (C ≥ 1 and P > 0 for validated rules), and the
// complemented bits of a non-negative float32 order inversely to its value.
func negKey(benefit float32, pos int) uint64 {
	return uint64(^math.Float32bits(benefit))<<32 | uint64(uint32(pos))
}

// negPos is the pivot position a negKey carries.
func negPos(k uint64) int { return int(uint32(k)) }

// negScratch bundles the buffers plusMarkPartition reuses across partitions
// and rules: the signature-probe scratch and the candidate keys. One scratch
// serves a whole run; the zero value is ready to use.
type negScratch struct {
	probe signature.ProbeScratch
	keys  []uint64
}

// plusMarkPartition probes each entity of an outside partition against the
// pivot. A probe that finds a provably dissimilar pivot record marks the
// partition at once; otherwise that entity's uncertain pairs are verified in
// benefit order 1/(C·P) — fewest shared signatures and cheapest verification
// first — with early exit on the first satisfied pair. Processing entity by
// entity keeps the memory footprint at O(|pivot|) and lets the common case
// (a genuinely mis-categorized partition) resolve after a handful of
// verifications. The scratch carries the probe and candidate buffers reused
// across partitions.
func plusMarkPartition(stats *Stats, nf *signature.NegFilter, neg rules.Rule,
	part, pivot []*rules.Record, opts Options, sc *negScratch) (Witness, bool) {

	for _, e := range part {
		if hit := firstNegHit(stats, nf, neg, e, pivot, opts, sc); hit >= 0 {
			return Witness{
				Rule:     neg.Name,
				EntityID: e.Entity.ID,
				PivotID:  pivot[hit].Entity.ID,
			}, true
		}
	}
	return Witness{}, false
}

// firstNegHit returns the position of the first pivot record that satisfies
// neg against e, or -1: a signature-certain pair if the probe finds one,
// else the first satisfied pair in verification order. The order is benefit
// descending, then pivot position ascending, unless DisableBenefitOrder keeps
// pivot order. Sorting the packed keys needs no comparator. Most probed
// entities satisfy no pair and verify every candidate (95–98% of those
// reaching the sort on the lib-batch benchmark), so ordering the candidates
// lazily for an early exit would not pay.
func firstNegHit(stats *Stats, nf *signature.NegFilter, neg rules.Rule,
	e *rules.Record, pivot []*rules.Record, opts Options, sc *negScratch) int {

	if certain := nf.ProbeInto(e, &sc.probe); certain >= 0 {
		stats.CertainPairsBySignature++
		return certain
	}
	keys := sc.keys[:0]
	// The probability estimate divides by the number of pivot records
	// sharing anything with e (the old Probe's len(Shared) map length).
	nonzero := sc.probe.NonzeroShared()
	for pi, p := range pivot {
		shared := sc.probe.SharedCount(pi)
		prob := (float64(shared) + 0.5) / (float64(nonzero) + 1)
		cost := neg.Cost(e, p)
		if cost < 1 {
			cost = 1
		}
		keys = append(keys, negKey(float32(1/(cost*prob)), pi))
	}
	sc.keys = keys // keep capacity growth for the next entity
	if !opts.DisableBenefitOrder {
		slices.Sort(keys)
	}
	for _, k := range keys {
		stats.NegativeVerified++
		if neg.Eval(e, pivot[negPos(k)]) {
			return negPos(k)
		}
	}
	return -1
}
