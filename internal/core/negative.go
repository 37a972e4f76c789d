package core

import (
	"dime/internal/obs"
	"dime/internal/rules"
	"dime/internal/signature"
)

// applyNegativeRules runs pivot selection and the negative-rule sequence
// (steps 2–3 of Algorithm 2) over res.Partitions; DIMEPlus and
// Session.Result share it. For each negative rule the partition-level
// signature filter sweeps first (negative-filter phase: partitions whose
// signature unions are provably disjoint from the pivot's are marked without
// any verification), then the surviving partitions are probed and verified
// in benefit order (negative-verify phase). The two sub-passes touch
// disjoint partitions, so splitting them per rule changes neither the marked
// set nor the stats relative to the historical interleaved loop.
func applyNegativeRules(res *Result, run obs.Span, ctx *signature.Context, recs []*rules.Record, opts Options) {
	res.Pivot = pivotOf(res.Partitions)
	pivotIdx := res.Partitions[res.Pivot]
	pivotRecs := make([]*rules.Record, len(pivotIdx))
	for k, ei := range pivotIdx {
		pivotRecs[k] = recs[ei]
	}

	// Resolve each non-pivot partition's record slice once; the per-rule
	// passes below only read them.
	partRecs := make([][]*rules.Record, len(res.Partitions))
	for pi, part := range res.Partitions {
		if pi == res.Pivot {
			continue
		}
		rs := make([]*rules.Record, len(part))
		for k, ei := range part {
			rs[k] = recs[ei]
		}
		partRecs[pi] = rs
	}

	marked := make(map[int]bool)
	res.Witnesses = make(map[int]Witness)
	var survivors []int
	var sc negScratch
	for _, neg := range opts.Rules.Negative {
		fsp := run.StartSpan(obs.PhaseNegativeFilter, obs.A("rule", neg.Name))
		nf := signature.BuildNegative(ctx, neg, pivotRecs)
		filteredBefore := res.Stats.PartitionsFilteredBySignature
		survivors = survivors[:0]
		for pi := range res.Partitions {
			if pi == res.Pivot || marked[pi] {
				continue
			}
			if nf.PartitionMustSatisfy(partRecs[pi]) {
				marked[pi] = true
				res.Stats.PartitionsFilteredBySignature++
				res.Witnesses[pi] = Witness{Rule: neg.Name}
				continue
			}
			survivors = append(survivors, pi)
		}
		fsp.Count("partitions-filtered", res.Stats.PartitionsFilteredBySignature-filteredBefore)
		fsp.End()

		vsp := run.StartSpan(obs.PhaseNegativeVerify, obs.A("rule", neg.Name))
		verifiedBefore := res.Stats.NegativeVerified
		certainBefore := res.Stats.CertainPairsBySignature
		for _, pi := range survivors {
			if w, ok := plusMarkPartition(&res.Stats, nf, neg, partRecs[pi], pivotRecs, opts, &sc); ok {
				marked[pi] = true
				res.Witnesses[pi] = w
			}
		}
		vsp.Count("verified", res.Stats.NegativeVerified-verifiedBefore)
		vsp.Count("certain-pairs", res.Stats.CertainPairsBySignature-certainBefore)
		vsp.End()
		res.Levels = append(res.Levels, levelFrom(res.Group, res.Partitions, marked, neg.Name))
	}
}
