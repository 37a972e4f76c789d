// Package core implements the paper's primary contribution: the rule-based
// framework DIME (Algorithm 1) and its signature-accelerated variant DIME+
// (Algorithm 2) for discovering mis-categorized entities in a group.
//
// Both algorithms run the same three steps:
//
//  1. apply the positive rules as a disjunction, with transitivity, to
//     compute disjoint partitions of the group;
//  2. take the largest partition as the pivot partition P*;
//  3. apply the negative rules in sequence (φ−1, then φ−1 ∨ φ−2, ...) to mark
//     non-pivot partitions whose entities are provably dissimilar from P*.
//
// The per-prefix outputs form a monotone "scrollbar" (Figure 3): each level
// is a superset of the previous one, so a user can slide between conservative
// and aggressive suggestions.
package core

import (
	"fmt"
	"sort"

	"dime/internal/entity"
	"dime/internal/obs"
	"dime/internal/rules"
)

// Options configures a discovery run. Config and Rules are required; the
// Disable* switches exist for the ablation benchmarks and default to off.
type Options struct {
	// Config compiles entities into records (token modes, ontology trees).
	Config *rules.Config
	// Rules holds the positive and negative rules.
	Rules rules.RuleSet
	// DisableTransitivitySkip makes DIME+ verify candidate pairs even when
	// union–find already places them in one partition (ablation).
	DisableTransitivitySkip bool
	// DisableBenefitOrder makes DIME+ process candidates in arrival order
	// instead of benefit order (ablation).
	DisableBenefitOrder bool
	// BenefitSortLimit caps the candidate count DIME+ sorts globally by
	// benefit; larger candidate sets are verified streaming (transitivity
	// still skips the bulk, and the results are identical). Zero and
	// negative values both select the default of 32768; use a small
	// positive limit (e.g. 1) to force streaming verification.
	BenefitSortLimit int
	// IntraWorkers is ignored: one DIME+ run is one goroutine, and
	// DiscoverAll's pool runs groups in parallel. The field stays only
	// because the benchmark module (bench/) still sets it; the next change
	// to that module drops those settings and then this field.
	IntraWorkers int
	// Probe receives phase spans (record compilation, signature build,
	// candidate generation, positive verify, negative filter, negative
	// verify) and work counters for observability. Nil — the default —
	// disables instrumentation on a no-op fast path. A probe shared across
	// concurrent runs (DiscoverAll's pool, or a server's jobs) must be safe
	// for concurrent use; the probes in internal/obs all are.
	Probe obs.Probe
}

// Level is one scrollbar position: the cumulative output of the negative
// rule prefix φ−1 ∨ ... ∨ φ−k.
type Level struct {
	// RuleName names the rule that was added at this level.
	RuleName string
	// PartitionIndexes lists the partitions (by index into Result.Partitions)
	// marked mis-categorized at this level, cumulatively, ascending.
	PartitionIndexes []int
	// EntityIDs lists the discovered mis-categorized entity IDs at this
	// level, cumulatively, sorted.
	EntityIDs []string
}

// Witness explains why a partition was marked mis-categorized: which
// negative rule fired for which (partition entity, pivot entity) pair — the
// evidence a review UI shows next to each suggestion. A partition proven by
// signature disjointness alone carries the rule name with empty IDs (every
// pair is a witness in that case).
type Witness struct {
	// Rule is the negative rule that matched.
	Rule string
	// EntityID is the partition member of the witnessing pair ("" when the
	// whole partition was proven by signatures).
	EntityID string
	// PivotID is the pivot member of the witnessing pair ("" when proven by
	// signatures).
	PivotID string
}

// Stats counts the work a run performed; the ablation benches compare them.
type Stats struct {
	// PositivePairsConsidered counts (pair, rule) combinations examined.
	PositivePairsConsidered int64
	// PositiveVerified counts positive-rule predicate evaluations on pairs.
	PositiveVerified int64
	// PositiveSkippedByTransitivity counts candidates skipped because
	// union–find already had them together.
	PositiveSkippedByTransitivity int64
	// NegativeVerified counts negative-rule evaluations on pairs.
	NegativeVerified int64
	// PartitionsFilteredBySignature counts partitions proven mis-categorized
	// by signature disjointness alone (no verification).
	PartitionsFilteredBySignature int64
	// CertainPairsBySignature counts probes that proved a pair dissimilar
	// without verification.
	CertainPairsBySignature int64
}

// Add accumulates other into s field-wise; batch callers use it to fold
// per-group stats into one aggregate.
func (s *Stats) Add(other Stats) {
	s.PositivePairsConsidered += other.PositivePairsConsidered
	s.PositiveVerified += other.PositiveVerified
	s.PositiveSkippedByTransitivity += other.PositiveSkippedByTransitivity
	s.NegativeVerified += other.NegativeVerified
	s.PartitionsFilteredBySignature += other.PartitionsFilteredBySignature
	s.CertainPairsBySignature += other.CertainPairsBySignature
}

// Result is the output of a discovery run.
type Result struct {
	// Group is the analyzed group.
	Group *entity.Group
	// Partitions holds the disjoint partitions as entity indexes into
	// Group.Entities; partitions are ordered by smallest member.
	Partitions [][]int
	// Pivot is the index into Partitions of the pivot partition.
	Pivot int
	// Levels holds the scrollbar levels, one per negative rule, in
	// application order.
	Levels []Level
	// Witnesses maps a marked partition's index to the evidence that marked
	// it. The witnessing pair may differ between DIME and DIME+ (they verify
	// in different orders); the marked set never does.
	Witnesses map[int]Witness
	// Stats describes the work performed.
	Stats Stats
}

// WitnessOf returns the evidence for a marked partition and whether the
// partition was marked at all.
func (r *Result) WitnessOf(partition int) (Witness, bool) {
	w, ok := r.Witnesses[partition]
	return w, ok
}

// MisCategorizedIDs returns the entity IDs discovered at scrollbar level
// `level` (0-based). Out-of-range levels clamp to the deepest one; a result
// with no levels yields nil.
func (r *Result) MisCategorizedIDs(level int) []string {
	if len(r.Levels) == 0 {
		return nil
	}
	if level < 0 {
		level = 0
	}
	if level >= len(r.Levels) {
		level = len(r.Levels) - 1
	}
	return r.Levels[level].EntityIDs
}

// Final returns the deepest level's discovered IDs (all negative rules
// applied).
func (r *Result) Final() []string { return r.MisCategorizedIDs(len(r.Levels) - 1) }

// PivotSize returns the size of the pivot partition (0 for empty results).
func (r *Result) PivotSize() int {
	if r.Pivot < 0 || r.Pivot >= len(r.Partitions) {
		return 0
	}
	return len(r.Partitions[r.Pivot])
}

// validate checks options before a run.
func (o *Options) validate(g *entity.Group) error {
	if o.Config == nil {
		return fmt.Errorf("core: options need a rules.Config")
	}
	if g == nil || g.Schema == nil {
		return fmt.Errorf("core: group is nil or has no schema")
	}
	if err := o.Rules.Validate(g.Schema); err != nil {
		return err
	}
	if len(o.Rules.Positive) == 0 {
		return fmt.Errorf("core: at least one positive rule is required")
	}
	if len(o.Rules.Negative) == 0 {
		return fmt.Errorf("core: at least one negative rule is required")
	}
	return nil
}

// pivotOf returns the index of the largest partition; ties break toward the
// partition with the smallest member index so results are deterministic.
func pivotOf(partitions [][]int) int {
	best, bestLen := -1, -1
	for i, p := range partitions {
		if len(p) > bestLen {
			best, bestLen = i, len(p)
		}
	}
	return best
}

// levelFrom builds a cumulative Level from the marked-partition set.
func levelFrom(g *entity.Group, partitions [][]int, marked map[int]bool, ruleName string) Level {
	lv := Level{RuleName: ruleName}
	for pi := range partitions {
		if marked[pi] {
			lv.PartitionIndexes = append(lv.PartitionIndexes, pi)
		}
	}
	sort.Ints(lv.PartitionIndexes)
	for _, pi := range lv.PartitionIndexes {
		for _, ei := range partitions[pi] {
			lv.EntityIDs = append(lv.EntityIDs, g.Entities[ei].ID)
		}
	}
	sort.Strings(lv.EntityIDs)
	return lv
}
