package core

import (
	"fmt"
	"slices"

	"dime/internal/entity"
	"dime/internal/obs"
	"dime/internal/partition"
	"dime/internal/rules"
	"dime/internal/signature"
)

// Session maintains DIME+ state incrementally as a group grows — the
// natural mode for the paper's motivating applications, where a Scholar
// page or a product category gains entities over time. Step 1 (the
// partitioning) is maintained per added entity: only the new entity's
// candidate pairs are verified against the existing union–find. Steps 2 and
// 3 (pivot selection and negative rules) depend on global partition sizes,
// so Result recomputes them on demand.
//
// Correctness note: the signature context freezes its token/gram orderings
// and ontology depth floors at construction. Orderings stay valid for any
// addition (they remain one consistent global order); the depth floors can
// be invalidated by nodes shallower than anything seen before, in which
// case the session transparently rebuilds from scratch (Add reports whether
// it did).
type Session struct {
	opts    Options
	group   *entity.Group
	recs    []*rules.Record
	ctx     *signature.Context
	indexes []*signature.PosIndex
	uf      *partition.UnionFind
	stats   Stats
}

// NewSession runs the initial partitioning over the group and returns a
// session ready for Add calls. The group is referenced, not copied; do not
// mutate it except through Add.
func NewSession(g *entity.Group, opts Options) (*Session, error) {
	if err := opts.validate(g); err != nil {
		return nil, err
	}
	s := &Session{opts: opts, group: g}
	if err := s.rebuild(); err != nil {
		return nil, err
	}
	return s, nil
}

// rebuild constructs the full step-1 state from the current group contents.
func (s *Session) rebuild() error {
	run := obs.Start(s.opts.Probe, "session-rebuild", obs.A("group", s.group.Name))
	defer run.End()
	sp := run.StartSpan(obs.PhaseRecordCompile)
	recs, err := s.opts.Config.NewRecords(s.group)
	if err != nil {
		sp.End()
		return err
	}
	sp.Count("records", int64(len(recs)))
	sp.End()
	s.recs = recs
	sb := run.StartSpan(obs.PhaseSignatureBuild)
	s.ctx = signature.NewContext(s.opts.Config, recs, s.opts.Rules)
	s.uf = partition.New(len(recs))
	s.indexes = make([]*signature.PosIndex, len(s.opts.Rules.Positive))
	for ri, rule := range s.opts.Rules.Positive {
		rsp := sb.StartSpan(obs.PhaseSignatureBuild, obs.A("rule", rule.Name))
		s.indexes[ri] = signature.BuildPositive(s.ctx, rule, recs)
		rsp.End()
	}
	sb.End()
	// The session always verifies streaming, so verification interleaves
	// with candidate generation here; verified counters land on the
	// positive-verify span for consistency with DIMEPlus.
	before := s.stats
	cg := run.StartSpan(obs.PhaseCandidateGen)
	for ri := range s.indexes {
		s.indexes[ri].ForEach(func(c signature.Candidate) {
			s.verify(c.I, c.J, ri)
		})
	}
	cg.Count("candidates", s.stats.PositivePairsConsidered-before.PositivePairsConsidered)
	cg.End()
	pv := run.StartSpan(obs.PhasePositiveVerify)
	pv.Count("verified", s.stats.PositiveVerified-before.PositiveVerified)
	pv.Count("skipped-transitivity", s.stats.PositiveSkippedByTransitivity-before.PositiveSkippedByTransitivity)
	pv.End()
	return nil
}

// verify checks one candidate pair under one positive rule with the
// transitivity skip.
func (s *Session) verify(i, j, rule int) {
	s.stats.PositivePairsConsidered++
	if s.uf.Same(i, j) {
		s.stats.PositiveSkippedByTransitivity++
		return
	}
	s.stats.PositiveVerified++
	if s.opts.Rules.Positive[rule].Eval(s.recs[i], s.recs[j]) {
		s.uf.Union(i, j)
	}
}

// Add appends one entity to the group and folds it into the partitioning.
// It returns true when the addition forced a full rebuild (a new ontology
// node undercut the frozen signature depth floors) and false on the normal
// incremental path. The resulting partitions are identical either way.
func (s *Session) Add(e *entity.Entity) (rebuilt bool, err error) {
	if err := s.group.Add(e); err != nil {
		return false, err
	}
	run := obs.Start(s.opts.Probe, "session-add", obs.A("group", s.group.Name), obs.A("entity", e.ID))
	defer run.End()
	sp := run.StartSpan(obs.PhaseRecordCompile)
	rec, err := s.opts.Config.NewRecord(e)
	if err != nil {
		sp.End()
		// Roll the group back so the session stays consistent.
		s.group.Entities = s.group.Entities[:len(s.group.Entities)-1]
		return false, fmt.Errorf("core: compiling %q: %w", e.ID, err)
	}
	sp.End()
	if !s.ctx.Accepts(rec, s.opts.Rules) {
		run.Count("rebuilds", 1)
		return true, s.rebuild()
	}
	rec.Index = len(s.recs)
	s.recs = append(s.recs, rec)
	sb := run.StartSpan(obs.PhaseSignatureBuild)
	s.ctx.Append(rec)
	sb.End()
	if got := s.uf.Grow(); got != rec.Index {
		return false, fmt.Errorf("core: union-find index %d out of sync with record %d", got, rec.Index)
	}
	before := s.stats
	cg := run.StartSpan(obs.PhaseCandidateGen)
	for ri, ix := range s.indexes {
		for _, c := range ix.Add(s.ctx, rec) {
			s.verify(c.I, c.J, ri)
		}
	}
	cg.Count("candidates", s.stats.PositivePairsConsidered-before.PositivePairsConsidered)
	cg.End()
	pv := run.StartSpan(obs.PhasePositiveVerify)
	pv.Count("verified", s.stats.PositiveVerified-before.PositiveVerified)
	pv.Count("skipped-transitivity", s.stats.PositiveSkippedByTransitivity-before.PositiveSkippedByTransitivity)
	pv.End()
	return false, nil
}

// Size returns the current entity count.
func (s *Session) Size() int { return len(s.recs) }

// Result runs pivot selection and the negative rules over the current
// partitions and returns a full Result, identical to what a fresh DIMEPlus
// run would produce on the group. Its Stats are the session's cumulative
// positive counters plus this call's negative counters, so calling Result
// again without an Add returns the same Stats.
func (s *Session) Result() (*Result, error) {
	run := obs.Start(s.opts.Probe, "session-result", obs.A("group", s.group.Name))
	defer run.End()
	res := &Result{Group: s.group, Pivot: -1, Stats: s.stats}
	if len(s.recs) == 0 {
		return res, nil
	}
	res.Partitions = s.uf.Sets()
	applyNegativeRules(res, run, s.ctx, s.recs, s.opts)
	return res, nil
}

// Partitions returns the current partitions without running the negative
// phase (cheap; useful for monitoring as entities stream in).
func (s *Session) Partitions() [][]int {
	if s.uf == nil {
		return nil
	}
	return slices.Clone(s.uf.Sets())
}
