// Package difftest generates randomized discovery workloads and checks that
// the algorithms agree on them: DIME (Algorithm 1) and DIME+ (Algorithm 2)
// must produce the same partitions, pivot, scrollbar levels and marking
// rules, and DIME+ served over HTTP must produce byte-identical results —
// stats and witnesses included — to DIME+ in process (DiffServe).
//
// The package is the differential harness behind dime_difftest_test.go and
// FuzzDiffDIMEPlus at the repository root: tests build a Corpus of seeded
// cases (cycling the Scholar, Amazon and DBGen generators of
// internal/datagen) and run Check over each; fuzzing feeds decoded groups
// through the same Diff comparison. Failures always carry the case seed so a
// divergence reproduces from a one-line test filter.
package difftest

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"

	"dime/internal/core"
	"dime/internal/datagen"
	"dime/internal/entity"
	"dime/internal/obs"
	"dime/internal/presets"
	"dime/internal/rules"
)

// Case is one generated discovery workload: a group plus the configuration
// and rule set to run it under. Seed reproduces the group via the generator
// named in Name.
type Case struct {
	// Name identifies the case: ordinal, generator flavour, and size.
	Name string
	// Seed is the generator seed the group was built from.
	Seed int64
	// Group is the input group.
	Group *entity.Group
	// Config compiles the group's entities into records.
	Config *rules.Config
	// Rules is the positive/negative rule set to discover with.
	Rules rules.RuleSet
	// Probe, when non-nil, is attached to every run Diff performs, so the
	// harness can prove instrumentation (e.g. the flight recorder) does not
	// perturb results.
	Probe obs.Probe
}

// Corpus generates n cases deterministically from baseSeed, cycling the
// Scholar, Amazon and DBGen generators with randomized sizes (roughly 30–150
// entities per group) and error rates. Amazon corpora produce one group per
// category, so consecutive Amazon cases drain one corpus before a fresh one
// is generated.
func Corpus(n int, baseSeed int64) []Case {
	rng := rand.New(rand.NewSource(baseSeed))
	cases := make([]Case, 0, n)
	var amz *amazonPool
	for i := 0; i < n; i++ {
		seed := rng.Int63()
		switch i % 3 {
		case 0:
			cases = append(cases, scholarCase(i, rng, seed))
		case 1:
			if amz == nil || amz.exhausted() {
				amz = newAmazonPool(rng, seed)
			}
			cases = append(cases, amz.take(i))
		default:
			cases = append(cases, dbgenCase(i, rng, seed))
		}
	}
	return cases
}

// scholarCase builds one synthetic Scholar page case.
func scholarCase(i int, rng *rand.Rand, seed int64) Case {
	numPubs := 30 + rng.Intn(91) // 30–120 correct publications
	errRate := 0.05 + 0.25*rng.Float64()
	g := datagen.Scholar(datagen.ScholarOptions{NumPubs: numPubs, ErrorRate: errRate, Seed: seed})
	cfg := presets.ScholarConfig()
	return Case{
		Name:   fmt.Sprintf("%03d-scholar-n%d", i, len(g.Entities)),
		Seed:   seed,
		Group:  g,
		Config: cfg,
		Rules:  presets.ScholarRules(cfg),
	}
}

// dbgenCase builds one DBGen-style perturbed-cluster case.
func dbgenCase(i int, rng *rand.Rand, seed int64) Case {
	num := 40 + rng.Intn(111) // 40–150 entities
	errRate := 0.05 + 0.25*rng.Float64()
	g := datagen.DBGen(datagen.DBGenOptions{NumEntities: num, ErrorRate: errRate, Seed: seed})
	cfg := presets.DBGenConfig()
	return Case{
		Name:   fmt.Sprintf("%03d-dbgen-n%d", i, len(g.Entities)),
		Seed:   seed,
		Group:  g,
		Config: cfg,
		Rules:  presets.DBGenRules(cfg),
	}
}

// amazonPool hands out the groups of one generated Amazon corpus one case at
// a time; a corpus covers every category, so one generation feeds dozens of
// cases.
type amazonPool struct {
	seed  int64
	cfg   *rules.Config
	rs    rules.RuleSet
	pages []*entity.Group
	next  int
}

func newAmazonPool(rng *rand.Rand, seed int64) *amazonPool {
	per := 20 + rng.Intn(21) // 20–40 native products per category
	errRate := 0.05 + 0.25*rng.Float64()
	c := datagen.Amazon(datagen.AmazonOptions{ProductsPerCategory: per, ErrorRate: errRate, Seed: seed})
	cfg := presets.AmazonConfig(c.TrueTree, c.TrueMapper())
	return &amazonPool{seed: seed, cfg: cfg, rs: presets.AmazonRules(cfg), pages: c.Groups}
}

func (p *amazonPool) exhausted() bool { return p.next >= len(p.pages) }

func (p *amazonPool) take(i int) Case {
	g := p.pages[p.next]
	p.next++
	return Case{
		Name:   fmt.Sprintf("%03d-amazon-%s-n%d", i, g.Name, len(g.Entities)),
		Seed:   p.seed,
		Group:  g,
		Config: p.cfg,
		Rules:  p.rs,
	}
}

// TB is the subset of testing.TB the harness needs; both *testing.T and the
// fuzz-target T satisfy it.
type TB interface {
	Helper()
	Fatalf(format string, args ...any)
}

// Check runs the case through Diff and fails the test with the case name and
// seed on the first divergence, so any failure is reproducible offline.
func Check(t TB, c Case) {
	t.Helper()
	if err := c.Diff(); err != nil {
		t.Fatalf("case %s (seed %d): %v", c.Name, c.Seed, err)
	}
}

// Diff runs DIME and DIME+ over the case and returns an error describing the
// first divergence. They must agree semantically — partitions, pivot, every
// scrollbar level, and the marked partitions with their marking rules. Stats
// and witnessing pairs legitimately differ between the algorithms.
func (c Case) Diff() error {
	opts := core.Options{Config: c.Config, Rules: c.Rules, Probe: c.Probe}
	want, err := core.DIME(c.Group, opts)
	if err != nil {
		return fmt.Errorf("DIME: %w", err)
	}
	got, err := core.DIMEPlus(c.Group, opts)
	if err != nil {
		return fmt.Errorf("DIME+: %w", err)
	}
	if err := semanticDiff(want, got); err != nil {
		return fmt.Errorf("DIME vs DIME+: %w", err)
	}
	return nil
}

// semanticDiff compares the algorithm-independent output of two runs:
// partitions, pivot, levels, and marked partitions with their marking rules.
func semanticDiff(a, b *core.Result) error {
	if !reflect.DeepEqual(a.Partitions, b.Partitions) {
		return fmt.Errorf("partitions differ:\n  a: %v\n  b: %v", a.Partitions, b.Partitions)
	}
	if a.Pivot != b.Pivot {
		return fmt.Errorf("pivot differs: %d vs %d", a.Pivot, b.Pivot)
	}
	if !reflect.DeepEqual(a.Levels, b.Levels) {
		return fmt.Errorf("levels differ:\n  a: %+v\n  b: %+v", a.Levels, b.Levels)
	}
	for _, pi := range markedOf(a) {
		aw, bw := a.Witnesses[pi], b.Witnesses[pi]
		if aw.Rule != bw.Rule {
			return fmt.Errorf("partition %d marked by different rules: %q vs %q", pi, aw.Rule, bw.Rule)
		}
	}
	if la, lb := len(a.Witnesses), len(b.Witnesses); la != lb {
		return fmt.Errorf("witness counts differ: %d vs %d", la, lb)
	}
	return nil
}

// exactDiff requires two runs to be byte-identical, field by field so a
// failure names the diverging field instead of dumping two structs.
func exactDiff(a, b *core.Result) error {
	if err := semanticDiff(a, b); err != nil {
		return err
	}
	for _, pi := range markedOf(a) {
		if aw, bw := a.Witnesses[pi], b.Witnesses[pi]; aw != bw {
			return fmt.Errorf("witness for partition %d differs: %+v vs %+v", pi, aw, bw)
		}
	}
	if a.Stats != b.Stats {
		return fmt.Errorf("stats differ:\n  a: %+v\n  b: %+v", a.Stats, b.Stats)
	}
	return nil
}

// markedOf returns the sorted marked-partition indexes of a result.
func markedOf(r *core.Result) []int {
	out := make([]int, 0, len(r.Witnesses))
	for pi := range r.Witnesses {
		out = append(out, pi)
	}
	sort.Ints(out)
	return out
}
