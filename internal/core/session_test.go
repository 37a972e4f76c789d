package core

import (
	"math/rand"
	"reflect"
	"testing"

	"dime/internal/datagen"
	"dime/internal/entity"
	"dime/internal/fixtures"
	"dime/internal/presets"
)

// TestSessionMatchesBatch is the incremental-maintenance invariant: feeding
// a group entity by entity yields exactly the partitions, levels and
// discoveries a from-scratch DIME+ run produces.
func TestSessionMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 15; trial++ {
		full, opts := randomGroup(rng, 8+rng.Intn(25))

		// Seed the session with the first two entities, stream the rest.
		seed := entity.NewGroup(full.Name, full.Schema)
		for _, e := range full.Entities[:2] {
			seed.MustAdd(e.Clone())
		}
		sess, err := NewSession(seed, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range full.Entities[2:] {
			if _, err := sess.Add(e.Clone()); err != nil {
				t.Fatal(err)
			}
		}
		incr, err := sess.Result()
		if err != nil {
			t.Fatal(err)
		}
		batch, err := DIMEPlus(full, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(partitionIDs(seed, incr.Partitions), partitionIDs(full, batch.Partitions)) {
			t.Fatalf("trial %d: partitions differ\nincremental: %v\nbatch:       %v",
				trial, partitionIDs(seed, incr.Partitions), partitionIDs(full, batch.Partitions))
		}
		for li := range batch.Levels {
			if !reflect.DeepEqual(incr.Levels[li].EntityIDs, batch.Levels[li].EntityIDs) {
				t.Fatalf("trial %d level %d: %v vs %v",
					trial, li, incr.Levels[li].EntityIDs, batch.Levels[li].EntityIDs)
			}
		}
	}
}

// TestSessionPaperExample streams Figure 1 and checks the paper's outcome.
func TestSessionPaperExample(t *testing.T) {
	full := fixtures.Figure1Group()
	opts := paperOptions()
	seed := entity.NewGroup(full.Name, full.Schema)
	for _, e := range full.Entities[:1] {
		seed.MustAdd(e.Clone())
	}
	sess, err := NewSession(seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range full.Entities[1:] {
		if _, err := sess.Add(e.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sess.Result()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Final(); !reflect.DeepEqual(got, []string{"e4", "e6"}) {
		t.Fatalf("final = %v", got)
	}
	if sess.Size() != 6 || len(sess.Partitions()) != 3 {
		t.Fatalf("size=%d partitions=%d", sess.Size(), len(sess.Partitions()))
	}
}

// TestSessionRebuildOnShallowNode: adding an entity that maps to a node
// shallower than anything seen forces (and survives) a full rebuild.
func TestSessionRebuildOnShallowNode(t *testing.T) {
	g := fixtures.Figure1Group()
	opts := paperOptions()
	sess, err := NewSession(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	// "Database" is a depth-3 node; all Figure-1 venues sit at depth 4, so
	// the frozen floors assume depth ≥ 4 and this addition must rebuild.
	e, err := entity.NewEntity(fixtures.ScholarSchema, "e7",
		[][]string{{"survey of everything"}, {"Nan Tang"}, {"Database"}})
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := sess.Add(e)
	if err != nil {
		t.Fatal(err)
	}
	if !rebuilt {
		t.Fatal("shallow ontology node should force a rebuild")
	}
	incr, err := sess.Result()
	if err != nil {
		t.Fatal(err)
	}
	batch, err := DIMEPlus(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(incr.Final(), batch.Final()) {
		t.Fatalf("after rebuild: %v vs batch %v", incr.Final(), batch.Final())
	}
}

func TestSessionAddErrors(t *testing.T) {
	g := fixtures.Figure1Group()
	sess, err := NewSession(g, paperOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate ID must fail and leave the session usable.
	dup, _ := entity.NewEntity(fixtures.ScholarSchema, "e1", [][]string{{"t"}, {"a"}, {"SIGMOD"}})
	if _, err := sess.Add(dup); err == nil {
		t.Fatal("duplicate ID should fail")
	}
	if sess.Size() != 6 {
		t.Fatalf("failed add changed size to %d", sess.Size())
	}
	if _, err := sess.Result(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionStreamLargePage sanity-checks the incremental path at a
// realistic page size (and implicitly that Add stays subquadratic enough to
// finish instantly).
func TestSessionStreamLargePage(t *testing.T) {
	full, opts, sess := streamLargePage(t)
	incr, err := sess.Result()
	if err != nil {
		t.Fatal(err)
	}
	batch, err := DIMEPlus(full, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(incr.Final(), batch.Final()) {
		t.Fatalf("incremental %v vs batch %v", incr.Final(), batch.Final())
	}
}

// streamLargePage seeds a session with the first five entities of a
// 150-publication Scholar page and streams the rest in; it returns the full
// group, the options and the session.
func streamLargePage(t *testing.T) (*entity.Group, Options, *Session) {
	t.Helper()
	full := datagen.Scholar(datagen.ScholarOptions{NumPubs: 150, ErrorRate: 0.08, Seed: 3})
	cfg := presets.ScholarConfig()
	opts := Options{Config: cfg, Rules: presets.ScholarRules(cfg)}
	seed := entity.NewGroup(full.Name, full.Schema)
	for _, e := range full.Entities[:5] {
		seed.MustAdd(e.Clone())
	}
	sess, err := NewSession(seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range full.Entities[5:] {
		if _, err := sess.Add(e.Clone()); err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
	}
	return full, opts, sess
}

// TestSessionResultRepeatable calls Result twice on an unchanged session:
// the second call must return the same Stats, levels and witnesses, not
// add the negative phase's counters to the first call's.
func TestSessionResultRepeatable(t *testing.T) {
	_, _, sess := streamLargePage(t)
	first, err := sess.Result()
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.NegativeVerified == 0 {
		t.Fatal("the negative phase verified nothing; the test cannot see a doubled counter")
	}
	second, err := sess.Result()
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats != second.Stats {
		t.Errorf("Stats changed between calls:\nfirst:  %+v\nsecond: %+v", first.Stats, second.Stats)
	}
	if !reflect.DeepEqual(first.Levels, second.Levels) {
		t.Errorf("levels changed between calls:\nfirst:  %+v\nsecond: %+v", first.Levels, second.Levels)
	}
	if !reflect.DeepEqual(first.Witnesses, second.Witnesses) {
		t.Errorf("witnesses changed between calls:\nfirst:  %+v\nsecond: %+v", first.Witnesses, second.Witnesses)
	}
}
