package dime_test

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"dime"
)

// shuffledFigure1 rebuilds the Figure 1 group with its entities inserted in
// a seed-determined order. Insertion order is the only source of
// nondeterminism a caller can introduce through the public API, so it is the
// axis the regression test perturbs.
func shuffledFigure1(t *testing.T, seed int64) (*dime.Group, dime.Options) {
	t.Helper()
	g, opts := buildFigure1(t)
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(g.Entities))
	shuffled := dime.NewGroup(g.Name, g.Schema)
	for _, i := range perm {
		if err := shuffled.Add(g.Entities[i]); err != nil {
			t.Fatal(err)
		}
	}
	return shuffled, opts
}

// discoverAt runs Discover with the given intra-group worker count and
// returns the per-level discovered IDs.
func discoverAt(t *testing.T, g *dime.Group, opts dime.Options, workers int) [][]string {
	t.Helper()
	opts.IntraWorkers = workers
	res, err := dime.Discover(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	levels := make([][]string, len(res.Levels))
	for li := range res.Levels {
		levels[li] = res.MisCategorizedIDs(li)
	}
	return levels
}

// intraWorkerSweep is the worker-count axis of the metamorphic tests: the
// historical sequential path and a parallel path wide enough to shard every
// phase even on a single-core machine.
var intraWorkerSweep = []int{1, 4}

// TestDiscoverMetamorphicAttributePermutation checks a similarity invariant:
// ov (set overlap) ignores value order, so permuting each entity's Authors
// list — the only attribute the Figure 1 rules compare set-wise with
// multi-value lists — must not change any scrollbar level. Title stays
// untouched because word tokenization is order-blind only after
// tokenization, and Venue is a single value.
func TestDiscoverMetamorphicAttributePermutation(t *testing.T) {
	canonical, opts := buildFigure1(t)
	want := discoverAt(t, canonical, opts, 1)

	authorsAt, ok := canonical.Schema.Index("Authors")
	if !ok {
		t.Fatal("Figure 1 schema lost its Authors attribute")
	}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		permuted := dime.NewGroup(canonical.Name, canonical.Schema)
		for _, e := range canonical.Entities {
			c := e.Clone()
			vs := c.Values[authorsAt]
			rng.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
			if err := permuted.Add(c); err != nil {
				t.Fatal(err)
			}
		}
		for _, workers := range intraWorkerSweep {
			if got := discoverAt(t, permuted, opts, workers); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d workers %d: permuted Authors changed levels: %v vs %v",
					seed, workers, got, want)
			}
		}
	}
}

// TestDiscoverMetamorphicDuplicateEntity checks duplicate-injection
// invariants: a copy of a pivot member joins the pivot and changes nothing,
// while a copy of a mis-categorized entity joins that entity's partition and
// adds exactly its own ID to every level the original appears in.
func TestDiscoverMetamorphicDuplicateEntity(t *testing.T) {
	canonical, opts := buildFigure1(t)
	want := discoverAt(t, canonical, opts, 1)

	dup := func(srcID, dupID string) *dime.Group {
		g := dime.NewGroup(canonical.Name, canonical.Schema)
		for _, e := range canonical.Entities {
			if err := g.Add(e); err != nil {
				t.Fatal(err)
			}
			if e.ID == srcID {
				c := e.Clone()
				c.ID = dupID
				if err := g.Add(c); err != nil {
					t.Fatal(err)
				}
			}
		}
		return g
	}

	// e1 is a pivot member: its duplicate shares all three authors with e1,
	// joins the pivot by ov(Authors) >= 2, and must leave every level as-is.
	withPivotDup := dup("e1", "e1dup")
	// e4 is mis-categorized at level 0: its duplicate shares both authors
	// with e4, joins e4's partition, and must surface alongside it at every
	// level from the first on.
	withMarkedDup := dup("e4", "e4dup")
	wantMarked := make([][]string, len(want))
	for li, ids := range want {
		grown := append(append([]string(nil), ids...), "e4dup")
		sort.Strings(grown)
		wantMarked[li] = grown
	}

	for _, workers := range intraWorkerSweep {
		if got := discoverAt(t, withPivotDup, opts, workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers %d: duplicated pivot member changed levels: %v vs %v",
				workers, got, want)
		}
		if got := discoverAt(t, withMarkedDup, opts, workers); !reflect.DeepEqual(got, wantMarked) {
			t.Fatalf("workers %d: duplicated mis-categorized entity: %v, want %v",
				workers, got, wantMarked)
		}
	}
}

// TestDiscoverDeterministic is the regression gate behind dimelint's
// detersafe map-order check: Discover must produce byte-identical
// scrollbar levels run-to-run on the same group, and the level contents must
// not depend on entity insertion order. A map iteration leaking into result
// assembly is exactly the bug that would break this.
func TestDiscoverDeterministic(t *testing.T) {
	canonical, opts := buildFigure1(t)
	want, err := dime.Discover(canonical, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Levels) == 0 {
		t.Fatal("no scrollbar levels produced")
	}

	for seed := int64(1); seed <= 5; seed++ {
		g, opts := shuffledFigure1(t, seed)

		first, err := dime.Discover(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		second, err := dime.Discover(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(first.Levels) != len(second.Levels) {
			t.Fatalf("seed %d: level count changed between runs: %d vs %d",
				seed, len(first.Levels), len(second.Levels))
		}
		for li := range first.Levels {
			a, b := first.MisCategorizedIDs(li), second.MisCategorizedIDs(li)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d level %d: repeated run diverged: %v vs %v", seed, li, a, b)
			}
			// Insertion order must not leak into the discovered set either.
			if w := want.MisCategorizedIDs(li); !reflect.DeepEqual(a, w) {
				t.Fatalf("seed %d level %d: shuffled group found %v, canonical order found %v",
					seed, li, a, w)
			}
		}
	}
}
