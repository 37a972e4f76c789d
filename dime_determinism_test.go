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

// discoverLevels runs Discover and returns the per-level discovered IDs.
func discoverLevels(t *testing.T, g *dime.Group, opts dime.Options) [][]string {
	t.Helper()
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

// TestDiscoverMetamorphicAttributePermutation checks a similarity invariant:
// ov (set overlap) ignores value order, so permuting each entity's Authors
// list — the only attribute the Figure 1 rules compare set-wise with
// multi-value lists — must not change any scrollbar level. Title stays
// untouched because word tokenization is order-blind only after
// tokenization, and Venue is a single value.
func TestDiscoverMetamorphicAttributePermutation(t *testing.T) {
	canonical, opts := buildFigure1(t)
	want := discoverLevels(t, canonical, opts)

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
		if got := discoverLevels(t, permuted, opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: permuted Authors changed levels: %v vs %v", seed, got, want)
		}
	}
}

// TestDiscoverMetamorphicDuplicateEntity checks duplicate-injection
// invariants: a copy of a pivot member joins the pivot and changes nothing,
// while a copy of a mis-categorized entity joins that entity's partition and
// adds exactly its own ID to every level the original appears in.
func TestDiscoverMetamorphicDuplicateEntity(t *testing.T) {
	canonical, opts := buildFigure1(t)
	want := discoverLevels(t, canonical, opts)

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

	if got := discoverLevels(t, withPivotDup, opts); !reflect.DeepEqual(got, want) {
		t.Fatalf("duplicated pivot member changed levels: %v vs %v", got, want)
	}
	if got := discoverLevels(t, withMarkedDup, opts); !reflect.DeepEqual(got, wantMarked) {
		t.Fatalf("duplicated mis-categorized entity: %v, want %v", got, wantMarked)
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
