package datagen

import (
	"encoding/json"
	"math/rand"
	"testing"
)

func TestScholarDeterministic(t *testing.T) {
	a := Scholar(ScholarOptions{NumPubs: 50, ErrorRate: 0.1, Seed: 3})
	b := Scholar(ScholarOptions{NumPubs: 50, ErrorRate: 0.1, Seed: 3})
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatal("same seed must generate identical pages")
	}
	c := Scholar(ScholarOptions{NumPubs: 50, ErrorRate: 0.1, Seed: 4})
	jc, _ := json.Marshal(c)
	if string(ja) == string(jc) {
		t.Fatal("different seeds should differ")
	}
}

func TestScholarShape(t *testing.T) {
	g := Scholar(ScholarOptions{NumPubs: 100, ErrorRate: 0.1, Seed: 1})
	if g.Schema != ScholarSchema {
		t.Fatal("schema mismatch")
	}
	nErr := len(g.MisCategorizedIDs())
	if nErr == 0 {
		t.Fatal("no errors injected")
	}
	frac := float64(nErr) / float64(g.Size())
	if frac < 0.05 || frac > 0.2 {
		t.Fatalf("error fraction %.3f far from requested 0.1 (n=%d, errs=%d)", frac, g.Size(), nErr)
	}
	// Every entity has an owner-ish author list and a venue.
	vi, _ := g.Schema.Index("Venue")
	ai, _ := g.Schema.Index("Authors")
	for _, e := range g.Entities {
		if len(e.Value(ai)) == 0 {
			t.Fatalf("entity %s has no authors", e.ID)
		}
		if len(e.Value(vi)) != 1 {
			t.Fatalf("entity %s has %d venues", e.ID, len(e.Value(vi)))
		}
	}
}

func TestScholarPages(t *testing.T) {
	pages := ScholarPages(5, 40, 0.08, 11)
	if len(pages) != 5 {
		t.Fatalf("pages = %d", len(pages))
	}
	names := map[string]bool{}
	for _, p := range pages {
		names[p.Name] = true
		if p.Size() == 0 {
			t.Fatal("empty page")
		}
	}
}

func TestAmazonShape(t *testing.T) {
	c := Amazon(AmazonOptions{
		ProductsPerCategory: 30,
		ErrorRate:           0.2,
		Seed:                5,
		Categories:          []string{"Router", "Adapter", "Blender"},
	})
	if len(c.Groups) != 3 {
		t.Fatalf("groups = %d", len(c.Groups))
	}
	for _, g := range c.Groups {
		nErr := len(g.MisCategorizedIDs())
		if nErr == 0 {
			t.Fatalf("group %s has no injected errors", g.Name)
		}
		frac := float64(nErr) / float64(g.Size())
		if frac < 0.1 || frac > 0.3 {
			t.Fatalf("group %s error fraction %.3f", g.Name, frac)
		}
	}
	if c.ThemeOf["Router"] != "Electronics" {
		t.Fatal("theme mapping broken")
	}
	if c.TrueTree.Lookup("Router") == nil {
		t.Fatal("true tree missing category node")
	}
	if len(c.Descriptions()) == 0 {
		t.Fatal("no description docs")
	}
}

func TestAmazonTrueMapper(t *testing.T) {
	c := Amazon(AmazonOptions{
		ProductsPerCategory: 20,
		ErrorRate:           0.1,
		Seed:                9,
		Categories:          []string{"Router", "Adapter", "Puzzle"},
	})
	mapper := c.TrueMapper()
	di, _ := AmazonSchema.Index("Description")
	// Mapper should assign native products to (near) their own category.
	right, total := 0, 0
	for _, g := range c.Groups {
		for _, e := range g.Entities {
			if g.Truth[e.ID] {
				continue
			}
			total++
			if n := mapper(e.Value(di)); n != nil && n.Label == g.Name {
				right++
			}
		}
	}
	if total == 0 {
		t.Fatal("no natives")
	}
	if acc := float64(right) / float64(total); acc < 0.85 {
		t.Fatalf("true mapper accuracy %.2f too low", acc)
	}
}

// TestAmazonTrueMapperDeterministic pins the mapping of a word that two
// category vocabularies share: every mapper built over the corpus must send
// it to the same node, whatever order the category map iterates in.
func TestAmazonTrueMapperDeterministic(t *testing.T) {
	c := Amazon(AmazonOptions{ProductsPerCategory: 1, Seed: 1})
	want := c.TrueMapper()([]string{"notes"})
	if want == nil || want.Label != "Notebook" {
		t.Fatalf(`"notes" maps to %v, want Notebook (first of Notebook and Perfume by name)`, want)
	}
	for i := 0; i < 20; i++ {
		if got := c.TrueMapper()([]string{"notes"}); got != want {
			t.Fatalf(`mapper %d sends "notes" to %v, an earlier one to %v`, i, got, want)
		}
	}
}

func TestDBGenShape(t *testing.T) {
	g := DBGen(DBGenOptions{NumEntities: 500, ErrorRate: 0.2, Seed: 7})
	if g.Size() != 500 {
		t.Fatalf("size = %d", g.Size())
	}
	nErr := len(g.MisCategorizedIDs())
	if nErr != 100 {
		t.Fatalf("errors = %d, want 100", nErr)
	}
	// Deterministic.
	g2 := DBGen(DBGenOptions{NumEntities: 500, ErrorRate: 0.2, Seed: 7})
	ja, _ := json.Marshal(g)
	jb, _ := json.Marshal(g2)
	if string(ja) != string(jb) {
		t.Fatal("DBGen must be deterministic")
	}
}

func TestCorruptNameChangesToken(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := newRng(seed)
		c := corruptName(rng, "Nan Tang")
		if c == "Nan Tang" {
			t.Fatalf("seed %d: corruption was identity", seed)
		}
	}
}

func TestZipfIndexHeavyHead(t *testing.T) {
	rng := newRng(1)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		counts[zipfIndex(rng, 10)]++
	}
	if counts[0] <= counts[9] {
		t.Fatalf("zipf head %d should dominate tail %d", counts[0], counts[9])
	}
	if zipfIndex(rng, 1) != 0 || zipfIndex(rng, 0) != 0 {
		t.Fatal("degenerate zipf sizes")
	}
}

func TestVocabCoverage(t *testing.T) {
	// Every subfield of the built-in ontology used by the generator should
	// have a vocabulary (or fall back to generic words without panicking).
	u := newScholarUniverse()
	for _, subs := range u.subfields {
		for _, s := range subs {
			if len(u.vocabOf(s)) == 0 {
				t.Fatalf("subfield %q has empty vocabulary", s)
			}
		}
	}
	// Every Amazon category must have a vocabulary and a theme.
	for theme, cats := range amazonThemes {
		if len(themeVocab[theme]) == 0 {
			t.Fatalf("theme %q has no vocab", theme)
		}
		for _, c := range cats {
			if len(categoryVocab[c]) == 0 {
				t.Fatalf("category %q has no vocab", c)
			}
		}
	}
}

// newRng is a test helper wrapping rand.New.
func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
