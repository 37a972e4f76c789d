package main

import (
	"fmt"
	"math/rand"

	"dime/internal/datagen"
	"dime/internal/entity"
	"dime/internal/serve"
)

// Inputs are generated from --seed with internal/datagen. Group sizes and
// error rates are fixed per workload, so the seed changes what the entities
// say but not the size of the work; Amazon categories are taken at fixed
// positions of the category list for the same reason.

// corpus is one served corpus: its profile, the entities ingested at set-up,
// and the entities streamed in during the window (serve-ingest only).
type corpus struct {
	id      string
	profile string
	initial *entity.Group
	stream  []*entity.Entity
}

// seeds hands out independent generator seeds derived from the run seed.
type seeds struct{ rng *rand.Rand }

func newSeeds(seed int64) *seeds { return &seeds{rng: rand.New(rand.NewSource(seed))} }

func (s *seeds) next() int64 { return s.rng.Int63() }

// scholarPage generates one Scholar page of numPubs publications at 10%
// error.
func scholarPage(numPubs int, seed int64) *entity.Group {
	return datagen.Scholar(datagen.ScholarOptions{NumPubs: numPubs, ErrorRate: 0.1, Seed: seed})
}

// amazonCategories generates an Amazon corpus at 40% error and returns the
// groups at the given category positions. A non-zero categories restricts
// generation to that many leading categories (12 is two themes of six),
// which keeps large categories cheap to generate while every group still
// has same-theme siblings to draw injected products from.
func amazonCategories(perCategory int, seed int64, categories int, positions ...int) []*entity.Group {
	opts := datagen.AmazonOptions{ProductsPerCategory: perCategory, ErrorRate: 0.4, Seed: seed}
	if categories > 0 {
		all := datagen.Amazon(datagen.AmazonOptions{ProductsPerCategory: 1, Seed: 1}).Groups
		for _, g := range all[:categories] {
			opts.Categories = append(opts.Categories, g.Name)
		}
	}
	groups := datagen.Amazon(opts).Groups
	out := make([]*entity.Group, len(positions))
	for i, p := range positions {
		out[i] = groups[p]
	}
	return out
}

// libBatch is one core.DiscoverAll call of the lib-batch pass: groups that
// share a profile.
type libBatch struct {
	profile string
	groups  []*entity.Group
}

// Corpus counts are set by measured seed-to-seed variation: one generated
// group's DIME+ cost varies by 8% (Amazon) to 15–30% (Scholar, DBGen)
// between seeds, so every workload spreads its work over enough groups that
// the per-run numbers vary by a few percent.

// libInputs builds the lib-batch mix: two DBGen groups of 2000 entities,
// sixteen Scholar pages of 300 publications and eight Amazon categories at
// 40% error. The mix splits core time between the positive phases (DBGen,
// Scholar candidate generation) and the negative phases (Amazon, Scholar
// negative verification); every Scholar page has more candidate pairs than
// DIME+'s benefit-sort limit, so it verifies while streaming.
func libInputs(seed int64) []libBatch {
	s := newSeeds(seed)
	var db, scholar []*entity.Group
	for i := 0; i < 2; i++ {
		db = append(db, datagen.DBGen(datagen.DBGenOptions{NumEntities: 2000, ErrorRate: 0.1, Seed: s.next()}))
	}
	for i := 0; i < 16; i++ {
		scholar = append(scholar, scholarPage(300, s.next()))
	}
	return []libBatch{
		{profile: "dbgen", groups: db},
		{profile: "scholar", groups: scholar},
		{profile: "amazon", groups: amazonCategories(200, s.next(), 0, 0, 4, 8, 12, 16, 20, 24, 28)},
	}
}

// staticCorpora builds the preloaded corpora of serve-discover and
// serve-read: sixteen Scholar pages of about 320 entities and eight Amazon
// categories of about 330.
func staticCorpora(seed int64) []*corpus {
	s := newSeeds(seed)
	var out []*corpus
	for i := 0; i < 16; i++ {
		out = append(out, &corpus{id: fmt.Sprintf("scholar-%d", i), profile: "scholar", initial: scholarPage(288, s.next())})
	}
	for i, g := range amazonCategories(200, s.next(), 0, 1, 5, 9, 13, 17, 21, 25, 29) {
		out = append(out, &corpus{id: fmt.Sprintf("amazon-%d", i), profile: "amazon", initial: g})
	}
	return out
}

// ingestCorpora builds serve-ingest's corpora: twelve Scholar and four
// Amazon corpora that start at initialSize entities and each have at least
// streamLen more to stream in. Entities arrive in a seeded random order, so
// intruders are spread through the stream instead of trailing it.
func ingestCorpora(seed int64, initialSize, streamLen int) []*corpus {
	s := newSeeds(seed)
	need := initialSize + streamLen
	var groups []*entity.Group
	for i := 0; i < 12; i++ {
		groups = append(groups, scholarPage(need, s.next()))
	}
	// 40% error: natives are 60% of a group.
	per := need*6/10 + 1
	groups = append(groups, amazonCategories(per, s.next(), 12, 0, 3, 6, 9)...)
	var out []*corpus
	for i, g := range groups {
		profile, id := "scholar", fmt.Sprintf("scholar-%d", i)
		if i >= 12 {
			profile, id = "amazon", fmt.Sprintf("amazon-%d", i-12)
		}
		ents := append([]*entity.Entity(nil), g.Entities...)
		rng := rand.New(rand.NewSource(s.next()))
		rng.Shuffle(len(ents), func(a, b int) { ents[a], ents[b] = ents[b], ents[a] })
		initial := entity.NewGroup(g.Name, g.Schema)
		initial.Entities = ents[:initialSize]
		out = append(out, &corpus{id: id, profile: profile, initial: initial, stream: ents[initialSize:need]})
	}
	return out
}

// wire converts entities to their JSON ingest form.
func wire(ents []*entity.Entity) []serve.EntityJSON {
	out := make([]serve.EntityJSON, len(ents))
	for i, e := range ents {
		out[i] = serve.EntityJSON{ID: e.ID, Values: e.Values}
	}
	return out
}
