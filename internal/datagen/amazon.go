package datagen

import (
	"fmt"
	"math/rand"
	"sort"

	"dime/internal/entity"
	"dime/internal/ontology"
	"dime/internal/tokenize"
)

// AmazonSchema is the eight-attribute relation of the paper's Amazon
// dataset (Section VI-A).
var AmazonSchema = entity.MustSchema(
	"Asin", "Title", "Brand", "Also_bought", "Also_viewed",
	"Bought_together", "Buy_after_viewing", "Description",
)

// AmazonOptions parameterizes the synthetic Amazon corpus.
type AmazonOptions struct {
	// ProductsPerCategory is the native product count per category; 0 means 60.
	ProductsPerCategory int
	// ErrorRate is the fraction of each group that is injected from other
	// categories (the paper's e%).
	ErrorRate float64
	// Seed drives generation.
	Seed int64
	// Categories optionally restricts generation to the named categories;
	// nil generates every category of every theme.
	Categories []string
	// NearShare is the share of injected products drawn from a sibling
	// category of the same theme (harder to detect); the rest come from a
	// different theme. Default 0.5.
	NearShare float64
}

func (o *AmazonOptions) defaults() {
	if o.ProductsPerCategory == 0 {
		o.ProductsPerCategory = 60
	}
	if o.NearShare == 0 {
		// More aggressive error injection draws proportionally more from
		// sibling categories — the paper observes recall decaying with e%
		// because injected products have similar buying behaviour and
		// descriptions.
		o.NearShare = 0.05 + 0.5*o.ErrorRate
	}
}

// AmazonCorpus is the generated product universe: one group per category
// plus the metadata the experiments need (theme membership and the ground
// truth tree over description topics).
type AmazonCorpus struct {
	// Groups holds one group per category, errors injected.
	Groups []*entity.Group
	// ThemeOf maps category name -> theme name.
	ThemeOf map[string]string
	// TrueTree is the ground-truth theme hierarchy (root → theme →
	// category); the experiments learn an equivalent tree with LDA, and the
	// tests use this one directly.
	TrueTree *ontology.Tree
	// CategoryNode maps category name -> its TrueTree node.
	CategoryNode map[string]*ontology.Node
}

// product is an intermediate representation before entity conversion.
type product struct {
	asin, title, brand string
	alsoBought         []string
	alsoViewed         []string
	boughtTogether     []string
	buyAfterViewing    []string
	description        string
	category           string
}

// Amazon generates the synthetic product corpus. Native products of a
// category draw their co-purchase lists from the category's ASIN pool
// (with a popular "core" so the lists overlap heavily) and their
// descriptions from the category vocabulary; injected products are natives
// of other categories, so they carry foreign co-purchase lists and foreign
// description topics — the two signals the paper's Amazon rules use.
func Amazon(opts AmazonOptions) *AmazonCorpus {
	opts.defaults()
	rng := rand.New(rand.NewSource(opts.Seed))

	corpus := &AmazonCorpus{
		ThemeOf:      make(map[string]string),
		TrueTree:     ontology.NewTree("Products"),
		CategoryNode: make(map[string]*ontology.Node),
	}
	var categories []string
	themes := make([]string, 0, len(amazonThemes))
	for theme := range amazonThemes {
		themes = append(themes, theme)
	}
	sort.Strings(themes)
	for _, theme := range themes {
		for _, c := range amazonThemes[theme] {
			corpus.ThemeOf[c] = theme
			corpus.CategoryNode[c] = corpus.TrueTree.AddPath(theme, c)
		}
	}
	if opts.Categories != nil {
		categories = append(categories, opts.Categories...)
	} else {
		for _, n := range corpus.TrueTree.Leaves() {
			categories = append(categories, n.Label)
		}
	}

	// Phase 1: generate native products per category.
	natives := make(map[string][]*product, len(categories))
	asinSeq := 0
	for _, cat := range categories {
		theme := corpus.ThemeOf[cat]
		pool := make([]string, opts.ProductsPerCategory)
		for i := range pool {
			asinSeq++
			pool[i] = fmt.Sprintf("B%09X", asinSeq*2654435761%0xFFFFFFFF)
		}
		core := pool // popular core: the first few ASINs
		coreN := 10
		if coreN > len(pool) {
			coreN = len(pool)
		}
		core = pool[:coreN]

		vocab := append([]string{}, categoryVocab[cat]...)
		vocab = append(vocab, themeVocab[theme]...)

		ps := make([]*product, opts.ProductsPerCategory)
		for i := range ps {
			p := &product{
				asin:     pool[i],
				brand:    pick(rng, brandPool),
				category: cat,
			}
			// Titles carry a brand, one vocabulary noun and a model code —
			// not the raw category name, which would leak the label into
			// every string-similarity feature.
			p.title = p.brand + " " + pick(rng, categoryVocab[cat]) + " " +
				fmt.Sprintf("%c%d", 'A'+rng.Intn(26), 100+rng.Intn(900))
			if rng.Float64() < 0.05 {
				// Cold-start products: no popular co-purchases yet, only a
				// couple of long-tail neighbours. Symbolic methods (CR, and
				// partly the SVM) flag them as outliers; DIME's description
				// ontology keeps them — the precision gap of Exp-1.
				p.alsoBought = sampleDistinct(rng, pool[coreN:], 2)
				p.alsoViewed = sampleDistinct(rng, pool[coreN:], 2)
				p.boughtTogether = sampleDistinct(rng, pool[coreN:], 1)
				p.buyAfterViewing = sampleDistinct(rng, pool[coreN:], 1)
			} else {
				p.alsoBought = append(sampleDistinct(rng, core, 3), sampleDistinct(rng, pool, 2)...)
				p.alsoViewed = append(sampleDistinct(rng, core, 3), sampleDistinct(rng, pool, 2)...)
				p.boughtTogether = sampleDistinct(rng, core, 1)
				p.buyAfterViewing = sampleDistinct(rng, core, 1)
			}
			if rng.Float64() < 0.08 {
				// A slice of products have lazy, mostly-generic copy — the
				// descriptions topic models mis-assign, which is where the
				// description-based negative predicates pay a precision tax.
				words := wordsOf(rng, genericProductWords, 10+rng.Intn(6))
				words = append(words, wordsOf(rng, vocab, 2)...)
				p.description = join(words)
			} else {
				words := wordsOf(rng, vocab, 12+rng.Intn(8))
				words = append(words, wordsOf(rng, genericProductWords, 4)...)
				p.description = join(words)
			}
			ps[i] = p
		}
		natives[cat] = ps
	}

	// Phase 2: assemble groups with injected errors.
	for _, cat := range categories {
		g := entity.NewGroup(cat, AmazonSchema)
		for _, p := range natives[cat] {
			g.MustAdd(p.toEntity())
		}
		n := len(natives[cat])
		nErr := int(float64(n)*opts.ErrorRate/(1-opts.ErrorRate) + 0.5)
		siblings := siblingsOf(corpus, categories, cat, true)
		strangers := siblingsOf(corpus, categories, cat, false)
		for i := 0; i < nErr; i++ {
			var sourceCat string
			if len(siblings) > 0 && (len(strangers) == 0 || rng.Float64() < opts.NearShare) {
				sourceCat = pick(rng, siblings)
			} else if len(strangers) > 0 {
				sourceCat = pick(rng, strangers)
			} else {
				break
			}
			src := pick(rng, natives[sourceCat])
			e := src.toEntity()
			// Injected copies keep their foreign behaviour but get a fresh
			// ID so multiple groups can hold copies of one product.
			e.ID = fmt.Sprintf("%s-inj%03d", src.asin, i)
			e.Values[0] = []string{e.ID}
			// A tenth of the injected products are "cross-listed
			// accessories": their Also_bought list carries the target
			// category's whole popular core, so every pivot product shares
			// an item with them and φ−4's ov(Also_bought) = 0 never fires.
			// φ−5 (Also_viewed) still catches them — the recall gap between
			// the two scrollbar levels in Figure 7.
			if ab, ok := AmazonSchema.Index("Also_bought"); ok && rng.Float64() < 0.10 {
				vals := append([]string{}, e.Values[ab]...)
				for k := 0; k < 10 && k < len(natives[cat]); k++ {
					vals = append(vals, natives[cat][k].asin)
				}
				e.Values[ab] = vals
			}
			g.MustAdd(e)
			g.MarkMisCategorized(e.ID)
		}
		corpus.Groups = append(corpus.Groups, g)
	}
	return corpus
}

func siblingsOf(c *AmazonCorpus, categories []string, cat string, near bool) []string {
	var out []string
	for _, other := range categories {
		if other == cat {
			continue
		}
		sameTheme := c.ThemeOf[other] == c.ThemeOf[cat]
		if sameTheme == near {
			out = append(out, other)
		}
	}
	return out
}

func (p *product) toEntity() *entity.Entity {
	return entity.MustNewEntity(AmazonSchema, p.asin, [][]string{
		{p.asin},
		{p.title},
		{p.brand},
		p.alsoBought,
		p.alsoViewed,
		p.boughtTogether,
		p.buyAfterViewing,
		{p.description},
	})
}

// Descriptions extracts the tokenized description of every entity across
// groups, the training corpus for the LDA theme hierarchy.
func (c *AmazonCorpus) Descriptions() [][]string {
	var docs [][]string
	for _, g := range c.Groups {
		di, _ := g.Schema.Index("Description")
		for _, e := range g.Entities {
			docs = append(docs, tokenize.Words(e.Joined(di)))
		}
	}
	return docs
}

// TrueMapper returns a node mapper that assigns a description to the
// category node whose vocabulary it overlaps most — the oracle counterpart
// of the learned LDA mapper, used by tests and as a fast path.
func (c *AmazonCorpus) TrueMapper() func(values []string) *ontology.Node {
	vocabNode := make(map[string]*ontology.Node)
	for cat, node := range c.CategoryNode {
		for _, w := range categoryVocab[cat] {
			// A word in several category vocabularies ("notes": Notebook
			// and Perfume) goes to the smallest label, whatever order the
			// map iterates in, so every process maps it alike.
			if prev, claimed := vocabNode[w]; !claimed || node.Label < prev.Label {
				vocabNode[w] = node
			}
		}
	}
	themeNode := make(map[string]*ontology.Node)
	for theme, words := range themeVocab {
		for _, w := range words {
			if n := c.TrueTree.Lookup(theme); n != nil {
				themeNode[w] = n
			}
		}
	}
	return func(values []string) *ontology.Node {
		counts := make(map[*ontology.Node]int)
		for _, v := range values {
			for _, w := range tokenize.Words(v) {
				if n, ok := vocabNode[w]; ok {
					counts[n] += 2 // category words are twice as diagnostic
				} else if n, ok := themeNode[w]; ok {
					counts[n]++
				}
			}
		}
		var best *ontology.Node
		bestC := 0
		for n, cnt := range counts {
			if cnt > bestC || (cnt == bestC && best != nil && n.String() < best.String()) {
				best, bestC = n, cnt
			}
		}
		return best
	}
}
