package experiments

import (
	"fmt"
	"time"

	"dime/internal/baselines/cr"
	"dime/internal/core"
	"dime/internal/datagen"
	"dime/internal/entity"
	"dime/internal/presets"
	"dime/internal/rules"
)

// Exp5 reproduces Figure 9 (efficiency): wall-clock runtime of DIME, DIME+,
// CR and SVM as the group size grows, on Scholar pages and on Amazon
// categories (error rate 40%). Without opts.Full the sweep runs scaled-down
// sizes that preserve the comparison shape; with Full it runs the paper's
// 500–3000 (Scholar) and 2000–10000 (Amazon).
func Exp5(opts Options) ([]Table, error) {
	if opts.Full {
		return exp5(opts, []int{500, 1000, 1500, 2000, 2500, 3000}, []int{2000, 4000, 6000, 8000, 10000})
	}
	return exp5(opts, []int{200, 400, 600, 800, 1000}, []int{400, 800, 1200, 1600, 2000})
}

// exp5 runs Exp5's two runtime sweeps at the given nominal group sizes.
func exp5(opts Options, scholarSizes, amazonSizes []int) ([]Table, error) {
	opts.defaults()
	var tables []Table

	// --- Figure 9(a): Scholar ---
	sCfg := presets.ScholarConfig()
	sRules := presets.ScholarRules(sCfg)
	trainPage := datagen.Scholar(datagen.ScholarOptions{NumPubs: 120, ErrorRate: 0.1, Seed: opts.Seed + 7})
	svmModel, err := trainSVMOn(sCfg, []*entity.Group{trainPage}, 229, 201, opts.Seed)
	if err != nil {
		return nil, err
	}
	var rows [][]string
	for _, size := range scholarSizes {
		g := datagen.Scholar(datagen.ScholarOptions{
			NumPubs:   int(float64(size) * 0.94),
			ErrorRate: 0.06,
			Seed:      opts.Seed + int64(size),
		})
		row, err := timeMethods(g, sCfg, sRules, scholarCRAttrs, svmModel.Discover)
		if err != nil {
			return nil, err
		}
		rows = append(rows, append([]string{fmt.Sprintf("%d", g.Size())}, row...))
	}
	tables = append(tables, Table{
		ID:     "Fig 9(a)",
		Title:  "Runtime vs group size on Google Scholar (seconds)",
		Header: []string{"#Tuples", "DIME", "DIME+", "CR", "SVM"},
		Rows:   rows,
		Notes:  scaleNote(opts),
	})

	// --- Figure 9(b): Amazon at 40% error rate ---
	setup, err := newAmazonSetup(opts, 0.40)
	if err != nil {
		return nil, err
	}
	trainA, _ := splitGroups(setup.corpus.Groups, 4)
	svmA, err := trainSVMOn(setup.cfg, trainA, 247, 245, opts.Seed+2)
	if err != nil {
		return nil, err
	}
	rows = nil
	for _, size := range amazonSizes {
		big := datagen.Amazon(datagen.AmazonOptions{
			ProductsPerCategory: int(float64(size) * 0.6),
			NearShare:           0.2,
			ErrorRate:           0.40,
			Seed:                opts.Seed + int64(size),
			Categories:          []string{"Router", "Adapter", "Blender", "Puzzle"},
		})
		g := big.Groups[0]
		row, err := timeMethods(g, setup.cfg, setup.rs, amazonCRAttrs, svmA.Discover)
		if err != nil {
			return nil, err
		}
		rows = append(rows, append([]string{fmt.Sprintf("%d", g.Size())}, row...))
	}
	tables = append(tables, Table{
		ID:     "Fig 9(b)",
		Title:  "Runtime vs group size on Amazon, e=40% (seconds)",
		Header: []string{"#Tuples", "DIME", "DIME+", "CR", "SVM"},
		Rows:   rows,
		Notes:  scaleNote(opts),
	})
	return tables, nil
}

func scaleNote(opts Options) string {
	if opts.Full {
		return "paper-scale sweep (use -full=false for the quick version)"
	}
	return "scaled-down sweep preserving the comparison shape; run with -full for paper sizes"
}

// timeMethods times DIME, DIME+, CR (threshold 0.6, as the paper's
// efficiency figures report EM_0.6) and the SVM discoverer on one group.
func timeMethods(g *entity.Group, cfg *rules.Config, rs rules.RuleSet, crAttrs []string, svmDiscover func(*entity.Group) ([]string, error)) ([]string, error) {
	t0 := time.Now()
	if _, err := core.DIME(g, core.Options{Config: cfg, Rules: rs}); err != nil {
		return nil, err
	}
	tDIME := time.Since(t0).Seconds()

	t0 = time.Now()
	if _, err := core.DIMEPlus(g, core.Options{Config: cfg, Rules: rs}); err != nil {
		return nil, err
	}
	tPlus := time.Since(t0).Seconds()

	t0 = time.Now()
	if _, err := cr.New(cr.Options{Config: cfg, Threshold: 0.6, Attributes: crAttrs}).Discover(g); err != nil {
		return nil, err
	}
	tCR := time.Since(t0).Seconds()

	t0 = time.Now()
	if _, err := svmDiscover(g); err != nil {
		return nil, err
	}
	tSVM := time.Since(t0).Seconds()

	return []string{f1s(tDIME), f1s(tPlus), f1s(tCR), f1s(tSVM)}, nil
}

// Exp5Large reproduces the Gen(20k)–Gen(100k) table: DIME vs DIME+ runtimes
// on DBGen-style groups with two positive and two negative entity-matching
// rules. Without Full the sweep is 5k–25k and naive DIME is skipped above
// 10k (its quadratic cost is the point of the table; the shape shows
// regardless); Full runs 20k–100k including naive DIME throughout.
func Exp5Large(opts Options) ([]Table, error) {
	opts.defaults()
	sizes := []int{5000, 10000, 15000, 20000, 25000}
	naiveCap := 10000
	if opts.Full {
		sizes = []int{20000, 40000, 60000, 80000, 100000}
		naiveCap = 1 << 30
	}
	cfg := presets.DBGenConfig()
	rs := presets.DBGenRules(cfg)

	var rows [][]string
	for _, size := range sizes {
		g := datagen.DBGen(datagen.DBGenOptions{
			NumEntities: size,
			ErrorRate:   0.10,
			Seed:        opts.Seed + int64(size),
		})
		naive := "-"
		if size <= naiveCap {
			t0 := time.Now()
			if _, err := core.DIME(g, core.Options{Config: cfg, Rules: rs}); err != nil {
				return nil, err
			}
			naive = f1s(time.Since(t0).Seconds())
		}
		t0 := time.Now()
		if _, err := core.DIMEPlus(g, core.Options{Config: cfg, Rules: rs}); err != nil {
			return nil, err
		}
		fast := f1s(time.Since(t0).Seconds())
		rows = append(rows, []string{fmt.Sprintf("Gen(%dk)", size/1000), naive, fast})
	}
	return []Table{{
		ID:     "Gen table",
		Title:  "DIME vs DIME+ on DBGen-style large groups (seconds)",
		Header: []string{"Dataset", "DIME", "DIME+"},
		Rows:   rows,
		Notes:  scaleNote(opts),
	}}, nil
}
