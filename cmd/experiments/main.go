// Command experiments regenerates the tables and figures of the paper's
// evaluation (Section VI) on the synthetic datasets. Each experiment prints
// its artifacts as aligned text tables; see EXPERIMENTS.md for the
// paper-vs-measured comparison.
//
// Usage:
//
//	experiments [-exp N] [-detail] [-large] [-full] [-pages N] [-pubs N] [-seed S] [-serve-debug :6060]
//
// Without -exp, every experiment runs in order. -serve-debug exposes
// /debug/pprof/, /debug/flight and a Prometheus-format /metrics for the
// duration of the run, so long sweeps can be profiled live.
package main

import (
	"flag"
	"fmt"
	"os"

	"dime/internal/experiments"
	"dime/internal/obs"
)

func main() {
	var (
		exp        = flag.Int("exp", 0, "experiment number 1..7 (0 = all; 2 is part of 1; 7 = ablation)")
		detail     = flag.Bool("detail", false, "with -exp 3: also print the per-page Figure 8 table")
		large      = flag.Bool("large", false, "with -exp 5: also run the DBGen 20k-100k table")
		full       = flag.Bool("full", false, "run efficiency sweeps at the paper's sizes (slow)")
		pages      = flag.Int("pages", 0, "Scholar pages to generate (default 40; paper used 200)")
		pubs       = flag.Int("pubs", 0, "publications per page (default 150; paper avg 340)")
		seed       = flag.Int64("seed", 0, "generation seed (default 2018)")
		chart      = flag.Bool("chart", false, "render each table's numeric columns as bar charts too")
		serveDebug = flag.String("serve-debug", "", "serve /debug/pprof/, /debug/flight and /metrics on this address while experiments run")
	)
	flag.Parse()

	if *serveDebug != "" {
		srv, err := obs.ServeDebug(*serveDebug, nil, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		defer func() { _ = srv.Close() }()
		fmt.Fprintf(os.Stderr, "experiments: debug server on http://%s\n", srv.Addr())
	}

	opts := experiments.Options{
		Pages:       *pages,
		PubsPerPage: *pubs,
		Seed:        *seed,
		Full:        *full,
	}

	type runner struct {
		n   int
		fn  func(experiments.Options) ([]experiments.Table, error)
		on  bool
		tag string
	}
	runs := []runner{
		{1, experiments.Exp1, *exp == 0 || *exp == 1 || *exp == 2, "Exp-1/2: comparison with EM and ML approaches"},
		{3, experiments.Exp3, *exp == 0 || *exp == 3, "Exp-3: effectiveness of tuning negative rules"},
		{3, experiments.Exp3Detail, (*exp == 0 || *exp == 3) && *detail, "Exp-3 detail: Figure 8 per-page results"},
		{4, experiments.Exp4, *exp == 0 || *exp == 4, "Exp-4: effectiveness of positive rules"},
		{5, experiments.Exp5, *exp == 0 || *exp == 5, "Exp-5: efficiency study"},
		{5, experiments.Exp5Large, (*exp == 0 || *exp == 5) && *large, "Exp-5 large: DBGen scaling table"},
		{6, experiments.Exp6, *exp == 0 || *exp == 6, "Exp-6: comparison with rule generation methods"},
		{7, experiments.Ablation, *exp == 0 || *exp == 7, "Ablation: DIME+ design choices"},
	}

	for _, r := range runs {
		if !r.on {
			continue
		}
		fmt.Printf("### %s\n\n", r.tag)
		tables, err := r.fn(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		for i := range tables {
			tables[i].Fprint(os.Stdout)
			if *chart {
				tables[i].FprintChart(os.Stdout)
			}
		}
	}
}
