// Command dimelint runs DIME's static-analysis suite (internal/lint) over
// the module and reports violations of the codebase's correctness
// invariants with file:line diagnostics: the float-threshold and
// errcheck-lite checks, the interprocedural detersafe and panicprop passes,
// and the locklint concurrency suite (lockorder, heldcall, goleak,
// ctxflow) over the module call graph.
//
// Usage:
//
//	dimelint [-list] [-only analyzers] [-type-errors] [patterns...]
//
// Patterns default to ./... (the whole module, nested modules such as
// bench/ included). A finding is suppressed with an in-source comment on
// the offending line (or the line above):
//
//	//lint:ignore <analyzer|all> <reason>
//
// Exit codes:
//
//	0  no findings
//	1  findings
//	2  usage or load error (bad flags, unknown -only analyzer, unmatched
//	   patterns)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"dime/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dimelint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the selected analyzers and exit")
	only := fs.String("only", "", "comma-separated `analyzers` to run (see -list); others are skipped")
	typeErrors := fs.Bool("type-errors", false, "also print type-check errors (findings are best-effort when present)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: dimelint [flags] [patterns...]\n\npatterns default to ./...; flags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	analyzers := lint.All()
	if *only != "" {
		sel, err := selectAnalyzers(analyzers, *only)
		if err != nil {
			return fatal(stderr, err)
		}
		analyzers = sel
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-22s %s\n", a.Name(), a.Doc())
		}
		return 0
	}

	cwd, err := os.Getwd()
	if err != nil {
		return fatal(stderr, err)
	}
	pkgs, err := lint.Load(cwd, fs.Args())
	if err != nil {
		return fatal(stderr, err)
	}
	if len(pkgs) == 0 {
		// A typo'd pattern must not let a CI gate pass vacuously.
		return fatal(stderr, fmt.Errorf("no packages match %v", fs.Args()))
	}
	if *typeErrors {
		for _, pkg := range pkgs {
			for _, terr := range pkg.TypeErrors {
				fmt.Fprintf(stderr, "dimelint: %s: type error: %v\n", pkg.Path, terr)
			}
		}
	}

	diags := lint.Run(pkgs, analyzers)
	for _, d := range diags {
		d.Pos.Filename = relTo(cwd, d.Pos.Filename)
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "dimelint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// selectAnalyzers resolves a comma-separated -only list against the suite.
func selectAnalyzers(all []lint.Analyzer, names string) ([]lint.Analyzer, error) {
	byName := make(map[string]lint.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name()] = a
	}
	added := map[string]bool{}
	var sel []lint.Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" || added[name] {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q in -only (see -list)", name)
		}
		added[name] = true
		sel = append(sel, a)
	}
	if len(sel) == 0 {
		return nil, fmt.Errorf("-only selected no analyzers")
	}
	return sel, nil
}

// relTo renders path relative to dir (forward slashes) when it is inside it.
func relTo(dir, path string) string {
	if rel, err := filepath.Rel(dir, path); err == nil && rel != ".." && !strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return filepath.ToSlash(rel)
	}
	return path
}

func fatal(stderr io.Writer, err error) int {
	fmt.Fprintf(stderr, "dimelint: %v\n", err)
	return 2
}
