// Command dimelint runs DIME's static-analysis suite (internal/lint) over
// the module and reports violations of the codebase's correctness
// invariants with file:line diagnostics — per-package analyzers plus the
// interprocedural detersafe / panicprop passes and the locklint concurrency
// suite (lockorder / heldcall / goleak / ctxflow) over the module call graph.
//
// Usage:
//
//	dimelint [flags] [patterns...]
//
// Patterns default to ./... (the whole module). Findings are suppressed
// with an in-source comment on the offending line (or the line above):
//
//	//lint:ignore <analyzer|all> <reason>
//
// or accepted in a baseline file (see -baseline), one file for every
// analyzer. -graph dumps the call graph and lock-acquisition graph as DOT.
// With -only, baseline entries for unselected analyzers are ignored
// entirely: they are neither applied nor reported stale, so a narrowed run
// never invents staleness ("locklint" in -only expands to the four
// concurrency analyzers). Exit codes:
//
//	0  no findings (or every finding is covered by the baseline)
//	1  findings (with -baseline: findings not covered)
//	2  usage or load error (bad flags, unknown -only analyzer, unmatched
//	   patterns, unreadable baseline)
package main

import (
	"encoding/json"
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

// jsonFinding is the -json wire form of one diagnostic. File is
// module-relative with forward slashes so output is machine-stable across
// checkouts.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// jsonStale is the -json wire form of one stale baseline entry: a recorded
// finding that no longer occurs and should be garbage-collected from the
// baseline.
type jsonStale struct {
	File     string `json:"file"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	Count    int    `json:"count"`
}

// jsonOutput is the -json document: current findings plus stale baseline
// entries (text mode prints the latter to stderr).
type jsonOutput struct {
	Findings []jsonFinding `json:"findings"`
	Stale    []jsonStale   `json:"stale"`
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dimelint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the selected analyzers and exit")
	asJSON := fs.Bool("json", false, "emit a JSON object {findings, stale} instead of file:line text")
	baselinePath := fs.String("baseline", "", "accept findings recorded in this baseline `file`; fail only on new ones")
	writeBaseline := fs.String("write-baseline", "", "record current findings to this baseline `file` and exit 0")
	only := fs.String("only", "", "comma-separated `analyzers` to run (see -list); others are skipped and their baseline entries ignored")
	graph := fs.Bool("graph", false, "dump the module call graph and lock-acquisition graph as DOT and exit")
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
	selected := map[string]bool{}
	for _, a := range analyzers {
		selected[a.Name()] = true
	}

	cwd, err := os.Getwd()
	if err != nil {
		return fatal(stderr, err)
	}
	modRoot, err := lint.ModuleRoot(cwd)
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

	if *graph {
		g := lint.BuildCallGraph(pkgs)
		if err := g.WriteDOT(stdout); err != nil {
			return fatal(stderr, err)
		}
		if err := lint.BuildLockFacts(g).WriteDOT(stdout); err != nil {
			return fatal(stderr, err)
		}
		return 0
	}

	diags := lint.Run(pkgs, analyzers)

	if *writeBaseline != "" {
		if err := lint.NewBaseline(diags, modRoot).Write(*writeBaseline); err != nil {
			return fatal(stderr, err)
		}
		fmt.Fprintf(stderr, "dimelint: recorded %d finding(s) to %s\n", len(diags), *writeBaseline)
		return 0
	}

	var staleOut []lint.BaselineFinding
	if *baselinePath != "" {
		b, err := lint.ReadBaseline(*baselinePath)
		if err != nil {
			return fatal(stderr, err)
		}
		diags, staleOut = filterBaseline(b, selected).Apply(diags, modRoot)
	}

	if *asJSON {
		out := jsonOutput{Findings: []jsonFinding{}, Stale: []jsonStale{}}
		for _, d := range diags {
			out.Findings = append(out.Findings, jsonFinding{
				File:     relTo(modRoot, d.Pos.Filename),
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		for _, f := range staleOut {
			out.Stale = append(out.Stale, jsonStale{File: f.File, Analyzer: f.Analyzer, Message: f.Message, Count: f.Count})
		}
		enc := json.NewEncoder(stdout)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return fatal(stderr, err)
		}
	} else {
		for _, f := range staleOut {
			fmt.Fprintf(stderr, "dimelint: stale baseline entry (finding no longer occurs): %s: %s: %s\n", f.File, f.Analyzer, f.Message)
		}
		for _, d := range diags {
			d.Pos.Filename = relTo(cwd, d.Pos.Filename)
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "dimelint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// selectAnalyzers resolves a comma-separated -only list against the suite.
// The group name "locklint" expands to the four concurrency analyzers.
func selectAnalyzers(all []lint.Analyzer, names string) ([]lint.Analyzer, error) {
	byName := make(map[string]lint.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name()] = a
	}
	added := map[string]bool{}
	var sel []lint.Analyzer
	add := func(name string) error {
		a, ok := byName[name]
		if !ok {
			return fmt.Errorf("unknown analyzer %q in -only (see -list)", name)
		}
		if !added[name] {
			added[name] = true
			sel = append(sel, a)
		}
		return nil
	}
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if name == "locklint" {
			for _, sub := range lint.LockLintNames() {
				if err := add(sub); err != nil {
					return nil, err
				}
			}
			continue
		}
		if err := add(name); err != nil {
			return nil, err
		}
	}
	if len(sel) == 0 {
		return nil, fmt.Errorf("-only selected no analyzers")
	}
	return sel, nil
}

// filterBaseline returns a copy of b holding only the entries of the
// selected analyzers, so -only runs never report entries outside their scope
// as stale.
func filterBaseline(b *lint.Baseline, selected map[string]bool) *lint.Baseline {
	out := &lint.Baseline{Version: b.Version}
	for _, f := range b.Findings {
		if selected[f.Analyzer] {
			out.Findings = append(out.Findings, f)
		}
	}
	return out
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
