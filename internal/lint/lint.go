// Package lint is a stdlib-only static-analysis framework (go/parser +
// go/ast + go/types, no x/tools) that enforces the DIME code invariants no
// other gate checks: deterministic result emission, epsilon-safe float
// threshold comparisons, no silently dropped errors from this module's own
// functions, panic-free library paths, and lock-order, blocking, goroutine
// lifetime and context hygiene in the concurrent code. Lock copies are left
// to go vet's copylocks check, allocation counts to the AllocsPerRun tests
// and benchmarks.
//
// Load type-checks every package of the module; Run hands the whole set,
// with its static call graph (see BuildCallGraph), to each Analyzer and
// reports file:line diagnostics. On top of the graph, detersafe proves the
// result-producing entry points cannot transitively reach nondeterminism
// sources (map iteration order escaping into results among them),
// panicprop reports library panics and the exported API from which one is
// reachable, and the locklint suite (lockorder, heldcall, goleak, ctxflow)
// checks the lock facts derived from the same graph.
//
// A finding can be suppressed with a comment on the same line or the line
// directly above it:
//
//	//lint:ignore <analyzer|all> <reason>
//
// The reason is mandatory, and the analyzer must be "all" or a name from
// All(); any other directive is itself a diagnostic.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned at a file:line:col.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Analyzer names the analyzer that produced it.
	Analyzer string
	// Message describes the violation and the expected fix.
	Message string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one lint pass over the whole loaded package set.
type Analyzer interface {
	// Name is the short identifier used in diagnostics and ignore directives.
	Name() string
	// Doc is a one-line description for -list output.
	Doc() string
	// Run analyzes the packages via the ModulePass and reports findings
	// through ModulePass.Reportf.
	Run(mp *ModulePass)
}

// ModulePass carries the whole loaded package set and its call graph to an
// Analyzer. All packages share one FileSet (as Load guarantees).
type ModulePass struct {
	// Fset translates token positions for every loaded package.
	Fset *token.FileSet
	// Pkgs holds the loaded lint units, sorted by path.
	Pkgs []*Package
	// Module is the module path.
	Module string
	// Graph is the module call graph over Pkgs.
	Graph *CallGraph

	analyzer  string
	sink      *[]Diagnostic
	lockFacts *LockFacts
}

// Reportf records a finding at pos.
func (mp *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	*mp.sink = append(*mp.sink, Diagnostic{
		Pos:      mp.Fset.Position(pos),
		Analyzer: mp.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes the analyzers over the packages, applies //lint:ignore
// suppression, and returns the surviving diagnostics sorted by position.
func Run(pkgs []*Package, analyzers []Analyzer) []Diagnostic {
	var all []Diagnostic
	merged := ignoreSet{}
	for _, pkg := range pkgs {
		ignores, malformed := collectIgnores(pkg)
		all = append(all, malformed...)
		for file, lines := range ignores {
			if existing, ok := merged[file]; ok {
				for line, names := range lines {
					existing[line] = append(existing[line], names...)
				}
			} else {
				merged[file] = lines
			}
		}
	}
	var raw []Diagnostic
	if len(pkgs) > 0 {
		mp := &ModulePass{
			Fset:   pkgs[0].Fset,
			Pkgs:   pkgs,
			Module: pkgs[0].Module,
			Graph:  BuildCallGraph(pkgs),
			sink:   &raw,
		}
		for _, a := range analyzers {
			mp.analyzer = a.Name()
			a.Run(mp)
		}
	}
	for _, d := range raw {
		if !merged.suppresses(d) {
			all = append(all, d)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return all
}

// ignoreSet maps file -> line -> analyzer names suppressed at that line
// ("all" suppresses every analyzer).
type ignoreSet map[string]map[int][]string

func (s ignoreSet) suppresses(d Diagnostic) bool {
	lines := s[d.Pos.Filename]
	if lines == nil {
		return false
	}
	for _, name := range lines[d.Pos.Line] {
		if name == "all" || name == d.Analyzer {
			return true
		}
	}
	return false
}

// collectIgnores scans every comment in the package for //lint:ignore
// directives. A directive sharing its line with code suppresses findings on
// that line; a directive alone on its line suppresses the line below
// instead. Malformed directives (no analyzer name or no reason) and
// directives naming an analyzer outside All() are returned as diagnostics
// so they cannot silently disable nothing.
func collectIgnores(pkg *Package) (ignoreSet, []Diagnostic) {
	known := map[string]bool{"all": true}
	for _, a := range All() {
		known[a.Name()] = true
	}
	set := ignoreSet{}
	var bad []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Pos:      pos,
						Analyzer: "lint",
						Message:  "malformed //lint:ignore directive: want \"//lint:ignore <analyzer|all> <reason>\"",
					})
					continue
				}
				if !known[fields[0]] {
					bad = append(bad, Diagnostic{
						Pos:      pos,
						Analyzer: "lint",
						Message:  fmt.Sprintf("//lint:ignore names unknown analyzer %q: want \"all\" or a name from dimelint -list", fields[0]),
					})
					continue
				}
				line := pos.Line
				if standsAlone(pkg.Fset, f, c) {
					line++
				}
				byLine := set[pos.Filename]
				if byLine == nil {
					byLine = map[int][]string{}
					set[pos.Filename] = byLine
				}
				byLine[line] = append(byLine[line], fields[0])
			}
		}
	}
	return set, bad
}

// standsAlone reports whether the comment shares its line with no syntax
// node: code before it (a trailing directive) binds the directive to its
// own line.
func standsAlone(fset *token.FileSet, f *ast.File, c *ast.Comment) bool {
	cline := fset.Position(c.Pos()).Line
	alone := true
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || !alone {
			return false
		}
		if n.Pos() == token.NoPos {
			return true
		}
		if _, isFile := n.(*ast.File); !isFile && fset.Position(n.Pos()).Line == cline {
			alone = false
			return false
		}
		return true
	})
	return alone
}
