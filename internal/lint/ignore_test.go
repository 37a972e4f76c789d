package lint

import (
	"strings"
	"testing"
)

// The fixtures below exercise the //lint:ignore directive's edge cases: a
// directive as the first line of a file, the diagnostic for a reasonless
// directive, and a directive scoped to one analyzer on a line where a
// second analyzer also fires.

// emitRooted is detersafe rooted at the fixtures' emit function, so it
// reports their map-range appends.
var emitRooted = DeterSafe{Entries: []EntryPoint{{Pkg: "internal/core", Name: "emit"}}}

func TestIgnoreOnFirstLineOfFile(t *testing.T) {
	// A directive as the file's first line (before the package clause) must
	// parse, bind to line 2, and not leak onto findings further down.
	pkg := fixture(t, "dime/internal/core", "fixture.go", `//lint:ignore detersafe fixture: binds to the package clause, not the loop
package core
func emit(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}`)
	diags := expect(t, pkg, emitRooted, 1)
	if diags[0].Pos.Line != 5 {
		t.Errorf("finding at line %d, want 5 (directive must not reach it)", diags[0].Pos.Line)
	}
}

func TestIgnoreWithoutReasonIsADiagnosticAtTheDirective(t *testing.T) {
	pkg := fixture(t, "dime/internal/core", "fixture.go", `package core
func emit(m map[string]int) []string {
	var out []string
	//lint:ignore detersafe
	for k := range m {
		out = append(out, k)
	}
	return out
}`)
	diags := expect(t, pkg, emitRooted, 2)
	if diags[0].Analyzer != "lint" || !strings.Contains(diags[0].Message, "malformed") {
		t.Fatalf("want malformed-directive diagnostic first, got %v", diags[0])
	}
	if diags[0].Pos.Line != 4 || diags[0].Pos.Column != 2 {
		t.Errorf("malformed directive reported at %d:%d, want 4:2 (the directive itself)",
			diags[0].Pos.Line, diags[0].Pos.Column)
	}
	// And crucially the reasonless directive suppresses nothing.
	if diags[1].Analyzer != emitRooted.Name() || diags[1].Pos.Line != 5 {
		t.Errorf("map-range finding should survive, got %v", diags[1])
	}
}

func TestIgnoreScopedToOneAnalyzerLeavesOthersFiring(t *testing.T) {
	// One source line triggering two analyzers: the float comparison and the
	// map range sit on the same line, the directive names only one of them.
	src := `package core
func emit(m map[string]int, x float64) []string {
	var out []string
	//lint:ignore float-threshold fixture: bit-exact sentinel comparison
	if x == 0.5 { for k := range m { out = append(out, k) } }
	return out
}`
	pkg := fixture(t, "dime/internal/core", "fixture.go", src)
	diags := Run([]*Package{pkg}, []Analyzer{emitRooted, FloatCmp{}})
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want only the detersafe one: %v", len(diags), diags)
	}
	if diags[0].Analyzer != emitRooted.Name() || diags[0].Pos.Line != 5 {
		t.Errorf("surviving finding = %v, want detersafe at line 5", diags[0])
	}

	// Widening the directive to "all" silences both.
	pkg = fixture(t, "dime/internal/core", "fixture.go", strings.Replace(src, "float-threshold fixture", "all fixture", 1))
	if diags := Run([]*Package{pkg}, []Analyzer{emitRooted, FloatCmp{}}); len(diags) != 0 {
		t.Errorf("all-scoped directive should silence both analyzers, got %v", diags)
	}
}
