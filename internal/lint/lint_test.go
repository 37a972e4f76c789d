package lint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// fixtureFset and fixtureStd are shared by every fixture: the source
// importer type-checks each standard-library package once per test binary
// instead of once per fixture. No test in this package runs in parallel.
var (
	fixtureFset = token.NewFileSet()
	fixtureStd  = importer.ForCompiler(fixtureFset, "source", nil)
)

// fixture type-checks one in-memory source file as a module package and
// returns it as a lint unit. path controls which entry points match (e.g.
// detersafe's default roots include internal/core.DIMEPlus); filename
// controls test-file exemptions.
func fixture(t *testing.T, path, filename, src string) *Package {
	t.Helper()
	f, err := parser.ParseFile(fixtureFset, filename, src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	pkg := &Package{
		Path:   path,
		Module: "dime",
		Fset:   fixtureFset,
		Files:  []*ast.File{f},
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
		},
	}
	conf := types.Config{
		Importer: fixtureStd,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	pkg.Types, _ = conf.Check(path, fixtureFset, pkg.Files, pkg.Info)
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("fixture has type errors: %v", pkg.TypeErrors)
	}
	return pkg
}

// expect runs the analyzer and asserts the diagnostic count, returning the
// diagnostics for further checks.
func expect(t *testing.T, pkg *Package, a Analyzer, want int) []Diagnostic {
	t.Helper()
	diags := Run([]*Package{pkg}, []Analyzer{a})
	if len(diags) != want {
		t.Fatalf("%s: got %d diagnostics, want %d:\n%v", a.Name(), len(diags), want, diags)
	}
	return diags
}

// The map-iteration fixtures below run through detersafe, which reports an
// escaping map order wherever a result entry point reaches it.

func TestMapIterFlagsUnsortedAppend(t *testing.T) {
	pkg := fixture(t, "dime/internal/core", "fixture.go", `package core
func emit(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
func DIMEPlus(m map[string]int) []string { return emit(m) }`)
	diags := expect(t, pkg, DeterSafe{}, 1)
	if !strings.Contains(diags[0].Message, `"out"`) {
		t.Errorf("message should name the slice: %s", diags[0].Message)
	}
	if diags[0].Pos.Line != 4 {
		t.Errorf("finding at line %d, want 4", diags[0].Pos.Line)
	}
}

func TestMapIterAllowsSortedAppendAndPerKeyWrites(t *testing.T) {
	pkg := fixture(t, "dime/internal/core", "fixture.go", `package core
import "sort"
func emit(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
func grow(m map[string][]int) {
	for k := range m {
		m[k] = append(m[k], 0)
	}
}
func DIMEPlus(m map[string]int, g map[string][]int) []string {
	grow(g)
	return emit(m)
}`)
	expect(t, pkg, DeterSafe{}, 0)
}

func TestMapIterIgnoresNonResultPackages(t *testing.T) {
	// No result entry point reaches this package, so its map order never
	// reaches a result.
	pkg := fixture(t, "dime/internal/metrics", "fixture.go", `package metrics
func emit(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
func Emit(m map[string]int) []string { return emit(m) }`)
	expect(t, pkg, DeterSafe{}, 0)
}

func TestFloatCmpFlagsEqualityAndThresholds(t *testing.T) {
	pkg := fixture(t, "dime/internal/rules", "fixture.go", `package rules
type pred struct{ Threshold float64 }
func eval(s float64, p pred) bool {
	if s == 0.75 {
		return true
	}
	return s >= p.Threshold
}`)
	diags := expect(t, pkg, FloatCmp{}, 2)
	if !strings.Contains(diags[0].Message, "sim.Eq") {
		t.Errorf("equality finding should point at sim.Eq: %s", diags[0].Message)
	}
	if !strings.Contains(diags[1].Message, "sim.AtLeast") {
		t.Errorf("threshold finding should point at sim.AtLeast: %s", diags[1].Message)
	}
}

func TestFloatCmpAllowsIntAndOrdinaryComparisons(t *testing.T) {
	pkg := fixture(t, "dime/internal/rules", "fixture.go", `package rules
func eval(n int, s, limit float64) bool {
	if n == 3 {
		return true
	}
	if s == 0 || limit <= 0 {
		return false // exact-zero guards are exempt
	}
	return s > limit && s < 2*limit
}`)
	expect(t, pkg, FloatCmp{}, 0)
}

func TestErrCheckFlagsDroppedModuleErrors(t *testing.T) {
	pkg := fixture(t, "dime/internal/rules", "fixture.go", `package rules
import "fmt"
func Parse(s string) (int, error) { return 0, nil }
func use() {
	Parse("x")
	fmt.Println("stdlib calls are out of scope")
}`)
	diags := expect(t, pkg, ErrCheck{}, 1)
	if !strings.Contains(diags[0].Message, "rules.Parse") {
		t.Errorf("finding should name the callee: %s", diags[0].Message)
	}
}

func TestErrCheckAllowsHandledAndExplicitlyIgnoredErrors(t *testing.T) {
	pkg := fixture(t, "dime/internal/rules", "fixture.go", `package rules
func Parse(s string) (int, error) { return 0, nil }
func use() error {
	if _, err := Parse("x"); err != nil {
		return err
	}
	_, _ = Parse("y")
	return nil
}`)
	expect(t, pkg, ErrCheck{}, 0)
}

// The panic-free fixtures below run through panicprop, which reports every
// direct library panic at its site.

func TestPanicFreeFlagsLibraryPanics(t *testing.T) {
	pkg := fixture(t, "dime/internal/rules", "fixture.go", `package rules
func Load(s string) int {
	if s == "" {
		panic("empty")
	}
	return len(s)
}`)
	diags := expect(t, pkg, PanicProp{}, 1)
	if !strings.Contains(diags[0].Message, "panic in library function Load") {
		t.Errorf("finding should name the function: %s", diags[0].Message)
	}
	if diags[0].Pos.Line != 4 {
		t.Errorf("finding at line %d, want 4 (the panic site)", diags[0].Pos.Line)
	}
}

func TestPanicFreeAllowsMustConstructorsAndTests(t *testing.T) {
	pkg := fixture(t, "dime/internal/rules", "fixture.go", `package rules
func MustLoad(s string) int {
	check := func() {
		if s == "" {
			panic("empty")
		}
	}
	check()
	return len(s)
}`)
	expect(t, pkg, PanicProp{}, 0)

	pkg = fixture(t, "dime/internal/rules", "fixture_test.go", `package rules
func helper(s string) int {
	if s == "" {
		panic("empty")
	}
	return len(s)
}`)
	expect(t, pkg, PanicProp{}, 0)
}

func TestIgnoreDirectiveSuppressesFinding(t *testing.T) {
	pkg := fixture(t, "dime/internal/rules", "fixture.go", `package rules
func eval(s float64) bool {
	return s == 0.5 //lint:ignore float-threshold quantiles are copied, not recomputed
}
func evalAbove(s float64) bool {
	//lint:ignore all epsilon would change documented semantics here
	return s == 1
}`)
	expect(t, pkg, FloatCmp{}, 0)
}

func TestIgnoreDirectiveScopedToAnalyzerAndLine(t *testing.T) {
	// errcheck-lite does not run here, but it is a name from All(), so the
	// directive is valid: it just suppresses nothing.
	pkg := fixture(t, "dime/internal/rules", "fixture.go", `package rules
func eval(s float64) bool {
	return s == 0.5 //lint:ignore errcheck-lite wrong analyzer name
}
func evalNext(s float64) bool {
	return s == 1
}`)
	expect(t, pkg, FloatCmp{}, 2)

	// A directive naming an analyzer outside All() (a typo, or a retired
	// analyzer) suppresses nothing either, and is reported at the directive.
	pkg = fixture(t, "dime/internal/rules", "fixture.go", `package rules
func eval(s float64) bool {
	return s == 0.5 //lint:ignore float-treshold misspelled analyzer name
}`)
	diags := expect(t, pkg, FloatCmp{}, 2)
	if diags[0].Analyzer != (FloatCmp{}).Name() || diags[0].Pos.Line != 3 {
		t.Errorf("float finding under the unknown directive should survive, got %v", diags[0])
	}
	if diags[1].Analyzer != "lint" || !strings.Contains(diags[1].Message, `unknown analyzer "float-treshold"`) ||
		diags[1].Pos.Line != 3 || diags[1].Pos.Column != 18 {
		t.Errorf("want the unknown-analyzer diagnostic at the directive 3:18, got %v", diags[1])
	}
}

func TestLoadResolvesModulePackages(t *testing.T) {
	pkgs, err := Load(".", []string{"./internal/sim", "./internal/lint"})
	if err != nil {
		t.Fatal(err)
	}
	byPath := map[string]*Package{}
	for _, p := range pkgs {
		byPath[p.Path] = p
		if len(p.TypeErrors) > 0 {
			t.Errorf("%s: unexpected type errors: %v", p.Path, p.TypeErrors)
		}
	}
	simPkg := byPath["dime/internal/sim"]
	if simPkg == nil {
		t.Fatalf("missing dime/internal/sim in %v", pkgs)
	}
	if simPkg.Module != "dime" {
		t.Errorf("module = %q, want dime", simPkg.Module)
	}
	// internal/lint imports go/types etc. and internal/sim has in-package
	// tests; both must resolve through the stdlib source importer.
	if byPath["dime/internal/lint"] == nil {
		t.Error("missing dime/internal/lint")
	}
}

func TestMalformedIgnoreDirectiveIsItselfAFinding(t *testing.T) {
	pkg := fixture(t, "dime/internal/rules", "fixture.go", `package rules
//lint:ignore float-threshold
func eval() {}`)
	diags := Run([]*Package{pkg}, nil)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "malformed") {
		t.Fatalf("want one malformed-directive diagnostic, got %v", diags)
	}
}
