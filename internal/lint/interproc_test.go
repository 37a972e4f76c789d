package lint

import (
	"strings"
	"testing"
)

var rootEntry = []EntryPoint{{Pkg: "", Name: "Discover"}}

func TestDeterSafeFlagsReachableWallClock(t *testing.T) {
	pkg := fixture(t, "dime", "fixture.go", `package dime
import "time"
func Discover() int64 { return tick() }
func tick() int64 { return time.Now().UnixNano() }`)
	diags := expect(t, pkg, DeterSafe{Entries: rootEntry}, 1)
	msg := diags[0].Message
	if !strings.Contains(msg, "time.Now (wall clock)") || !strings.Contains(msg, "dime.Discover -> dime.tick") {
		t.Errorf("message should name the source and chain: %s", msg)
	}
	if diags[0].Pos.Line != 4 {
		t.Errorf("finding at line %d, want 4 (the source site)", diags[0].Pos.Line)
	}
}

func TestDeterSafeDefaultEntriesCoverRootDiscover(t *testing.T) {
	pkg := fixture(t, "dime", "fixture.go", `package dime
import "os"
func Discover() string { return os.Getenv("HOME") }`)
	expect(t, pkg, DeterSafe{}, 1)
}

func TestDeterSafeCleanOnPureCode(t *testing.T) {
	pkg := fixture(t, "dime", "fixture.go", `package dime
import "sort"
func Discover(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}
// unreferenced from any entry point: its clock read is not a finding.
func debugStamp() int64 { return 0 }`)
	expect(t, pkg, DeterSafe{Entries: rootEntry}, 0)
}

func TestDeterSafeNotTaintedByUnreachableSource(t *testing.T) {
	pkg := fixture(t, "dime", "fixture.go", `package dime
import "time"
func Discover() int { return 1 }
func stamp() int64 { return time.Now().UnixNano() }`)
	expect(t, pkg, DeterSafe{Entries: rootEntry}, 0)
}

func TestDeterSafeTaintsThroughInterfaceDispatch(t *testing.T) {
	pkg := fixture(t, "dime", "fixture.go", `package dime
import "math/rand"
type order interface{ next() int }
type shuffled struct{}
func (shuffled) next() int { return rand.Int() }
type fixed struct{}
func (fixed) next() int { return 7 }
func Discover(o order) int { return o.next() }`)
	diags := expect(t, pkg, DeterSafe{Entries: rootEntry}, 1)
	if !strings.Contains(diags[0].Message, "process-global RNG") || !strings.Contains(diags[0].Message, "dime.shuffled.next") {
		t.Errorf("want global-RNG finding through interface dispatch, got: %s", diags[0].Message)
	}
}

func TestDeterSafeSeededRandIsNotASource(t *testing.T) {
	pkg := fixture(t, "dime", "fixture.go", `package dime
import "math/rand"
func Discover(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Int()
}`)
	expect(t, pkg, DeterSafe{Entries: rootEntry}, 0)
}

func TestDeterSafeSuppressedAtSource(t *testing.T) {
	pkg := fixture(t, "dime", "fixture.go", `package dime
import "time"
func Discover() int64 { return tick() }
func tick() int64 {
	//lint:ignore detersafe fixture: timing metadata only
	return time.Now().UnixNano()
}`)
	expect(t, pkg, DeterSafe{Entries: rootEntry}, 0)
}

func TestDeterSafeHonorsMapIterSuppression(t *testing.T) {
	// An ignore at a map-range site asserts the order is harmless, so the
	// site must not surface through the call graph.
	pkg := fixture(t, "dime", "fixture.go", `package dime
func Discover(m map[string]int) []string {
	var out []string
	//lint:ignore detersafe fixture: order does not matter here
	for k := range m {
		out = append(out, k)
	}
	return out
}`)
	expect(t, pkg, DeterSafe{Entries: rootEntry}, 0)
}

func TestDeterSafeFlagsMapEscapeAndFanOut(t *testing.T) {
	pkg := fixture(t, "dime", "fixture.go", `package dime
func Discover(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}`)
	diags := expect(t, pkg, DeterSafe{Entries: rootEntry}, 1)
	if !strings.Contains(diags[0].Message, "map iteration order escapes") {
		t.Errorf("want map-escape finding, got: %s", diags[0].Message)
	}
}

func TestPanicPropFlagsReachablePanic(t *testing.T) {
	pkg := fixture(t, "dime/internal/core", "fixture.go", `package core
func Outer() { inner() }
func inner() { panic("boom") }`)
	diags := expect(t, pkg, PanicProp{}, 2)
	if diags[0].Pos.Line != 2 {
		t.Errorf("finding at line %d, want 2 (the exported decl)", diags[0].Pos.Line)
	}
	if !strings.Contains(diags[0].Message, "internal/core.Outer -> internal/core.inner") {
		t.Errorf("message should show the chain: %s", diags[0].Message)
	}
	if diags[1].Pos.Line != 3 || !strings.Contains(diags[1].Message, "panic in library function inner") {
		t.Errorf("want the direct finding at the panic site, got %v", diags[1])
	}
}

func TestPanicPropDirectPanicIsPanicfreeTerritory(t *testing.T) {
	// A panic in the exported function itself is the per-site panic-free
	// finding, reported once at the panic; reachability is only reported
	// through calls.
	pkg := fixture(t, "dime/internal/core", "fixture.go", `package core
func Outer() { panic("boom") }`)
	diags := expect(t, pkg, PanicProp{}, 1)
	if !strings.Contains(diags[0].Message, "panic in library function Outer") || diags[0].Pos.Column != 16 {
		t.Errorf("want the direct finding at the panic site 2:16, got %v", diags[0])
	}
}

func TestPanicPropMustAndRecoverAbsorb(t *testing.T) {
	pkg := fixture(t, "dime/internal/core", "fixture.go", `package core
func MustParse(s string) int {
	if s == "" {
		panic("empty")
	}
	return len(s)
}
func FromMust() int { return MustParse("x") }
func Guarded() {
	defer func() { recover() }()
	inner()
}
func inner() { panic("boom") }`)
	// The boundaries stop propagation, so only inner's own panic remains.
	diags := expect(t, pkg, PanicProp{}, 1)
	if diags[0].Pos.Line != 13 || !strings.Contains(diags[0].Message, "panic in library function inner") {
		t.Errorf("want only the direct finding in inner, got %v", diags[0])
	}
}

func TestPanicPropThroughInterfaceDispatch(t *testing.T) {
	pkg := fixture(t, "dime/internal/core", "fixture.go", `package core
type codec interface{ decode(string) int }
type strict struct{}
func (strict) decode(s string) int { panic("bad input") }
func Decode(c codec, s string) int { return c.decode(s) }`)
	diags := expect(t, pkg, PanicProp{}, 2) // the direct panic in decode, then Decode
	if !strings.Contains(diags[1].Message, "internal/core.strict.decode") {
		t.Errorf("want panic reached through interface dispatch, got: %s", diags[0].Message)
	}
}

func TestPanicPropTransitiveChain(t *testing.T) {
	pkg := fixture(t, "dime/internal/core", "fixture.go", `package core
func Top() { mid() }
func mid() { deep() }
func deep() { panic("boom") }`)
	diags := expect(t, pkg, PanicProp{}, 2) // Top's reachability, then deep's panic
	want := "internal/core.Top -> internal/core.mid -> internal/core.deep"
	if !strings.Contains(diags[0].Message, want) {
		t.Errorf("chain = %s, want %s", diags[0].Message, want)
	}
}
