package lint

import (
	"strings"
	"testing"
)

// buildFacts type-checks one fixture package and returns its lock facts.
func buildFacts(t *testing.T, src string) *LockFacts {
	t.Helper()
	pkg := fixture(t, "dime", "fixture.go", src)
	return BuildLockFacts(BuildCallGraph([]*Package{pkg}))
}

func TestLockFactsDeferUnlockInLoopFlagged(t *testing.T) {
	pkg := fixture(t, "dime", "fixture.go", `package dime
import "sync"
type S struct{ mu sync.Mutex }
func (s *S) Drain(xs []int) {
	for range xs {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
}`)
	diags := expect(t, pkg, LockOrder{}, 1)
	if !strings.Contains(diags[0].Message, "defer releases dime.S.mu inside a loop") {
		t.Errorf("want defer-in-loop finding, got: %s", diags[0].Message)
	}
}

func TestLockFactsIIFEInLoopNotFlagged(t *testing.T) {
	// The per-iteration IIFE is its own frame: its deferred unlock runs at
	// the end of every iteration, so the idiom is correct and must be clean.
	pkg := fixture(t, "dime", "fixture.go", `package dime
import "sync"
type S struct{ mu sync.Mutex }
func (s *S) Drain(xs []int) {
	for range xs {
		func() {
			s.mu.Lock()
			defer s.mu.Unlock()
		}()
	}
}`)
	expect(t, pkg, LockOrder{}, 0)
}

func TestLockFactsRLockRLockUnderWriterPressure(t *testing.T) {
	// A re-entrant RLock deadlocks only when a writer queues between the two
	// reads; the message must say so rather than claim a plain self-deadlock.
	pkg := fixture(t, "dime", "fixture.go", `package dime
import "sync"
type S struct{ mu sync.RWMutex }
func (s *S) Nested() {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.mu.RLock()
	defer s.mu.RUnlock()
}`)
	diags := expect(t, pkg, LockOrder{}, 1)
	if !strings.Contains(diags[0].Message, "deadlocks if a writer is waiting between the two RLocks") {
		t.Errorf("want reader-reader warning, got: %s", diags[0].Message)
	}
}

func TestLockFactsGoroutineBodyNotChargedToParent(t *testing.T) {
	// A `go func(){...}` body runs on its own stack after the parent
	// returns: its acquisition of the same mutex is concurrency, not
	// re-entrance, and must not produce a self-deadlock finding.
	pkg := fixture(t, "dime", "fixture.go", `package dime
import "sync"
type S struct{ mu sync.Mutex }
func (s *S) Spawn(done chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		s.mu.Lock()
		s.mu.Unlock()
		close(done)
	}()
}`)
	expect(t, pkg, LockOrder{}, 0)
}

func TestLockFactsUnsupportedShapesFailClosed(t *testing.T) {
	// Every lock operation the facts cannot key is a lockorder finding at
	// the call in library code, so coverage cannot shrink silently; test
	// code is exempt, like the rest of lockorder and heldcall.
	for _, tc := range []struct {
		name, src string
		calls     []string // the unsupported calls, in source order
	}{
		{"package-level mutex", `var mu sync.Mutex
func F() {
	mu.Lock()
	mu.Unlock()
}`, []string{"mu.Lock", "mu.Unlock"}},
		{"local mutex", `type T struct{ mu sync.Mutex }
func (t *T) F() {
	mu := t.mu
	mu.Lock()
	mu.Unlock()
}`, []string{"mu.Lock", "mu.Unlock"}},
		{"promoted method of an embedded mutex", `type T struct{ sync.Mutex }
func (t *T) F() {
	t.Lock()
	t.Unlock()
}`, []string{"t.Lock", "t.Unlock"}},
		{"promoted field", `type inner struct{ mu sync.Mutex }
type T struct{ inner }
func (t *T) F() {
	t.mu.Lock()
	t.mu.Unlock()
}`, []string{"t.mu.Lock", "t.mu.Unlock"}},
		{"indexed mutex", `type T struct{ mus []sync.RWMutex }
func (t *T) F() {
	t.mus[0].RLock()
	t.mus[0].RUnlock()
}`, []string{"t.mus[0].RLock", "t.mus[0].RUnlock"}},
		{"TryLock and TryRLock", `type T struct {
	mu sync.Mutex
	rw sync.RWMutex
}
func (t *T) F() {
	if t.mu.TryLock() {
		t.mu.Unlock()
	}
	if t.rw.TryRLock() {
		t.rw.RUnlock()
	}
}`, []string{"t.mu.TryLock", "t.rw.TryRLock"}},
		{"sync.Locker", `type T struct{ l sync.Locker }
func (t *T) F() {
	t.l.Lock()
	t.l.Unlock()
}`, []string{"t.l.Lock", "t.l.Unlock"}},
		{"sync.Once.Do", `type T struct{ once sync.Once }
func (t *T) F() {
	t.once.Do(func() {})
}`, []string{"t.once.Do"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := "package dime\nimport \"sync\"\n" + tc.src
			diags := expect(t, fixture(t, "dime", "fixture.go", src), LockOrder{}, len(tc.calls))
			for i, d := range diags {
				if want := "unsupported lock shape: " + tc.calls[i] + " in dime."; !strings.HasPrefix(d.Message, want) {
					t.Errorf("finding %d = %q, want prefix %q", i, d.Message, want)
				}
			}
			expect(t, fixture(t, "dime", "fixture_test.go", src), LockOrder{}, 0)
		})
	}
}

func TestLockFactsSummaryPropagatesThroughChain(t *testing.T) {
	// mayAcquire reaches a fixpoint through static call chains: Top never
	// touches a mutex directly but may acquire dime.S.mu two hops down.
	lf := buildFacts(t, `package dime
import "sync"
type S struct{ mu sync.Mutex }
func (s *S) Top() { s.mid() }
func (s *S) mid() { s.leaf() }
func (s *S) leaf() {
	s.mu.Lock()
	s.mu.Unlock()
}`)
	if _, ok := lf.mayAcquire["dime.S.Top"]["dime.S.mu"]; !ok {
		t.Errorf("Top should inherit leaf's acquisition, got: %+v", lf.mayAcquire["dime.S.Top"])
	}
}
