package difftest

// Goroutine-leak checking for the differential suites: snapshot the count
// before standing a target up, assert it settles back after tearing it down.
// A leaked worker, long-poll handler or retry loop shows up as a count that
// never returns to baseline, and the failure carries every goroutine's stack
// so the leaked one is identifiable directly from the test log.

import (
	"runtime"
	"time"
)

// GoroutineSnapshot records the goroutine count at a moment the caller
// considers quiescent — before spawning servers, clients or workers.
type GoroutineSnapshot struct {
	// Baseline is the count at snapshot time.
	Baseline int
}

// Goroutines snapshots the current goroutine count.
func Goroutines() GoroutineSnapshot {
	var s GoroutineSnapshot
	s.Baseline = runtime.NumGoroutine()
	return s
}

// CheckReleased polls until the goroutine count returns to the snapshot's
// baseline (plus a small slack for runtime and net/http housekeeping
// goroutines that are not per-request), failing the test with a full stack
// dump if it has not settled within a 5s budget. Teardown is asynchronous —
// cancellation propagates, connections unwind — so a settle loop, not a
// single reading, is the correct assertion.
func (s GoroutineSnapshot) CheckReleased(t TB) {
	t.Helper()
	const (
		slack = 5
		tick  = 10 * time.Millisecond
		ticks = 500 // × 10ms = 5s budget
	)
	n := 0
	for i := 0; i <= ticks; i++ {
		runtime.GC() // nudge finalizer-driven conn cleanup
		n = runtime.NumGoroutine()
		if n <= s.Baseline+slack {
			return
		}
		time.Sleep(tick)
	}
	t.Fatalf("goroutine leak: %d running, baseline %d (+%d slack) after %v\n--- all goroutine stacks ---\n%s",
		n, s.Baseline, slack, ticks*tick, stacks())
}

// stacks renders every goroutine's stack, growing the buffer until the dump
// fits. It runs only on the failure path, so its allocations do not matter.
func stacks() string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return string(buf[:n])
		}
		buf = make([]byte, 2*len(buf))
	}
}
