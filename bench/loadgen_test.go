package main

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a manual clock: sleeping jumps to the wake-up time plus a
// fixed timer overshoot, and operations advance it by their duration.
type fakeClock struct {
	mu        sync.Mutex
	now       time.Time
	overshoot time.Duration
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.now.Before(t) {
		c.now = t.Add(c.overshoot)
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// A stall charges every operation queued behind it from its due time: op 0
// takes 350 ms on the only worker, so ops 1–3, due at 100, 200 and 300 ms,
// are sent late and their latency includes the wait.
func TestOpenLoopTimesFromDueTimeThroughAStall(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	start := clk.Now()
	durs := []time.Duration{350 * time.Millisecond, 10 * time.Millisecond, 10 * time.Millisecond, 10 * time.Millisecond}
	got := openLoop(clk, start, 100*time.Millisecond, len(durs), oneLane(len(durs), 1), func(k int) error {
		clk.advance(durs[k])
		return nil
	})
	want := []opSample{
		{latency: 350 * time.Millisecond, lag: 0},
		{latency: 260 * time.Millisecond, lag: 250 * time.Millisecond},
		{latency: 170 * time.Millisecond, lag: 160 * time.Millisecond},
		{latency: 80 * time.Millisecond, lag: 70 * time.Millisecond},
	}
	for k := range want {
		if got[k] != want[k] {
			t.Errorf("op %d: got %+v, want %+v", k, got[k], want[k])
		}
	}
}

// Timer overshoot is generator lateness: it shows as lag, and because
// latency runs from the due time, in the latency too.
func TestOpenLoopCountsTimerOvershootAsLag(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0), overshoot: time.Millisecond}
	start := clk.Now()
	got := openLoop(clk, start, 100*time.Millisecond, 3, oneLane(3, 1), func(int) error {
		clk.advance(10 * time.Millisecond)
		return nil
	})
	for k, s := range got {
		want := opSample{latency: 11 * time.Millisecond, lag: time.Millisecond}
		if k == 0 {
			want = opSample{latency: 10 * time.Millisecond} // due at the start: no sleep
		}
		if s != want {
			t.Errorf("op %d: got %+v, want %+v", k, s, want)
		}
	}
}

// With several lanes and workers every operation still runs exactly once.
func TestOpenLoopRunsEachOperationOnce(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]int{}
	var even, odd []int
	for k := 0; k < 200; k++ {
		if k%2 == 0 {
			even = append(even, k)
		} else {
			odd = append(odd, k)
		}
	}
	lanes := []lane{{ops: even, workers: 2}, {ops: odd, workers: 1}}
	samples := openLoop(realClock{}, realClock{}.Now(), 0, 200, lanes, func(k int) error {
		mu.Lock()
		seen[k]++
		mu.Unlock()
		return nil
	})
	if len(samples) != 200 || len(seen) != 200 {
		t.Fatalf("%d samples, %d distinct operations; want 200 of each", len(samples), len(seen))
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("operation %d ran %d times", k, n)
		}
	}
}
