package main

import (
	"sync"
	"sync/atomic"
	"time"

	"dime/internal/obs"
)

// clock is the generator's time source; tests substitute a fake one to pin
// the lateness accounting.
type clock interface {
	Now() time.Time
	// SleepUntil returns once Now() is at or past t.
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return obs.Now() }

func (realClock) SleepUntil(t time.Time) { sleepFor(t.Sub(obs.Now())) }

// opSample is the timing of one open-loop operation. Latency runs from the
// time the operation was due, not from when it was sent, so a stall also
// charges the wait it imposes on the operations queued behind it (no
// coordinated omission); lag is how late the generator sent it.
type opSample struct {
	latency time.Duration
	lag     time.Duration
	err     error
}

// lane is a subset of a schedule's operations, in due order, served by
// workers of its own.
type lane struct {
	ops     []int
	workers int
}

// openLoop runs n operations, operation k due at start + k·interval, on the
// lanes' workers. Within a lane the workers take operations strictly in due
// order; a worker free before its operation is due sleeps until it is, and
// when every worker of the lane is busy the operation waits, which shows as
// lag and latency. It returns once every operation has completed.
func openLoop(clk clock, start time.Time, interval time.Duration, n int, lanes []lane, op func(k int) error) []opSample {
	out := make([]opSample, n)
	var wg sync.WaitGroup
	for _, ln := range lanes {
		next := new(atomic.Int64)
		for w := 0; w < ln.workers; w++ {
			wg.Add(1)
			go func(ops []int) {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(ops) {
						return
					}
					k := ops[i]
					due := start.Add(time.Duration(k) * interval)
					clk.SleepUntil(due)
					sent := clk.Now()
					err := op(k)
					out[k] = opSample{latency: clk.Now().Sub(due), lag: sent.Sub(due), err: err}
				}
			}(ln.ops)
		}
	}
	wg.Wait()
	return out
}

// oneLane puts all n operations in a single lane served by workers.
func oneLane(n, workers int) []lane {
	ops := make([]int, n)
	for i := range ops {
		ops[i] = i
	}
	return []lane{{ops: ops, workers: workers}}
}
