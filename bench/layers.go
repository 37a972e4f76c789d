package main

import (
	"sync"
	"time"

	"dime/internal/obs"
	"dime/internal/serve"
)

// Per-layer numbers come from outside the program: client-side timings
// around each public call, the BeforeJob hook, Result.Stats, the flight
// recorder's span trees and the registry series the server and client
// already emit. Nothing here adds a span inside the program.

// selfOf returns, for each event of a flattened pre-order span tree, its
// self time and self allocation: its own figures minus those of its direct
// children. Summing self time by span name never double-counts, unlike the
// registry's dime.phase.<phase>.seconds sums, which add signature-build's
// per-rule child spans on top of the parent of the same name.
func selfOf(events []obs.FlightEvent) (selfNS, selfBytes []int64) {
	selfNS = make([]int64, len(events))
	selfBytes = make([]int64, len(events))
	var stack []int
	for i, ev := range events {
		selfNS[i] = ev.DurNS
		selfBytes[i] = int64(ev.AllocBytes)
		for len(stack) > 0 && events[stack[len(stack)-1]].Depth >= ev.Depth {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			selfNS[p] -= ev.DurNS
			selfBytes[p] -= int64(ev.AllocBytes)
		}
		stack = append(stack, i)
	}
	return selfNS, selfBytes
}

// spanTotals aggregates the runs of one root span name.
type spanTotals struct {
	runs       int
	durNS      int64
	rootSelfNS int64
	selfNS     map[string]int64
	allocBytes map[string]int64
}

func newSpanTotals() *spanTotals {
	return &spanTotals{selfNS: map[string]int64{}, allocBytes: map[string]int64{}}
}

func (t *spanTotals) add(tr *obs.FlightTrace) {
	self, bytes := selfOf(tr.Events)
	t.runs++
	t.durNS += tr.DurNS
	t.rootSelfNS += self[0]
	for i, ev := range tr.Events[1:] {
		t.selfNS[ev.Name] += self[i+1]
		t.allocBytes[ev.Name] += bytes[i+1]
	}
}

// windowTraces returns the recorder's traces that started at or after
// from. born is when the recorder was created, the origin of its start
// offsets.
func windowTraces(fr *obs.FlightRecorder, born, from time.Time) []*obs.FlightTrace {
	offset := from.Sub(born).Nanoseconds()
	var out []*obs.FlightTrace
	for _, tr := range fr.Snapshot() {
		if tr.StartNS >= offset {
			out = append(out, tr)
		}
	}
	return out
}

// byRoot aggregates traces by root span name.
func byRoot(traces []*obs.FlightTrace) map[string]*spanTotals {
	out := map[string]*spanTotals{}
	for _, tr := range traces {
		t := out[tr.Name]
		if t == nil {
			t = newSpanTotals()
			out[tr.Name] = t
		}
		t.add(tr)
	}
	return out
}

// timings collects durations by key from concurrent operations.
type timings struct {
	mu sync.Mutex
	by map[string][]time.Duration
}

func newTimings() *timings { return &timings{by: map[string][]time.Duration{}} }

func (t *timings) add(key string, d time.Duration) {
	t.mu.Lock()
	t.by[key] = append(t.by[key], d)
	t.mu.Unlock()
}

func (t *timings) get(key string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]time.Duration(nil), t.by[key]...)
}

// statsAgg sums Result.Stats over the discovery results a run fetched.
type statsAgg struct {
	mu       sync.Mutex
	runs     int64
	cands    int64
	posVer   int64
	skipped  int64
	negVer   int64
	filtered int64
	nonPivot int64
}

func (a *statsAgg) add(r *serve.ResultJSON) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.runs++
	a.cands += r.Stats.PositivePairsConsidered
	a.posVer += r.Stats.PositiveVerified
	a.skipped += r.Stats.PositiveSkippedByTransitivity
	a.negVer += r.Stats.NegativeVerified
	a.filtered += r.Stats.PartitionsFilteredBySignature
	if len(r.Partitions) > 1 {
		a.nonPivot += int64(len(r.Partitions) - 1)
	}
}

// regSnap is a reading of the registry series the per-layer metrics use.
type regSnap struct {
	count    map[string]int64
	sum      map[string]float64
	attempts int64
	retries  int64
}

func snapRegistry(reg *obs.Registry) regSnap {
	s := regSnap{count: map[string]int64{}, sum: map[string]float64{}}
	for _, r := range routes {
		h := reg.Histogram("dime.http."+r+".seconds", nil)
		s.count[r] = h.Count()
		s.sum[r] = h.Sum()
	}
	s.attempts = reg.Counter("dime.client.attempts").Value()
	s.retries = reg.Counter("dime.client.retries").Value()
	return s
}

// setCore reports the DIME+ per-layer metrics: mean run time, each phase's
// self time and allocation per run, the root's own self time, and the work
// counters from Result.Stats.
func (r *report) setCore(dime *spanTotals, st *statsAgg) {
	if dime != nil && dime.runs > 0 {
		n := float64(dime.runs)
		r.set("core.run_ms_mean", float64(dime.durNS)/1e6/n)
		r.set("core.root_self_ms_per_run", float64(dime.rootSelfNS)/1e6/n)
		for _, p := range phases {
			r.set("core."+p+".self_ms_per_run", float64(dime.selfNS[p])/1e6/n)
			r.set("core."+p+".alloc_kb_per_run", float64(dime.allocBytes[p])/1024/n)
		}
	}
	if st.runs > 0 {
		n := float64(st.runs)
		r.set("core.candidates_per_run", float64(st.cands)/n)
		r.set("core.positive_verified_per_run", float64(st.posVer)/n)
		r.set("core.negative_verified_per_run", float64(st.negVer)/n)
		if st.cands > 0 {
			r.set("core.transitivity_skip_ratio", float64(st.skipped)/float64(st.cands))
		}
		if st.nonPivot > 0 {
			r.set("core.signature_filtered_ratio", float64(st.filtered)/float64(st.nonPivot))
		}
	}
}

// setProc reports the process metrics over a window of ops operations.
func (r *report) setProc(before, after procSample, ops int, window time.Duration) {
	if ops > 0 {
		r.set("proc.alloc_kb_per_op", float64(after.allocBytes-before.allocBytes)/1024/float64(ops))
	}
	r.set("proc.gc_cycles_per_s", float64(after.gcCycles-before.gcCycles)/window.Seconds())
	r.set("proc.gc_pause_ms_total", float64(after.pauseNS-before.pauseNS)/1e6)
	r.set("proc.gomaxprocs", float64(gomaxprocs()))
}

// setGen reports the open-loop generator's own numbers.
func (r *report) setGen(samples []opSample) {
	r.set("gen.ops", float64(len(samples)))
	v, label := lagTail(samples)
	r.setNote("gen.lag_p99_ms", v, label)
}
