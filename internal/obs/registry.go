package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a process-wide metrics store: named counters, gauges and
// fixed-bucket histograms, all updated with atomics so hot paths never take
// a lock. It dumps in Prometheus text format (WritePrometheus) for the
// /metrics endpoint of ServeDebug.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

var std = NewRegistry()

// named pairs a metric with its registry name for sorted dumps.
type named[T any] struct {
	name string
	v    T
}

// Default returns the shared process-wide registry the CLI tools publish.
func Default() *Registry { return std }

// Counter is a monotonically increasing int64.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable float64 (worker counts, queue depths, last run sizes).
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram: counts per upper bound plus an
// overflow bucket, a total count and a value sum. Observations are atomic.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last bucket is +Inf
	total  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// LatencyBuckets is the default bound set for phase latencies, in seconds:
// a microsecond to a minute on a roughly logarithmic grid.
var LatencyBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// NewHistogram returns a standalone histogram (not attached to a registry)
// over the given bucket upper bounds; nil or empty bounds fall back to
// LatencyBuckets. The bounds are copied and sorted ascending.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = LatencyBuckets
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	idx := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v; len(bounds) = overflow
	h.counts[idx].Add(1)
	h.total.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Buckets returns the upper bounds and the (non-cumulative) per-bucket
// counts; the final count is the overflow bucket (+Inf).
func (h *Histogram) Buckets() (bounds []float64, counts []int64) {
	bounds = append(bounds, h.bounds...)
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return bounds, counts
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the observed values by
// linear interpolation inside the bucket holding the target rank — the same
// estimate Prometheus's histogram_quantile computes, so dashboards and this
// method agree. Guarantees and edge cases:
//
//   - an empty histogram returns 0;
//   - q is clamped to [0, 1];
//   - within a finite bucket the true quantile lies in (lower, upper], and
//     the estimate is bounded by the same interval;
//   - rank mass landing in the overflow (+Inf) bucket returns the highest
//     finite bound — the estimate saturates rather than inventing a value.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	if rank < 1 {
		rank = 1 // the quantile of the smallest observation lives in its bucket
	}
	cum := int64(0)
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			cum += n
			continue
		}
		if float64(cum+n) >= rank {
			if i >= len(h.bounds) {
				// Overflow bucket: no finite upper bound to interpolate to.
				return h.bounds[len(h.bounds)-1]
			}
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			} else if h.bounds[0] < 0 {
				lower = h.bounds[0] // all-negative grids have no natural zero floor
			}
			upper := h.bounds[i]
			return lower + (upper-lower)*((rank-float64(cum))/float64(n))
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// LatencySummary is a compact histogram view: observation count, value sum
// and the interpolated p50/p90/p99 quantiles. The zero value means "no
// observations".
type LatencySummary struct {
	// Count is the number of observations.
	Count int64
	// Sum is the sum of observed values.
	Sum float64
	// P50, P90 and P99 are Quantile(0.5/0.9/0.99) estimates (0 when empty).
	P50, P90, P99 float64
}

// Summary snapshots the histogram into a LatencySummary.
func (h *Histogram) Summary() LatencySummary {
	return LatencySummary{
		Count: h.Count(),
		Sum:   h.Sum(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
	}
}

// NamedSummary pairs a histogram name with its summary for sorted listings.
type NamedSummary struct {
	Name string
	LatencySummary
}

// HistogramSummaries returns every registered histogram's summary, sorted by
// name — the deterministic listing `dime -stats` renders.
func (r *Registry) HistogramSummaries() []NamedSummary {
	r.mu.Lock()
	hists := make([]named[*Histogram], 0, len(r.hists))
	for name, h := range r.hists {
		hists = append(hists, named[*Histogram]{name, h})
	}
	r.mu.Unlock()
	sort.Slice(hists, func(i, j int) bool { return hists[i].name < hists[j].name })
	out := make([]NamedSummary, len(hists))
	for i, nh := range hists {
		out[i] = NamedSummary{Name: nh.name, LatencySummary: nh.v.Summary()}
	}
	return out
}

// Counter returns (creating on first use) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating on first use) the named histogram. The bounds
// of the first creation win; they are copied and sorted ascending. Nil or
// empty bounds fall back to LatencyBuckets.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		if len(bounds) == 0 {
			bounds = LatencyBuckets
		}
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		h = &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}
