package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestRegistryCountersGaugesHistograms(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(2)
	r.Counter("c").Add(3)
	if got := r.Counter("c").Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	r.Gauge("g").Set(2.5)
	if got := r.Gauge("g").Value(); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("gauge = %g, want 2.5", got)
	}
	h := r.Histogram("h", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 5, 50, 5000} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("hist count = %d", h.Count())
	}
	if math.Abs(h.Sum()-5060.5) > 1e-9 {
		t.Fatalf("hist sum = %g", h.Sum())
	}
	bounds, counts := h.Buckets()
	if len(bounds) != 3 || len(counts) != 4 {
		t.Fatalf("buckets = %v / %v", bounds, counts)
	}
	want := []int64{1, 2, 1, 1} // ≤1, ≤10, ≤100, overflow
	for i, n := range want {
		if counts[i] != n {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, counts[i], n, counts)
		}
	}
	// Same name returns the same histogram; first bounds win.
	if r.Histogram("h", []float64{7}) != h {
		t.Fatal("histogram not deduplicated by name")
	}
}

func TestRegistryDefaultBucketsAndUnsortedBounds(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", nil)
	bounds, _ := h.Buckets()
	if len(bounds) != len(LatencyBuckets) {
		t.Fatalf("default bounds = %v", bounds)
	}
	h2 := r.Histogram("rev", []float64{10, 1})
	bounds2, _ := h2.Buckets()
	if bounds2[0] > bounds2[1] {
		t.Fatalf("bounds not sorted: %v", bounds2)
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Counter("c").Add(1)
				r.Histogram("h", nil).Observe(0.001)
				r.Gauge("g").Set(float64(j))
			}
		}()
	}
	var sb strings.Builder
	for i := 0; i < 20; i++ {
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8*500 {
		t.Fatalf("c = %d, want %d", got, 8*500)
	}
	if got := r.Histogram("h", nil).Count(); got != 8*500 {
		t.Fatalf("h count = %d, want %d", got, 8*500)
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	// 100 observations uniform over (0, 100] with bounds every 10: the
	// interpolated quantiles land exactly on q*100, and every estimate must
	// stay inside its bucket's (lower, upper] interval.
	h := NewHistogram([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 50}, {0.9, 90}, {0.99, 99}, {0.1, 10}, {1, 100},
	} {
		got := h.Quantile(tc.q)
		if math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	// Bucket-bound error guarantee: for any q the estimate lies within the
	// bucket holding the target rank, i.e. within one bucket width (10) of
	// the true value.
	for q := 0.01; q < 1; q += 0.01 {
		got := h.Quantile(q)
		true_ := math.Ceil(q * 100)
		if math.Abs(got-true_) > 10 {
			t.Errorf("Quantile(%g) = %g, true %g: outside bucket-bound error", q, got, true_)
		}
	}
	// The first bucket interpolates from lower bound 0.
	if got := h.Quantile(0.001); got <= 0 || got > 10 {
		t.Errorf("tiny quantile = %g, want in (0, 10]", got)
	}
	// Out-of-range q clamps rather than extrapolating.
	if got := h.Quantile(-1); math.Abs(got-h.Quantile(0)) > 1e-12 {
		t.Errorf("Quantile(-1) = %g, want clamp to Quantile(0) = %g", got, h.Quantile(0))
	}
	if got := h.Quantile(2); math.Abs(got-h.Quantile(1)) > 1e-12 {
		t.Errorf("Quantile(2) = %g, want clamp to Quantile(1) = %g", got, h.Quantile(1))
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	h := NewHistogram(nil)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%g) = %g, want 0", q, got)
		}
	}
	s := h.Summary()
	if s.Count != 0 || s.Sum != 0 || s.P50 != 0 || s.P90 != 0 || s.P99 != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestHistogramQuantileAllOverflow(t *testing.T) {
	// Every observation beyond the last finite bound: quantiles saturate at
	// that bound instead of inventing values past the grid.
	h := NewHistogram([]float64{1, 10})
	for i := 0; i < 5; i++ {
		h.Observe(1000)
	}
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		if got := h.Quantile(q); math.Abs(got-10) > 1e-12 {
			t.Errorf("all-overflow Quantile(%g) = %g, want 10", q, got)
		}
	}
	if s := h.Summary(); math.Abs(s.P50-10) > 1e-12 || math.Abs(s.P99-10) > 1e-12 || s.Count != 5 {
		t.Errorf("all-overflow summary = %+v", s)
	}
}

func TestHistogramSummariesDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"z.seconds", "a.seconds", "m.seconds"} {
		r.Histogram(name, nil).Observe(0.01)
	}
	sums := r.HistogramSummaries()
	want := []string{"a.seconds", "m.seconds", "z.seconds"}
	if len(sums) != len(want) {
		t.Fatalf("summaries = %+v", sums)
	}
	for i, s := range sums {
		if s.Name != want[i] {
			t.Errorf("summary %d = %q, want %q", i, s.Name, want[i])
		}
		if s.Count != 1 || s.P50 <= 0 {
			t.Errorf("summary %q = %+v", s.Name, s.LatencySummary)
		}
	}
}

func TestNewHistogramStandalone(t *testing.T) {
	h := NewHistogram(nil)
	bounds, _ := h.Buckets()
	if len(bounds) != len(LatencyBuckets) {
		t.Fatalf("default bounds = %v", bounds)
	}
	h2 := NewHistogram([]float64{5, 1, 3})
	bounds2, _ := h2.Buckets()
	for i := 1; i < len(bounds2); i++ {
		if bounds2[i-1] > bounds2[i] {
			t.Fatalf("bounds not sorted: %v", bounds2)
		}
	}
}

func TestObserverFeedsRegistry(t *testing.T) {
	r := NewRegistry()
	p := Observer(r)
	run := Start(p, "dime+", A("group", "g"))
	sp := run.StartSpan(PhaseCandidateGen)
	sp.Count("candidates", 11)
	sp.End()
	rsp := run.StartSpan(PhaseNegativeVerify, A("rule", "n1"))
	rsp.Count("verified", 4)
	rsp.End()
	run.End()

	if got := r.Counter("dime." + PhaseCandidateGen + ".candidates").Value(); got != 11 {
		t.Fatalf("candidates counter = %d", got)
	}
	if got := r.Counter("dime." + PhaseNegativeVerify + ".verified").Value(); got != 4 {
		t.Fatalf("verified counter = %d", got)
	}
	if got := r.Histogram("dime.phase."+PhaseCandidateGen+".seconds", nil).Count(); got != 1 {
		t.Fatalf("phase histogram count = %d", got)
	}
	if got := r.Histogram("dime.rule.n1."+PhaseNegativeVerify+".seconds", nil).Count(); got != 1 {
		t.Fatalf("per-rule histogram count = %d", got)
	}
	if got := r.Histogram("dime.phase.dime+.seconds", nil).Count(); got != 1 {
		t.Fatalf("run histogram count = %d", got)
	}
}
