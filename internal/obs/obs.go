// Package obs is the runtime observability layer: phase tracing, a
// process-wide metrics registry, and a debug HTTP server. The paper's
// evaluation (Section VI) is entirely about where time goes — filter vs.
// verify cost, candidates pruned by signatures, benefit-order savings — and
// this package makes those quantities visible on live runs instead of only
// as end-of-run counters.
//
// The core abstraction is the Probe: discovery runs open a span per pipeline
// phase (record compilation, signature build, candidate generation, positive
// verify, negative filter, negative verify) and attach counters to it. A nil
// probe is the fast path — core code calls Start, which returns a shared
// no-op span, so an uninstrumented run pays a nil check per phase boundary
// and nothing per pair.
//
// Two probe implementations ship here:
//
//   - FlightRecorder records each run as a flattened span tree with
//     monotonic timings and counters, keeping the most recent runs in a
//     sharded lock-free ring with tail-based retention (dumped at
//     /debug/flight and by `dime -trace out.json`), optionally attributing
//     heap-allocation deltas to every span;
//   - Observer feeds span durations and counters into a Registry of
//     counters, gauges and fixed-bucket latency histograms with
//     interpolated p50/p90/p99 quantiles, exported in Prometheus text
//     format at the /metrics endpoint of ServeDebug.
//
// Multi fans a run out to several probes at once. All wall-clock and
// runtime-counter reads in the module go through clock.go's Now/Since and
// HeapCounters, the single detersafe-absorbed nondeterminism point.
package obs

// Phase names used by the discovery pipeline. Core opens exactly these spans
// so traces from different commits line up.
const (
	// PhaseRecordCompile covers rules.Config.NewRecords / NewRecord.
	PhaseRecordCompile = "record-compile"
	// PhaseSignatureBuild covers signature.NewContext and the per-rule
	// positive index builds (one child span per rule).
	PhaseSignatureBuild = "signature-build"
	// PhaseCandidateGen covers candidate enumeration off the inverted
	// indexes (in streaming mode verification interleaves here; the
	// verified counters still land on the positive-verify span).
	PhaseCandidateGen = "candidate-gen"
	// PhasePositiveVerify covers benefit-sorted positive verification.
	PhasePositiveVerify = "positive-verify"
	// PhaseNegativeFilter covers BuildNegative plus the partition-level
	// signature disjointness sweep, one span per negative rule.
	PhaseNegativeFilter = "negative-filter"
	// PhaseNegativeVerify covers per-entity probing and benefit-ordered
	// negative verification, one span per negative rule.
	PhaseNegativeVerify = "negative-verify"
)

// Attr is one key=value annotation on a span (group name, rule name, ...).
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// A builds an Attr.
func A(key, value string) Attr { return Attr{Key: key, Value: value} }

// Probe receives spans from instrumented code. Implementations must be safe
// for concurrent use: batch runs share one probe across worker goroutines,
// each opening its own root span. Individual spans are only used from the
// goroutine that started them.
type Probe interface {
	// StartRun opens a root span for one unit of work (a discovery run, a
	// batch, a rule-generation pass).
	StartRun(name string, attrs ...Attr) Span
}

// Span is one timed phase. End must be called exactly once; counters attach
// work quantities (pairs considered, pairs verified, partitions filtered).
// Per-rule counters use the "<name>/<rule>" naming convention so they
// aggregate cleanly next to their totals.
type Span interface {
	// StartSpan opens a child span.
	StartSpan(phase string, attrs ...Attr) Span
	// Count adds delta to a named counter on this span.
	Count(name string, delta int64)
	// End closes the span, fixing its duration.
	End()
}

// Start is the nil-safe entry point instrumented code uses: a nil probe
// yields the shared no-op span, so the uninstrumented path costs one branch.
func Start(p Probe, name string, attrs ...Attr) Span {
	if p == nil {
		return NopSpan
	}
	return p.StartRun(name, attrs...)
}

// NopSpan is the no-op span returned for nil probes. Its children are
// itself, so a whole uninstrumented span tree is this one value.
var NopSpan Span = nopSpan{}

type nopSpan struct{}

func (nopSpan) StartSpan(string, ...Attr) Span { return NopSpan }
func (nopSpan) Count(string, int64)            {}
func (nopSpan) End()                           {}

// Multi fans spans out to several probes. Nil entries are dropped; with no
// live probes it returns nil, which Start treats as uninstrumented.
func Multi(probes ...Probe) Probe {
	live := make([]Probe, 0, len(probes))
	for _, p := range probes {
		if p != nil {
			live = append(live, p)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multiProbe(live)
}

type multiProbe []Probe

func (m multiProbe) StartRun(name string, attrs ...Attr) Span {
	spans := make(multiSpan, len(m))
	for i, p := range m {
		spans[i] = p.StartRun(name, attrs...)
	}
	return spans
}

type multiSpan []Span

func (m multiSpan) StartSpan(phase string, attrs ...Attr) Span {
	spans := make(multiSpan, len(m))
	for i, s := range m {
		spans[i] = s.StartSpan(phase, attrs...)
	}
	return spans
}

func (m multiSpan) Count(name string, delta int64) {
	for _, s := range m {
		s.Count(name, delta)
	}
}

func (m multiSpan) End() {
	for _, s := range m {
		s.End()
	}
}
