package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"

	"dime/internal/obs"
)

// maxLagMS is the generator lateness (p99) above which an open-loop run is
// marked invalid.
const maxLagMS = 2.0

// routes are the dimed API routes the per-layer metrics break out.
var routes = []string{"ingest", "discover", "status", "results", "scrollbar", "witnesses", "partitions"}

// phases are the DIME+ phase spans, in pipeline order.
var phases = []string{
	obs.PhaseRecordCompile, obs.PhaseSignatureBuild, obs.PhaseCandidateGen,
	obs.PhasePositiveVerify, obs.PhaseNegativeFilter, obs.PhaseNegativeVerify,
}

// metricDef names a reported metric and its unit. BENCHMARK.json declares
// the same names and units; a test keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"capacity_per_s", "1/s"},
	{"heap_retained_mb", "MB"},
}

// perLayer returns the metrics of a traced run, reported on every workload;
// a layer a workload never enters reports 0.
func perLayer() []metricDef {
	defs := []metricDef{
		{"gen.ops", "count"}, {"gen.lag_p99_ms", "ms"},
		{"client.attempts_per_op", "ratio"}, {"client.retries", "count"},
	}
	for _, r := range routes {
		defs = append(defs, metricDef{"serve." + r + ".handler_ms_mean", "ms"}, metricDef{"serve." + r + ".rtt_p50_ms", "ms"})
	}
	defs = append(defs,
		metricDef{"pool.queue_wait_p50_ms", "ms"}, metricDef{"pool.queue_wait_p99_ms", "ms"}, metricDef{"pool.jobs", "count"},
		metricDef{"session.add_us_mean", "us"}, metricDef{"session.rebuilds", "count"}, metricDef{"session.rebuild_ms_total", "ms"},
		metricDef{"core.run_ms_mean", "ms"}, metricDef{"core.root_self_ms_per_run", "ms"},
	)
	for _, p := range phases {
		defs = append(defs, metricDef{"core." + p + ".self_ms_per_run", "ms"}, metricDef{"core." + p + ".alloc_kb_per_run", "KiB"})
	}
	return append(defs,
		metricDef{"core.candidates_per_run", "count"}, metricDef{"core.positive_verified_per_run", "count"},
		metricDef{"core.transitivity_skip_ratio", "ratio"}, metricDef{"core.negative_verified_per_run", "count"},
		metricDef{"core.signature_filtered_ratio", "ratio"},
		metricDef{"obs.trace_overhead_pct", "%"},
		metricDef{"proc.alloc_kb_per_op", "KiB"}, metricDef{"proc.gc_cycles_per_s", "1/s"},
		metricDef{"proc.gc_pause_ms_total", "ms"}, metricDef{"proc.gomaxprocs", "count"},
	)
}

func gomaxprocs() int { return runtime.GOMAXPROCS(0) }

// report accumulates one workload run's metrics, notes and failures.
type report struct {
	workload  string
	traced    bool
	mu        sync.Mutex
	values    map[string]float64
	notes     map[string]string
	lines     []string
	attempted int64
	opErrors  int64
	errSample []string
	orc       oracle
}

func newReport(workload string, traced bool) *report {
	return &report{workload: workload, traced: traced, values: map[string]float64{}, notes: map[string]string{}}
}

func (r *report) set(name string, v float64) { r.setNote(name, v, "") }

// setNote records a metric with a note (sample count, percentile used).
func (r *report) setNote(name string, v float64, note string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.values[name] = v
	r.notes[name] = note
}

// linef adds a line to the human-readable part of the report.
func (r *report) linef(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// failedOp records an operation that returned an error.
func (r *report) failedOp(msg string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.opErrors++
	if len(r.errSample) < 5 {
		r.errSample = append(r.errSample, msg)
	}
}

// lagTail is the p99 generator lateness of an open-loop window.
func lagTail(samples []opSample) (float64, string) {
	lags := make([]float64, len(samples))
	for i, s := range samples {
		lags[i] = msOf(s.lag)
	}
	return tail(lags, 99)
}

// checkLag reports the generator lateness and marks the run invalid when
// its p99 exceeds maxLagMS.
func (r *report) checkLag(samples []opSample) {
	v, label := lagTail(samples)
	r.linef("generator lag %s: %.3f ms (limit %.0f ms)", label, v, maxLagMS)
	if v > maxLagMS {
		r.linef("INVALID RUN: operations were sent late; their latency, timed from the due time, includes the delay")
	}
}

func (r *report) failed() int64 { return r.opErrors + r.orc.wrong }

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the machine-readable last line of a run.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// defs returns the metric set this report emits.
func (r *report) defs() []metricDef {
	if r.traced {
		return perLayer()
	}
	return endToEnd
}

func (r *report) result() runResult {
	out := runResult{
		Correct:   r.failed() == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed(),
		Metrics:   map[string]metricValue{},
	}
	for _, d := range r.defs() {
		out.Metrics[d.name] = metricValue{Value: r.values[d.name], Unit: d.unit}
	}
	return out
}

// print writes the human-readable report.
func (r *report) print(w io.Writer, cfg config) {
	fmt.Fprintf(w, "dimebench %s seed=%d seconds=%g traced=%t gomaxprocs=%d %s\n",
		r.workload, cfg.seed, cfg.seconds, r.traced, gomaxprocs(), runtime.Version())
	for _, d := range r.defs() {
		note := r.notes[d.name]
		if note != "" {
			note = "  (" + note + ")"
		}
		fmt.Fprintf(w, "  %-36s %14.4f %-6s%s\n", d.name, r.values[d.name], d.unit, note)
	}
	for _, l := range r.lines {
		fmt.Fprintf(w, "  %s\n", l)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d\n", r.attempted, r.failed())
	for _, e := range r.errSample {
		fmt.Fprintf(w, "  FAILED: %s\n", e)
	}
	for _, e := range r.orc.sample {
		fmt.Fprintf(w, "  WRONG: %s\n", e)
	}
}

// writeTraces dumps raw span trees in the flight-recorder export format.
func writeTraces(path string, traces []*obs.FlightTrace) error {
	if traces == nil {
		traces = []*obs.FlightTrace{}
	}
	data, err := json.MarshalIndent(&obs.FlightExport{Version: 1, Tool: "dimebench", Kept: int64(len(traces)), Traces: traces}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// workloadNames lists the workloads, joined for usage text.
func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
