// Command benchjson converts `go test -bench` output into a stable JSON
// document, keyed by benchmark name (the -N GOMAXPROCS suffix stripped) with
// ns/op, B/op, allocs/op and any custom ReportMetric units. scripts/bench.sh
// pipes the benchmark run through it to produce BENCH_core.json, the
// checked-in performance snapshot diffed across commits.
//
// With -prev it also diffs the new snapshot against a previous one,
// printing per-benchmark ns/op and allocs/op deltas to stderr, and with
// -gate it turns the diff into a regression gate: when a gated benchmark's
// allocs/op grows by more than -max-allocs-regress percent, benchjson exits
// 2 (after writing the output, so the regressing snapshot is inspectable).
//
// With -history the snapshot is additionally appended as one JSON line
// ({"unix_ts": ..., "benchmarks": {...}}) to a log file — BENCH_history.jsonl
// in this repository — building the multi-run record that -trend analyzes.
//
// With -overhead-base and -overhead-probe the freshly parsed snapshot is
// checked for instrumentation overhead: the probe benchmark's ns/op must be
// within -max-overhead percent of the base benchmark's, or benchjson exits
// 2. bench.sh uses this to keep BenchmarkDIMEPlus/flight-recorder within 5%
// of /nil-probe.
//
// -trend is a separate mode that reads -history instead of stdin: the
// newest entry's gated benchmarks are compared against the median of the up
// to -trend-window preceding entries, which smooths single-run noise. A
// gated benchmark whose ns/op grew more than -max-ns-regress percent or
// whose allocs/op grew more than -max-allocs-regress percent over the
// median exits 2. Benchmarks with fewer than two prior samples are skipped
// (a trend needs history).
//
// Exit codes: 0 on success, 1 on usage/parse/IO errors, 2 when a gate
// (allocs diff, overhead, or trend) found a regression.
//
// Usage:
//
//	go test -bench=. -benchmem | benchjson [-o out.json] [-history log.jsonl] \
//	    [-prev old.json [-gate BenchmarkDIMEPlus] [-max-allocs-regress 25]] \
//	    [-overhead-base B/nil-probe -overhead-probe B/flight-recorder [-max-overhead 5]]
//	benchjson -trend -history log.jsonl -gate BenchmarkDIMEPlus \
//	    [-trend-window 5] [-max-ns-regress 15] [-max-allocs-regress 25]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark's parsed measurements.
type Result struct {
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BPerOp      float64            `json:"b_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Document is the output JSON: benchmarks by name.
type Document struct {
	Benchmarks map[string]Result `json:"benchmarks"`
}

// historyEntry is one line of the JSONL history log: a snapshot plus the
// unix timestamp it was recorded at.
type historyEntry struct {
	UnixTS     int64             `json:"unix_ts"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

var procSuffix = regexp.MustCompile(`-\d+$`)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr, time.Now())) }

// run is the testable entry point; now stamps history entries.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer, now time.Time) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out           = fs.String("o", "", "output `file` (default stdout)")
		prevPath      = fs.String("prev", "", "previous snapshot `file` to diff against (deltas print to stderr)")
		gate          = fs.String("gate", "", "benchmark `name` (exact, or prefix of its sub-benchmarks) gated against regressions")
		maxRegress    = fs.Float64("max-allocs-regress", 25, "fail (exit 2) when a gated benchmark's allocs/op grows more than this `percent`")
		historyPath   = fs.String("history", "", "append the snapshot as one JSON line to this `file`; with -trend, the history to analyze")
		trend         = fs.Bool("trend", false, "analyze -history instead of stdin: gate the newest entry against the median of prior entries")
		trendWindow   = fs.Int("trend-window", 5, "number of prior history entries the trend median is taken over")
		maxNsRegress  = fs.Float64("max-ns-regress", 15, "with -trend: fail when a gated benchmark's ns/op grows more than this `percent` over the median")
		overheadBase  = fs.String("overhead-base", "", "baseline benchmark `name` for the instrumentation-overhead gate")
		overheadProbe = fs.String("overhead-probe", "", "instrumented benchmark `name` whose ns/op must stay near -overhead-base")
		maxOverhead   = fs.Float64("max-overhead", 5, "allowed ns/op overhead `percent` of -overhead-probe vs -overhead-base")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 1
	}

	if *trend {
		if *historyPath == "" {
			return fail(fmt.Errorf("-trend needs -history"))
		}
		entries, err := readHistory(*historyPath)
		if err != nil {
			return fail(err)
		}
		regressions := trendCheck(entries, *gate, *trendWindow, *maxNsRegress, *maxRegress, stderr)
		for _, r := range regressions {
			fmt.Fprintf(stderr, "benchjson: TREND REGRESSION: %s\n", r)
		}
		if len(regressions) > 0 {
			return 2
		}
		return 0
	}

	doc, err := parse(stdin)
	if err != nil {
		return fail(err)
	}
	if len(doc.Benchmarks) == 0 {
		return fail(fmt.Errorf("no benchmark lines on stdin"))
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fail(err)
	}
	data = append(data, '\n')
	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fail(err)
		}
		defer func() { _ = f.Close() }()
		w = f
	}
	if _, err := w.Write(data); err != nil {
		return fail(err)
	}

	if *historyPath != "" {
		if err := appendHistory(*historyPath, doc, now); err != nil {
			return fail(err)
		}
	}

	code := 0
	if *prevPath != "" {
		prev, err := readSnapshot(*prevPath)
		if err != nil {
			return fail(err)
		}
		regressions := diff(doc, prev, *gate, *maxRegress, stderr)
		for _, r := range regressions {
			fmt.Fprintf(stderr, "benchjson: REGRESSION: %s\n", r)
		}
		if len(regressions) > 0 {
			code = 2
		}
	}
	if *overheadBase != "" || *overheadProbe != "" {
		if *overheadBase == "" || *overheadProbe == "" {
			return fail(fmt.Errorf("-overhead-base and -overhead-probe go together"))
		}
		if msg, err := overheadCheck(doc, *overheadBase, *overheadProbe, *maxOverhead, stderr); err != nil {
			return fail(err)
		} else if msg != "" {
			fmt.Fprintf(stderr, "benchjson: OVERHEAD REGRESSION: %s\n", msg)
			code = 2
		}
	}
	return code
}

// readSnapshot loads a previously written Document.
func readSnapshot(path string) (*Document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc Document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &doc, nil
}

// appendHistory adds one timestamped JSONL entry for doc to path.
func appendHistory(path string, doc *Document, now time.Time) error {
	line, err := json.Marshal(historyEntry{UnixTS: now.Unix(), Benchmarks: doc.Benchmarks})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(append(line, '\n'))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// readHistory parses a JSONL history log, oldest entry first. Blank lines
// are skipped; a malformed line is an error (the log is checked in, so
// corruption should fail loudly, not silently shorten the window).
func readHistory(path string) ([]historyEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var entries []historyEntry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var e historyEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			return nil, fmt.Errorf("%s line %d: %v", path, len(entries)+1, err)
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return entries, nil
}

// trendCheck compares the newest history entry's gated benchmarks against
// the median of up to window preceding entries and returns the regression
// messages. Medians smooth out single-run noise, so a regression here means
// the newest run is slower than the recent norm, not just slower than one
// lucky prior run. Benchmarks with fewer than two prior samples are skipped.
func trendCheck(entries []historyEntry, gate string, window int, maxNs, maxAllocs float64, w io.Writer) []string {
	if len(entries) < 2 {
		fmt.Fprintf(w, "benchjson: trend: %d history entries, nothing to compare\n", len(entries))
		return nil
	}
	latest := entries[len(entries)-1]
	prior := entries[:len(entries)-1]
	if len(prior) > window {
		prior = prior[len(prior)-window:]
	}
	names := make([]string, 0, len(latest.Benchmarks))
	for name := range latest.Benchmarks {
		if gate == "" || name == gate || strings.HasPrefix(name, gate+"/") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var regressions []string
	for _, name := range names {
		cur := latest.Benchmarks[name]
		var ns, allocs []float64
		for _, e := range prior {
			if old, ok := e.Benchmarks[name]; ok {
				ns = append(ns, old.NsPerOp)
				allocs = append(allocs, old.AllocsPerOp)
			}
		}
		if len(ns) < 2 {
			fmt.Fprintf(w, "benchjson: trend: %s: only %d prior sample(s), skipping\n", name, len(ns))
			continue
		}
		medNs, medAllocs := median(ns), median(allocs)
		fmt.Fprintf(w, "benchjson: trend: %s: ns/op %.0f vs median %.0f (%s, n=%d), allocs/op %.0f vs median %.0f (%s)\n",
			name, cur.NsPerOp, medNs, pctDelta(medNs, cur.NsPerOp), len(ns),
			cur.AllocsPerOp, medAllocs, pctDelta(medAllocs, cur.AllocsPerOp))
		if medNs > 0 {
			if growth := (cur.NsPerOp - medNs) / medNs * 100; growth > maxNs {
				regressions = append(regressions, fmt.Sprintf(
					"%s ns/op grew %.1f%% over the %d-run median (%.0f -> %.0f), budget %.0f%%",
					name, growth, len(ns), medNs, cur.NsPerOp, maxNs))
			}
		}
		if medAllocs > 0 {
			if growth := (cur.AllocsPerOp - medAllocs) / medAllocs * 100; growth > maxAllocs {
				regressions = append(regressions, fmt.Sprintf(
					"%s allocs/op grew %.1f%% over the %d-run median (%.0f -> %.0f), budget %.0f%%",
					name, growth, len(allocs), medAllocs, cur.AllocsPerOp, maxAllocs))
			}
		}
	}
	return regressions
}

// median returns the middle value (mean of the middle two for even counts).
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// overheadCheck compares probe's ns/op against base's in one snapshot and
// returns a non-empty message when the overhead exceeds maxPct percent.
func overheadCheck(doc *Document, base, probe string, maxPct float64, w io.Writer) (string, error) {
	b, ok := doc.Benchmarks[base]
	if !ok {
		return "", fmt.Errorf("overhead base %q not in snapshot", base)
	}
	p, ok := doc.Benchmarks[probe]
	if !ok {
		return "", fmt.Errorf("overhead probe %q not in snapshot", probe)
	}
	if b.NsPerOp <= 0 {
		return "", fmt.Errorf("overhead base %q has no ns/op", base)
	}
	overhead := (p.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
	fmt.Fprintf(w, "benchjson: overhead: %s %.0f ns/op vs %s %.0f ns/op (%+.1f%%, budget %.0f%%)\n",
		probe, p.NsPerOp, base, b.NsPerOp, overhead, maxPct)
	if overhead > maxPct {
		return fmt.Sprintf("%s is %.1f%% slower than %s, over the %.0f%% budget",
			probe, overhead, base, maxPct), nil
	}
	return "", nil
}

// diff prints per-benchmark ns/op and allocs/op deltas against prev for
// every benchmark present in both snapshots, and returns the regression
// messages for gated benchmarks whose allocs/op grew more than maxRegress
// percent. gate matches the benchmark exactly or as a "gate/" sub-benchmark
// prefix, so -gate BenchmarkDIMEPlus covers BenchmarkDIMEPlus/nil-probe and
// /flight-recorder without catching a benchmark whose name merely starts
// with it.
func diff(doc, prev *Document, gate string, maxRegress float64, w io.Writer) []string {
	var regressions []string
	for _, name := range doc.Names() {
		old, ok := prev.Benchmarks[name]
		if !ok {
			continue
		}
		cur := doc.Benchmarks[name]
		fmt.Fprintf(w, "benchjson: %s: ns/op %.0f -> %.0f (%s), allocs/op %.0f -> %.0f (%s)\n",
			name, old.NsPerOp, cur.NsPerOp, pctDelta(old.NsPerOp, cur.NsPerOp),
			old.AllocsPerOp, cur.AllocsPerOp, pctDelta(old.AllocsPerOp, cur.AllocsPerOp))
		gated := gate != "" && (name == gate || strings.HasPrefix(name, gate+"/"))
		if gated && old.AllocsPerOp > 0 {
			growth := (cur.AllocsPerOp - old.AllocsPerOp) / old.AllocsPerOp * 100
			if growth > maxRegress {
				regressions = append(regressions, fmt.Sprintf(
					"%s allocs/op grew %.1f%% (%.0f -> %.0f), over the %.0f%% budget",
					name, growth, old.AllocsPerOp, cur.AllocsPerOp, maxRegress))
			}
		}
	}
	return regressions
}

// pctDelta renders a relative change, guarding the zero denominator.
func pctDelta(old, cur float64) string {
	if old == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", (cur-old)/old*100)
}

// parse scans benchmark result lines ("BenchmarkX-8  30  40123 ns/op  ...").
// Non-benchmark lines (PASS, ok, goos, test log output) are ignored. A
// benchmark that appears twice keeps the later measurement, matching how a
// re-run supersedes an earlier one in a concatenated log.
func parse(r io.Reader) (*Document, error) {
	doc := &Document{Benchmarks: map[string]Result{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name, iteration count, then (value, unit) pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		res := Result{Iterations: iters}
		valid := true
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				valid = false
				break
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				res.NsPerOp = v
			case "B/op":
				res.BPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			default:
				if res.Metrics == nil {
					res.Metrics = map[string]float64{}
				}
				res.Metrics[unit] = v
			}
		}
		if !valid {
			continue
		}
		name := procSuffix.ReplaceAllString(fields[0], "")
		doc.Benchmarks[name] = res
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return doc, nil
}

// Names returns the parsed benchmark names, sorted (used by tests).
func (d *Document) Names() []string {
	names := make([]string, 0, len(d.Benchmarks))
	for name := range d.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
