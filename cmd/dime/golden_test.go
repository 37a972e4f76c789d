package main

// Golden tests for the CLI's output paths: the scrollbar listing, -level,
// -why, -stats (single group and batch), and the -trace flight dump. The
// input groups come from the deterministic synthetic generator, so the
// expected text is stable across runs and platforms.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"dime/internal/datagen"
	"dime/internal/entity"
	"dime/internal/obs"
)

// writeGroupFile serializes deterministic Scholar groups into dir.
func writeGroupFile(t *testing.T, dir, name string, groups ...*entity.Group) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := entity.WriteGroups(f, groups); err != nil {
		t.Fatal(err)
	}
	return path
}

func singleGroupFile(t *testing.T, dir string) string {
	t.Helper()
	g := datagen.Scholar(datagen.ScholarOptions{NumPubs: 30, ErrorRate: 0.1, Seed: 7})
	return writeGroupFile(t, dir, "group.json", g)
}

// runCLI invokes run() and returns (stdout, stderr, exit code).
func runCLI(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var stdout, stderr strings.Builder
	code := run(args, &stdout, &stderr)
	return stdout.String(), stderr.String(), code
}

func TestGoldenLevels(t *testing.T) {
	in := singleGroupFile(t, t.TempDir())
	stdout, stderr, code := runCLI(t, "-in", in, "-preset", "scholar")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	want := `group "Lei Zhou": 33 entities, 6 partitions, pivot size 27
level 1 (+phi-1): 2 mis-categorized
  p0031
  p0032
  score vs ground truth: P=1.00 R=0.67 F=0.80
level 2 (+phi-2): 3 mis-categorized
  p0031
  p0032
  p0033
  score vs ground truth: P=1.00 R=1.00 F=1.00
level 3 (+phi-3): 6 mis-categorized
  p0001
  p0002
  p0003
  p0031
  p0032
  p0033
  score vs ground truth: P=0.50 R=1.00 F=0.67
`
	if stdout != want {
		t.Errorf("output mismatch:\n--- got ---\n%s--- want ---\n%s", stdout, want)
	}
}

func TestGoldenLevelFlag(t *testing.T) {
	in := singleGroupFile(t, t.TempDir())
	stdout, stderr, code := runCLI(t, "-in", in, "-preset", "scholar", "-level", "1")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	want := `group "Lei Zhou": 33 entities, 6 partitions, pivot size 27
level 2 (+phi-2): 3 mis-categorized
  p0031
  p0032
  p0033
  score vs ground truth: P=1.00 R=1.00 F=1.00
`
	if stdout != want {
		t.Errorf("output mismatch:\n--- got ---\n%s--- want ---\n%s", stdout, want)
	}
}

// latencyLineRE matches one quantile report line; the numbers are wall-clock
// measurements and vary run to run, so golden comparisons normalize them.
var latencyLineRE = regexp.MustCompile(`n=\d+ p50=\S+ p90=\S+ p99=\S+`)

// normalizeLatencies replaces the variable parts of latency quantile lines
// with fixed placeholders.
func normalizeLatencies(s string) string {
	return latencyLineRE.ReplaceAllString(s, "n=N p50=X p90=X p99=X")
}

func TestGoldenWhyAndStats(t *testing.T) {
	in := singleGroupFile(t, t.TempDir())
	stdout, stderr, code := runCLI(t, "-in", in, "-preset", "scholar", "-level", "0", "-why", "-stats")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	wantTail := `witnesses:
  partition 0: phi-3 holds for (p0001, pivot p0005)
  partition 1: phi-3 holds for (p0002, pivot p0005)
  partition 3: every pair provably satisfies phi-1 (signature filter)
  partition 4: every pair provably satisfies phi-1 (signature filter)
  partition 5: every pair provably satisfies phi-2 (signature filter)
stats: {PositivePairsConsidered:539 PositiveVerified:27 PositiveSkippedByTransitivity:512 NegativeVerified:189 PartitionsFilteredBySignature:3 CertainPairsBySignature:2}
phase latency (s):
  candidate-gen      n=N p50=X p90=X p99=X
  dime+              n=N p50=X p90=X p99=X
  negative-filter    n=N p50=X p90=X p99=X
  negative-verify    n=N p50=X p90=X p99=X
  positive-verify    n=N p50=X p90=X p99=X
  record-compile     n=N p50=X p90=X p99=X
  signature-build    n=N p50=X p90=X p99=X
`
	if norm := normalizeLatencies(stdout); !strings.HasSuffix(norm, wantTail) {
		t.Errorf("output mismatch:\n--- got ---\n%s--- want suffix ---\n%s", norm, wantTail)
	}
}

func TestGoldenCorpusStats(t *testing.T) {
	dir := t.TempDir()
	c1 := datagen.Scholar(datagen.ScholarOptions{NumPubs: 20, ErrorRate: 0.1, Seed: 11})
	c2 := datagen.Scholar(datagen.ScholarOptions{NumPubs: 25, ErrorRate: 0.08, Seed: 12})
	in := writeGroupFile(t, dir, "corpus.jsonl", c1, c2)
	stdout, stderr, code := runCLI(t, "-in", in, "-preset", "scholar", "-stats")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	// Wall time, worker count and latency measurements vary by machine;
	// normalize them.
	norm := regexp.MustCompile(`batch: 2 groups, \d+ workers, wall \S+`).
		ReplaceAllString(normalizeLatencies(stdout), "batch: 2 groups, W workers, wall T")
	want := `Group                    Entities    Pivot  Flagged  Score
Gustav Wu                      22       17        5  P=0.40 R=1.00 F=0.57
Nan Harris                     27       22        5  P=0.40 R=1.00 F=0.57

aggregate (deepest level, 2 groups): P=0.40 R=1.00 F=0.57

batch: 2 groups, W workers, wall T
group latency (s): n=N p50=X p90=X p99=X
stats: {PositivePairsConsidered:539 PositiveVerified:87 PositiveSkippedByTransitivity:452 NegativeVerified:236 PartitionsFilteredBySignature:4 CertainPairsBySignature:2}
phase latency (s):
  batch              n=N p50=X p90=X p99=X
  candidate-gen      n=N p50=X p90=X p99=X
  dime+              n=N p50=X p90=X p99=X
  negative-filter    n=N p50=X p90=X p99=X
  negative-verify    n=N p50=X p90=X p99=X
  positive-verify    n=N p50=X p90=X p99=X
  record-compile     n=N p50=X p90=X p99=X
  signature-build    n=N p50=X p90=X p99=X
`
	if norm != want {
		t.Errorf("output mismatch:\n--- got ---\n%s--- want ---\n%s", norm, want)
	}
}

// pipelinePhases are the six spans every DIME+ run opens.
var pipelinePhases = []string{
	obs.PhaseRecordCompile, obs.PhaseSignatureBuild, obs.PhaseCandidateGen,
	obs.PhasePositiveVerify, obs.PhaseNegativeFilter, obs.PhaseNegativeVerify,
}

// runTrace runs the CLI with -trace plus args and decodes the dump.
func runTrace(t *testing.T, in string, args ...string) obs.FlightExport {
	t.Helper()
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	_, stderr, code := runCLI(t, append([]string{"-in", in, "-preset", "scholar", "-trace", tracePath}, args...)...)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var ex obs.FlightExport
	if err := json.Unmarshal(data, &ex); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	return ex
}

// missingPhases returns the pipeline phases absent from tr's events.
func missingPhases(tr *obs.FlightTrace) []string {
	seen := map[string]bool{}
	for _, ev := range tr.Events {
		seen[ev.Name] = true
	}
	var missing []string
	for _, phase := range pipelinePhases {
		if !seen[phase] {
			missing = append(missing, phase)
		}
	}
	return missing
}

// singleTrace runs -trace plus args over one group and returns its one
// dime+ trace, checking the /debug/flight document header on the way.
func singleTrace(t *testing.T, args ...string) *obs.FlightTrace {
	t.Helper()
	ex := runTrace(t, singleGroupFile(t, t.TempDir()), args...)
	if ex.Version != 1 || ex.Tool != "dime-flight" || ex.Kept != 1 || len(ex.Traces) != 1 {
		t.Fatalf("export header = %+v", ex)
	}
	tr := ex.Traces[0]
	if tr.Name != "dime+" || len(tr.Events) == 0 || tr.Events[0].Name != "dime+" {
		t.Fatalf("trace = %+v", tr)
	}
	return tr
}

// TestTraceExport checks that -trace writes the /debug/flight document with
// all six phases and their counters.
func TestTraceExport(t *testing.T) {
	tr := singleTrace(t)
	if missing := missingPhases(tr); len(missing) > 0 {
		t.Errorf("trace missing phases %v", missing)
	}
	var candidates int64
	for _, ev := range tr.Events {
		for _, c := range ev.Counters {
			if c.Name == "candidates" {
				candidates += c.Value
			}
		}
	}
	if candidates == 0 {
		t.Error("trace has no candidate counters")
	}
}

// TestFlightExportCLI checks that -trace -flight-resources attributes heap
// allocation deltas to the spans of the dump.
func TestFlightExportCLI(t *testing.T) {
	tr := singleTrace(t, "-flight-resources")
	// -flight-resources attributes heap allocations to every span, root and
	// phases alike. The counters come from runtime/metrics, which counts a
	// small allocation when its P refills a cached span rather than when it
	// happens, so one short phase (compiling 33 records) can read zero; the
	// phases together allocate far more than a cached span holds.
	if root := tr.Events[0]; root.AllocBytes == 0 || root.AllocObjects == 0 {
		t.Errorf("dime+ root span has no allocation attribution: %+v", root)
	}
	var phaseBytes, phaseObjects uint64
	for _, ev := range tr.Events[1:] {
		phaseBytes += ev.AllocBytes
		phaseObjects += ev.AllocObjects
	}
	if phaseBytes == 0 || phaseObjects == 0 {
		t.Errorf("no phase span has allocation attribution: %+v", tr.Events[1:])
	}
}

// TestTraceKeepsEveryRun runs a corpus with more groups than a default
// recorder's 256-trace ring: -trace must still hold every group's run plus
// the batch root.
func TestTraceKeepsEveryRun(t *testing.T) {
	groups := datagen.ScholarPages(300, 8, 0.1, 5)
	ex := runTrace(t, writeGroupFile(t, t.TempDir(), "corpus.jsonl", groups...))
	if want := int64(len(groups) + 1); ex.Kept != want || int64(len(ex.Traces)) != want {
		t.Fatalf("kept %d, dumped %d traces, want %d of each", ex.Kept, len(ex.Traces), want)
	}
	batches := 0
	for _, tr := range ex.Traces {
		switch tr.Name {
		case "batch":
			batches++
		case "dime+":
			if missing := missingPhases(tr); len(missing) > 0 {
				t.Errorf("trace of %v missing phases %v", tr.Attrs, missing)
			}
		default:
			t.Errorf("unexpected run %q", tr.Name)
		}
	}
	if batches != 1 {
		t.Errorf("batch roots = %d, want 1", batches)
	}
}

func TestMetricsExport(t *testing.T) {
	dir := t.TempDir()
	in := singleGroupFile(t, dir)
	metricsPath := filepath.Join(dir, "metrics.prom")
	_, stderr, code := runCLI(t, "-in", in, "-preset", "scholar", "-metrics-out", metricsPath)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	data, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	body := string(data)
	// Counter values are deterministic (work counts, not timings); histogram
	// structure is fixed even though observations vary.
	for _, want := range []string{
		"# TYPE dime_positive_verify_verified counter\ndime_positive_verify_verified 27\n",
		"# TYPE dime_phase_positive_verify_seconds histogram\n",
		`dime_phase_positive_verify_seconds_bucket{le="+Inf"} 1`,
		"dime_phase_positive_verify_seconds_count 1\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q:\n%s", want, body)
		}
	}
	// The exposition must be structurally valid: every non-comment line is
	// "name[{le=...}] value", every metric has a preceding # TYPE.
	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			typed[strings.Fields(name)[0]] = true
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed sample line %q", line)
		}
		base := fields[0]
		if i := strings.IndexByte(base, '{'); i >= 0 {
			base = base[:i]
		}
		base = strings.TrimSuffix(base, "_bucket")
		base = strings.TrimSuffix(base, "_sum")
		base = strings.TrimSuffix(base, "_count")
		if !typed[base] {
			t.Errorf("sample %q has no preceding # TYPE for %q", line, base)
		}
	}
}

func TestFlightThresholdDropsFastRuns(t *testing.T) {
	ex := runTrace(t, singleGroupFile(t, t.TempDir()), "-flight-threshold", "1h")
	if ex.Kept != 0 || ex.Dropped != 1 || len(ex.Traces) != 0 {
		t.Fatalf("1h threshold should drop the run: %+v", ex)
	}
}

func TestRunErrors(t *testing.T) {
	if _, stderr, code := runCLI(t); code != 2 || !strings.Contains(stderr, "-in is required") {
		t.Fatalf("missing -in: code %d, stderr %q", code, stderr)
	}
	if _, _, code := runCLI(t, "-not-a-flag"); code != 2 {
		t.Fatalf("bad flag: code %d", code)
	}
	if _, stderr, code := runCLI(t, "-in", "/nonexistent.json", "-preset", "scholar"); code != 1 || !strings.Contains(stderr, "dime:") {
		t.Fatalf("missing input: code %d, stderr %q", code, stderr)
	}
	// There is no -log flag: spans leave through -trace or /debug/flight,
	// in the one trace format.
	in := singleGroupFile(t, t.TempDir())
	if _, stderr, code := runCLI(t, "-in", in, "-preset", "scholar", "-log"); code != 2 || !strings.Contains(stderr, "flag provided but not defined: -log") {
		t.Fatalf("-log: code %d, stderr %q", code, stderr)
	}
	// There is no -intra-workers flag: one DIME+ run is one goroutine.
	if _, stderr, code := runCLI(t, "-in", in, "-preset", "scholar", "-intra-workers", "2"); code != 2 || !strings.Contains(stderr, "flag provided but not defined: -intra-workers") {
		t.Fatalf("-intra-workers: code %d, stderr %q", code, stderr)
	}
}
