package core

import (
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dime/internal/datagen"
	"dime/internal/fixtures"
	"dime/internal/obs"
	"dime/internal/presets"
)

// The flight recorder flattens each run's span tree into pre-order events
// with depths. The span at event i covers events i up to the next event at
// depth ≤ its own; its children are the depth+1 events in that range.

// spanEnd returns the index one past the last descendant of event i.
func spanEnd(evs []obs.FlightEvent, i int) int {
	j := i + 1
	for j < len(evs) && evs[j].Depth > evs[i].Depth {
		j++
	}
	return j
}

// childrenOf returns the indexes of event i's direct children, in order.
func childrenOf(evs []obs.FlightEvent, i int) []int {
	var out []int
	for j, end := i+1, spanEnd(evs, i); j < end; j++ {
		if evs[j].Depth == evs[i].Depth+1 {
			out = append(out, j)
		}
	}
	return out
}

// findAll returns the indexes of event i's descendants named name, in
// pre-order.
func findAll(evs []obs.FlightEvent, i int, name string) []int {
	var out []int
	for j, end := i+1, spanEnd(evs, i); j < end; j++ {
		if evs[j].Name == name {
			out = append(out, j)
		}
	}
	return out
}

// ownCounter returns the named counter recorded on ev itself.
func ownCounter(ev obs.FlightEvent, name string) int64 {
	for _, c := range ev.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// counterSum returns the named counter summed over event i and every
// descendant.
func counterSum(evs []obs.FlightEvent, i int, name string) int64 {
	var total int64
	for j, end := i, spanEnd(evs, i); j < end; j++ {
		total += ownCounter(evs[j], name)
	}
	return total
}

// attrOf returns ev's value for key, or "".
func attrOf(ev obs.FlightEvent, key string) string {
	for _, a := range ev.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// TestDIMEPlusProbeObservesPhases checks the tentpole contract: a recording
// probe sees all six pipeline phases under one run span, nested and ordered
// the way the algorithm executes them, with counters that agree exactly with
// the Stats the run reports — and the probe changes nothing about the result.
func TestDIMEPlusProbeObservesPhases(t *testing.T) {
	g := fixtures.Figure1Group()
	opts := paperOptions()
	base, err := DIMEPlus(fixtures.Figure1Group(), opts)
	if err != nil {
		t.Fatal(err)
	}

	fr := obs.NewFlightRecorder(obs.FlightOptions{})
	opts.Probe = fr
	res, err := DIMEPlus(g, opts)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(res.Stats, base.Stats) {
		t.Fatalf("probe changed stats: %+v vs %+v", res.Stats, base.Stats)
	}
	if !reflect.DeepEqual(partitionIDs(g, res.Partitions), partitionIDs(base.Group, base.Partitions)) {
		t.Fatalf("probe changed partitions")
	}
	if !reflect.DeepEqual(res.Levels, base.Levels) {
		t.Fatalf("probe changed levels: %+v vs %+v", res.Levels, base.Levels)
	}

	runs := fr.Snapshot()
	if len(runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(runs))
	}
	evs := runs[0].Events
	if run := evs[0]; run.Name != "dime+" || attrOf(run, "group") != g.Name {
		t.Fatalf("run = %q attrs %v", run.Name, run.Attrs)
	}

	// Top-level phases appear in execution order: the four positive-side
	// phases once, then a filter/verify pair per negative rule.
	var wantOrder []string
	wantOrder = append(wantOrder,
		obs.PhaseRecordCompile, obs.PhaseSignatureBuild,
		obs.PhaseCandidateGen, obs.PhasePositiveVerify)
	for range opts.Rules.Negative {
		wantOrder = append(wantOrder, obs.PhaseNegativeFilter, obs.PhaseNegativeVerify)
	}
	var gotOrder []string
	for _, c := range childrenOf(evs, 0) {
		gotOrder = append(gotOrder, evs[c].Name)
	}
	if !reflect.DeepEqual(gotOrder, wantOrder) {
		t.Fatalf("phase order = %v, want %v", gotOrder, wantOrder)
	}

	// Nesting: signature-build holds one child per positive rule; the
	// negative spans carry the rule name in application order.
	sb := childrenOf(evs, findAll(evs, 0, obs.PhaseSignatureBuild)[0])
	if len(sb) != len(opts.Rules.Positive) {
		t.Fatalf("signature-build children = %d, want %d", len(sb), len(opts.Rules.Positive))
	}
	for i, c := range sb {
		if rule := attrOf(evs[c], "rule"); rule != opts.Rules.Positive[i].Name {
			t.Fatalf("signature-build child %d rule = %q", i, rule)
		}
	}
	for i, span := range findAll(evs, 0, obs.PhaseNegativeFilter) {
		if rule := attrOf(evs[span], "rule"); rule != opts.Rules.Negative[i].Name {
			t.Fatalf("negative-filter %d rule = %q", i, rule)
		}
	}
	for i, span := range findAll(evs, 0, obs.PhaseNegativeVerify) {
		if rule := attrOf(evs[span], "rule"); rule != opts.Rules.Negative[i].Name {
			t.Fatalf("negative-verify %d rule = %q", i, rule)
		}
	}

	// Counters agree with Stats, both in total and per rule.
	st := res.Stats
	pv := findAll(evs, 0, obs.PhasePositiveVerify)[0]
	checks := []struct {
		name string
		got  int64
		want int64
	}{
		{"candidates", counterSum(evs, 0, "candidates"), st.PositivePairsConsidered},
		{"verified (positive)", counterSum(evs, pv, "verified"), st.PositiveVerified},
		{"skipped-transitivity", counterSum(evs, 0, "skipped-transitivity"), st.PositiveSkippedByTransitivity},
		{"partitions-filtered", counterSum(evs, 0, "partitions-filtered"), st.PartitionsFilteredBySignature},
		{"certain-pairs", counterSum(evs, 0, "certain-pairs"), st.CertainPairsBySignature},
		{"records", counterSum(evs, 0, "records"), int64(len(g.Entities))},
	}
	var negVerified int64
	for _, span := range findAll(evs, 0, obs.PhaseNegativeVerify) {
		negVerified += ownCounter(evs[span], "verified")
	}
	checks = append(checks, struct {
		name string
		got  int64
		want int64
	}{"verified (negative)", negVerified, st.NegativeVerified})
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("counter %s = %d, want %d", c.name, c.got, c.want)
		}
	}
	var perRule int64
	for _, r := range opts.Rules.Positive {
		perRule += counterSum(evs, 0, "verified/"+r.Name)
	}
	if perRule != st.PositiveVerified {
		t.Errorf("per-rule verified sum = %d, want %d", perRule, st.PositiveVerified)
	}
	var perRuleCands int64
	for _, r := range opts.Rules.Positive {
		perRuleCands += counterSum(evs, 0, "candidates/"+r.Name)
	}
	if perRuleCands != st.PositivePairsConsidered {
		t.Errorf("per-rule candidates sum = %d, want %d", perRuleCands, st.PositivePairsConsidered)
	}

	// Every recorded span was ended (duration fixed) and starts no earlier
	// than its parent.
	for i, ev := range evs {
		if ev.DurNS < 0 {
			t.Errorf("span %s has negative duration", ev.Name)
		}
		for _, c := range childrenOf(evs, i) {
			if evs[c].StartNS < ev.StartNS {
				t.Errorf("span %s starts before parent %s", evs[c].Name, ev.Name)
			}
		}
	}
}

// TestDIMEProbeObservesPhases checks the basic algorithm's slimmer span set:
// no signature machinery, so only record-compile, positive-verify, and one
// negative-verify per rule.
func TestDIMEProbeObservesPhases(t *testing.T) {
	g := fixtures.Figure1Group()
	opts := paperOptions()
	fr := obs.NewFlightRecorder(obs.FlightOptions{})
	opts.Probe = fr
	res, err := DIME(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	runs := fr.Snapshot()
	if len(runs) != 1 || runs[0].Name != "dime" {
		t.Fatalf("runs = %+v", runs)
	}
	evs := runs[0].Events
	wantOrder := []string{obs.PhaseRecordCompile, obs.PhasePositiveVerify}
	for range opts.Rules.Negative {
		wantOrder = append(wantOrder, obs.PhaseNegativeVerify)
	}
	var gotOrder []string
	for _, c := range childrenOf(evs, 0) {
		gotOrder = append(gotOrder, evs[c].Name)
	}
	if !reflect.DeepEqual(gotOrder, wantOrder) {
		t.Fatalf("phase order = %v, want %v", gotOrder, wantOrder)
	}
	if got := counterSum(evs, 0, "verified"); got != res.Stats.PositiveVerified+res.Stats.NegativeVerified {
		t.Errorf("verified = %d, want %d", got, res.Stats.PositiveVerified+res.Stats.NegativeVerified)
	}
}

// TestSessionProbeObservesPhases drives a session end to end with a probe
// attached: the initial rebuild, one incremental Add, and Result must emit
// their own runs, covering all six phases between them, with counters that
// match the session's final stats.
func TestSessionProbeObservesPhases(t *testing.T) {
	g := fixtures.Figure1Group()
	last := g.Entities[len(g.Entities)-1]
	g.Entities = g.Entities[:len(g.Entities)-1]

	opts := paperOptions()
	fr := obs.NewFlightRecorder(obs.FlightOptions{})
	opts.Probe = fr
	s, err := NewSession(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add(last); err != nil {
		t.Fatal(err)
	}
	res, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}

	runs := fr.Snapshot()
	var names []string
	for _, r := range runs {
		names = append(names, r.Name)
	}
	want := []string{"session-rebuild", "session-add", "session-result"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("runs = %v, want %v", names, want)
	}

	seen := make(map[string]bool)
	for _, r := range runs {
		for _, ev := range r.Events {
			seen[ev.Name] = true
		}
	}
	for _, phase := range []string{
		obs.PhaseRecordCompile, obs.PhaseSignatureBuild, obs.PhaseCandidateGen,
		obs.PhasePositiveVerify, obs.PhaseNegativeFilter, obs.PhaseNegativeVerify,
	} {
		if !seen[phase] {
			t.Errorf("phase %s never observed across session runs", phase)
		}
	}

	var candidates, verified int64
	for _, r := range runs {
		candidates += counterSum(r.Events, 0, "candidates")
		if pv := findAll(r.Events, 0, obs.PhasePositiveVerify); len(pv) > 0 {
			verified += counterSum(r.Events, pv[0], "verified")
		}
	}
	if candidates != res.Stats.PositivePairsConsidered {
		t.Errorf("candidates = %d, want %d", candidates, res.Stats.PositivePairsConsidered)
	}
	if verified != res.Stats.PositiveVerified {
		t.Errorf("verified = %d, want %d", verified, res.Stats.PositiveVerified)
	}
}

// TestBenefitSortLimitNonPositive checks the satellite fix: zero and negative
// BenefitSortLimit both select the default, and a tiny positive limit (forced
// streaming) still yields identical discoveries and partitions.
func TestBenefitSortLimitNonPositive(t *testing.T) {
	base, err := DIMEPlus(fixtures.Figure1Group(), paperOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{-1, -100, 0, 1, 1 << 20} {
		opts := paperOptions()
		opts.BenefitSortLimit = limit
		g := fixtures.Figure1Group()
		res, err := DIMEPlus(g, opts)
		if err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
		if !reflect.DeepEqual(res.Final(), base.Final()) {
			t.Errorf("limit %d: final = %v, want %v", limit, res.Final(), base.Final())
		}
		if !reflect.DeepEqual(partitionIDs(g, res.Partitions), partitionIDs(base.Group, base.Partitions)) {
			t.Errorf("limit %d: partitions diverged", limit)
		}
	}
}

// TestConcurrentScrapeDuringDiscoverAll races the full debug surface against
// the pipeline: /metrics and /debug/flight are scraped in a loop while
// DiscoverAll mutates the registry and commits flight traces from its worker
// pool. Run under -race this is the gate proving every read path (Prometheus
// exposition, ring snapshot) is safe against concurrent writers. Each response must also parse — a scrape mid-run may see
// partial counts, but never a malformed document.
func TestConcurrentScrapeDuringDiscoverAll(t *testing.T) {
	reg := obs.NewRegistry()
	fr := obs.NewFlightRecorder(obs.FlightOptions{Capacity: 16})
	srv, err := obs.ServeDebug("127.0.0.1:0", reg, fr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	cfg := presets.ScholarConfig()
	opts := Options{
		Config: cfg,
		Rules:  presets.ScholarRules(cfg),
		Probe:  obs.Multi(obs.Observer(reg), fr),
	}
	groups := datagen.ScholarPages(12, 40, 0.08, 99)

	done := make(chan struct{})
	var wg sync.WaitGroup
	scrape := func(path string, check func(t *testing.T, body []byte)) {
		defer wg.Done()
		url := "http://" + srv.Addr() + path
		for {
			select {
			case <-done:
				return
			default:
			}
			resp, err := http.Get(url)
			if err != nil {
				t.Errorf("GET %s: %v", path, err)
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Errorf("read %s: %v", path, err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("GET %s: status %d", path, resp.StatusCode)
				return
			}
			check(t, body)
		}
	}
	wg.Add(2)
	go scrape("/metrics", func(t *testing.T, body []byte) {
		// Every non-comment line is "name[{labels}] value"; a torn exposition
		// (e.g. a sample without its # TYPE header) would fail here.
		seenType := make(map[string]bool)
		for _, line := range strings.Split(strings.TrimSuffix(string(body), "\n"), "\n") {
			if line == "" {
				continue
			}
			if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
				seenType[strings.Fields(rest)[0]] = true
				continue
			}
			fields := strings.Fields(line)
			if len(fields) != 2 {
				t.Errorf("malformed sample line %q", line)
				continue
			}
			name := fields[0]
			if i := strings.IndexByte(name, '{'); i >= 0 {
				name = name[:i]
			}
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(name, suffix); ok && seenType[base] {
					name = base
					break
				}
			}
			if !seenType[name] {
				t.Errorf("sample %q has no preceding # TYPE", line)
			}
		}
	})
	go scrape("/debug/flight", func(t *testing.T, body []byte) {
		var ex obs.FlightExport
		if err := json.Unmarshal(body, &ex); err != nil {
			t.Errorf("flight export not JSON: %v", err)
			return
		}
		if ex.Tool != "dime-flight" {
			t.Errorf("flight export tool = %q", ex.Tool)
		}
	})

	// Several full batch runs give the scrapers sustained concurrent mutation.
	for round := 0; round < 3; round++ {
		if _, err := DiscoverAll(groups, opts, 4); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()

	// The registry saw every run: one dime+ histogram observation per group
	// per round, and the flight recorder committed one trace per group plus
	// one batch-root trace per DiscoverAll call.
	wantRuns := int64(3 * len(groups))
	if got := reg.Histogram("dime.phase.dime+.seconds", nil).Count(); got != wantRuns {
		t.Errorf("run histogram count = %d, want %d", got, wantRuns)
	}
	if got, want := fr.Kept(), wantRuns+3; got != want {
		t.Errorf("flight recorder kept = %d, want %d", got, want)
	}
}

// TestDIMEPlusFlightProbeResultIdentical checks that attaching the flight
// recorder as the probe leaves the discovery output byte-for-byte unchanged
// and records one trace covering all six phases.
func TestDIMEPlusFlightProbeResultIdentical(t *testing.T) {
	base, err := DIMEPlus(fixtures.Figure1Group(), paperOptions())
	if err != nil {
		t.Fatal(err)
	}
	fr := obs.NewFlightRecorder(obs.FlightOptions{Capacity: 4, Resources: true})
	opts := paperOptions()
	opts.Probe = fr
	res, err := DIMEPlus(fixtures.Figure1Group(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Final(), base.Final()) || res.Stats != base.Stats {
		t.Fatalf("flight probe changed results: %v vs %v", res.Final(), base.Final())
	}
	traces := fr.Snapshot()
	if len(traces) != 1 || traces[0].Name != "dime+" {
		t.Fatalf("traces = %+v", traces)
	}
	seen := make(map[string]bool)
	for _, ev := range traces[0].Events {
		seen[ev.Name] = true
	}
	for _, phase := range []string{
		obs.PhaseRecordCompile, obs.PhaseSignatureBuild, obs.PhaseCandidateGen,
		obs.PhasePositiveVerify, obs.PhaseNegativeFilter, obs.PhaseNegativeVerify,
	} {
		if !seen[phase] {
			t.Errorf("phase %s missing from flight trace (have %v)", phase, seen)
		}
	}
}

// TestStatsAdd checks field-wise accumulation.
func TestStatsAdd(t *testing.T) {
	a := Stats{1, 2, 3, 4, 5, 6}
	a.Add(Stats{10, 20, 30, 40, 50, 60})
	if want := (Stats{11, 22, 33, 44, 55, 66}); a != want {
		t.Fatalf("sum = %+v, want %+v", a, want)
	}
}
