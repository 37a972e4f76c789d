package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// record runs one synthetic span tree through the recorder.
func record(fr *FlightRecorder, name string) {
	run := fr.StartRun(name, A("group", name))
	sp := run.StartSpan(PhaseCandidateGen)
	sp.Count("candidates", 7)
	sp.Count("candidates", 3)
	sp.Count("verified", 1)
	inner := sp.StartSpan(PhasePositiveVerify, A("rule", "p1"))
	inner.End()
	sp.End()
	run.Count("groups", 1)
	run.End()
}

func TestFlightRecorderKeepsTraceStructure(t *testing.T) {
	fr := NewFlightRecorder(FlightOptions{Capacity: 8, Shards: 1})
	record(fr, "run-1")

	if fr.Kept() != 1 || fr.Dropped() != 0 {
		t.Fatalf("kept=%d dropped=%d", fr.Kept(), fr.Dropped())
	}
	traces := fr.Snapshot()
	if len(traces) != 1 {
		t.Fatalf("snapshot has %d traces", len(traces))
	}
	tr := traces[0]
	if tr.Name != "run-1" || len(tr.Attrs) != 1 || tr.Attrs[0].Key != "group" {
		t.Fatalf("trace header = %+v", tr)
	}
	if len(tr.Events) != 3 {
		t.Fatalf("events = %+v", tr.Events)
	}
	root, cand, verify := tr.Events[0], tr.Events[1], tr.Events[2]
	if root.Name != "run-1" || root.Depth != 0 {
		t.Errorf("root = %+v", root)
	}
	if cand.Name != PhaseCandidateGen || cand.Depth != 1 {
		t.Errorf("candidate-gen = %+v", cand)
	}
	if verify.Name != PhasePositiveVerify || verify.Depth != 2 || len(verify.Attrs) != 1 {
		t.Errorf("positive-verify = %+v", verify)
	}
	// Counters merge by name in first-increment order.
	wantCounters := []FlightCounter{{Name: "candidates", Value: 10}, {Name: "verified", Value: 1}}
	if len(cand.Counters) != 2 || cand.Counters[0] != wantCounters[0] || cand.Counters[1] != wantCounters[1] {
		t.Errorf("counters = %+v, want %+v", cand.Counters, wantCounters)
	}
	if rootCs := root.Counters; len(rootCs) != 1 || rootCs[0].Name != "groups" {
		t.Errorf("root counters = %+v", rootCs)
	}
	// Durations are set and nested spans fit inside their parents.
	if root.DurNS <= 0 || tr.DurNS != root.DurNS {
		t.Errorf("root duration = %d, trace %d", root.DurNS, tr.DurNS)
	}
	if cand.StartNS < 0 || verify.StartNS < cand.StartNS {
		t.Errorf("span starts out of order: %d then %d", cand.StartNS, verify.StartNS)
	}
}

func TestFlightThresholdRetention(t *testing.T) {
	fr := NewFlightRecorder(FlightOptions{Capacity: 8, Threshold: time.Hour})
	record(fr, "fast")
	if fr.Kept() != 0 || fr.Dropped() != 1 || len(fr.Snapshot()) != 0 {
		t.Fatalf("fast run retained: kept=%d dropped=%d", fr.Kept(), fr.Dropped())
	}

	// A root span exceeding the threshold is kept; a 0 threshold keeps all.
	slow := NewFlightRecorder(FlightOptions{Capacity: 8, Threshold: time.Nanosecond})
	run := slow.StartRun("slow")
	time.Sleep(time.Millisecond)
	run.End()
	if slow.Kept() != 1 {
		t.Fatalf("slow run dropped: kept=%d dropped=%d", slow.Kept(), slow.Dropped())
	}
}

func TestFlightRingOverwritesOldest(t *testing.T) {
	fr := NewFlightRecorder(FlightOptions{Capacity: 4, Shards: 1})
	for i := 0; i < 10; i++ {
		record(fr, "run")
	}
	if fr.Kept() != 10 {
		t.Fatalf("kept = %d", fr.Kept())
	}
	traces := fr.Snapshot()
	if len(traces) != 4 {
		t.Fatalf("ring holds %d traces, capacity 4", len(traces))
	}
	// Oldest-first ordering: starts must be non-decreasing, and the retained
	// four are the most recent commits.
	for i := 1; i < len(traces); i++ {
		if traces[i].StartNS < traces[i-1].StartNS {
			t.Fatalf("snapshot out of order at %d: %d < %d", i, traces[i].StartNS, traces[i-1].StartNS)
		}
	}
}

func TestFlightResourcesAttribution(t *testing.T) {
	fr := NewFlightRecorder(FlightOptions{Capacity: 4, Resources: true})
	run := fr.StartRun("alloc-run")
	sp := run.StartSpan("allocating-phase")
	sink := make([][]byte, 0, 256)
	for i := 0; i < 256; i++ {
		sink = append(sink, make([]byte, 4096))
	}
	_ = sink
	sp.End()
	run.End()

	traces := fr.Snapshot()
	if len(traces) != 1 {
		t.Fatalf("snapshot = %d traces", len(traces))
	}
	// runtime/metrics allocation counters are approximate (per-P caches can
	// lag a few objects), so assert the order of magnitude, not exact counts.
	ev := traces[0].Events[1]
	if ev.AllocObjects < 128 || ev.AllocBytes < 512*1024 {
		t.Errorf("allocation deltas too small: objects=%d bytes=%d", ev.AllocObjects, ev.AllocBytes)
	}
	// Without Resources the fields stay zero (and are omitted from JSON).
	off := NewFlightRecorder(FlightOptions{Capacity: 4})
	record(off, "no-resources")
	for _, ev := range off.Snapshot()[0].Events {
		if ev.AllocObjects != 0 || ev.AllocBytes != 0 {
			t.Errorf("resources off but deltas set: %+v", ev)
		}
	}
}

func TestFlightSpanEndIdempotent(t *testing.T) {
	fr := NewFlightRecorder(FlightOptions{Capacity: 4})
	run := fr.StartRun("double-end")
	run.End()
	run.End()
	if fr.Kept() != 1 {
		t.Fatalf("double End committed twice: kept=%d", fr.Kept())
	}
}

func TestFlightExportJSON(t *testing.T) {
	fr := NewFlightRecorder(FlightOptions{Capacity: 4, Threshold: 2 * time.Hour})
	record(fr, "dropped-run")
	var sb strings.Builder
	if err := fr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// An empty snapshot must export "traces": [] (not null) so consumers can
	// iterate without nil checks.
	if !strings.Contains(out, `"traces": []`) {
		t.Errorf("empty export traces not []:\n%s", out)
	}
	var ex FlightExport
	if err := json.Unmarshal([]byte(out), &ex); err != nil {
		t.Fatal(err)
	}
	if ex.Version != 1 || ex.Tool != "dime-flight" || ex.ThresholdNS != (2*time.Hour).Nanoseconds() ||
		ex.Kept != 0 || ex.Dropped != 1 {
		t.Errorf("export = %+v", ex)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Error("export missing trailing newline")
	}
}

func TestFlightDefaultSingleton(t *testing.T) {
	a, b := DefaultFlight(), DefaultFlight()
	if a == nil || a != b {
		t.Fatalf("DefaultFlight not a singleton: %p vs %p", a, b)
	}
}

func TestFlightOptionDefaults(t *testing.T) {
	fr := NewFlightRecorder(FlightOptions{})
	if len(fr.shards) == 0 || len(fr.shards)&(len(fr.shards)-1) != 0 {
		t.Fatalf("shard count %d not a power of two", len(fr.shards))
	}
	total := 0
	for i := range fr.shards {
		total += len(fr.shards[i].slots)
	}
	if total < 256 {
		t.Fatalf("default capacity %d < 256", total)
	}
}

func TestFlightConcurrentRunsAndSnapshots(t *testing.T) {
	fr := NewFlightRecorder(FlightOptions{Capacity: 32})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				record(fr, "worker-run")
			}
		}()
	}
	// Snapshots and JSON dumps race the commits; they must stay consistent.
	for i := 0; i < 20; i++ {
		for _, tr := range fr.Snapshot() {
			if tr.Name != "worker-run" || len(tr.Events) != 3 {
				t.Errorf("inconsistent trace observed: %+v", tr)
			}
		}
		var sb strings.Builder
		if err := fr.WriteJSON(&sb); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if fr.Kept() != 8*50 {
		t.Fatalf("kept = %d, want %d", fr.Kept(), 8*50)
	}
	if got := len(fr.Snapshot()); got > 32 {
		t.Fatalf("snapshot %d traces, capacity 32", got)
	}
}
