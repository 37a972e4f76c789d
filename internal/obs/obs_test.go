package obs

import "testing"

func TestStartNilProbeIsNop(t *testing.T) {
	sp := Start(nil, "run", A("group", "g"))
	if sp != NopSpan {
		t.Fatalf("Start(nil) = %v, want NopSpan", sp)
	}
	child := sp.StartSpan("phase")
	if child != NopSpan {
		t.Fatalf("nop child = %v, want NopSpan", child)
	}
	child.Count("n", 1) // must not panic
	child.End()
	sp.End()
}

func TestMultiFansOut(t *testing.T) {
	f1 := NewFlightRecorder(FlightOptions{})
	f2 := NewFlightRecorder(FlightOptions{})
	p := Multi(nil, f1, nil, f2)
	run := Start(p, "run")
	run.StartSpan("phase").End()
	run.Count("n", 3)
	run.End()
	for i, fr := range []*FlightRecorder{f1, f2} {
		traces := fr.Snapshot()
		if len(traces) != 1 || traces[0].Name != "run" {
			t.Fatalf("recorder %d: traces = %+v", i, traces)
		}
		evs := traces[0].Events
		if len(evs) != 2 || evs[1].Name != "phase" || evs[1].Depth != 1 {
			t.Fatalf("recorder %d: events = %+v", i, evs)
		}
		if cs := evs[0].Counters; len(cs) != 1 || cs[0] != (FlightCounter{Name: "n", Value: 3}) {
			t.Fatalf("recorder %d: root counters = %+v", i, cs)
		}
	}
}

func TestMultiCollapses(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("Multi with no live probes must be nil")
	}
	fr := NewFlightRecorder(FlightOptions{})
	if got := Multi(nil, fr); got != Probe(fr) {
		t.Fatalf("Multi with one live probe should return it, got %v", got)
	}
}
