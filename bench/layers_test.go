package main

import (
	"testing"

	"dime/internal/core"
	"dime/internal/datagen"
	"dime/internal/obs"
	"dime/internal/presets"
)

// Self time is a span's duration minus its direct children's, so a phase
// whose per-rule child spans share its name (signature-build) is counted
// once, and the phases plus the root's own time add up to the run.
func TestSelfTimeCountsNestedSameNameSpansOnce(t *testing.T) {
	tr := &obs.FlightTrace{Name: "dime+", DurNS: 100, Events: []obs.FlightEvent{
		{Name: "dime+", Depth: 0, DurNS: 100, AllocBytes: 1000},
		{Name: obs.PhaseSignatureBuild, Depth: 1, DurNS: 30, AllocBytes: 300},
		{Name: obs.PhaseSignatureBuild, Depth: 2, DurNS: 10, AllocBytes: 100},
		{Name: obs.PhaseSignatureBuild, Depth: 2, DurNS: 15, AllocBytes: 150},
		{Name: obs.PhaseCandidateGen, Depth: 1, DurNS: 40, AllocBytes: 400},
	}}
	tot := newSpanTotals()
	tot.add(tr)
	if got := tot.selfNS[obs.PhaseSignatureBuild]; got != 30 {
		t.Errorf("signature-build self time %d, want 30 (the parent span's duration)", got)
	}
	if got := tot.allocBytes[obs.PhaseSignatureBuild]; got != 300 {
		t.Errorf("signature-build self allocation %d, want 300", got)
	}
	if tot.rootSelfNS != 30 {
		t.Errorf("root self time %d, want 30", tot.rootSelfNS)
	}
	sum := tot.rootSelfNS
	for _, v := range tot.selfNS {
		sum += v
	}
	if sum != tr.DurNS {
		t.Errorf("self times sum to %d, want the run's %d", sum, tr.DurNS)
	}
}

// On a real run the registry's dime.phase.signature-build.seconds sum
// counts the per-rule child spans on top of their parent, while the flight
// recorder's self times partition the run exactly.
func TestRegistryPhaseSumsDoubleCountSignatureBuild(t *testing.T) {
	g := datagen.DBGen(datagen.DBGenOptions{NumEntities: 300, ErrorRate: 0.1, Seed: 7})
	cfg := presets.DBGenConfig()
	reg := obs.NewRegistry()
	fr := obs.NewFlightRecorder(obs.FlightOptions{})
	if _, err := core.DIMEPlus(g, core.Options{Config: cfg, Rules: presets.DBGenRules(cfg), Probe: obs.Multi(obs.Observer(reg), fr)}); err != nil {
		t.Fatal(err)
	}
	dime := byRoot(fr.Snapshot())["dime+"]
	if dime == nil || dime.runs != 1 {
		t.Fatalf("want one dime+ run in the recorder, got %+v", dime)
	}
	var parentNS, childNS int64
	for _, ev := range fr.Snapshot()[0].Events {
		switch {
		case ev.Name == obs.PhaseSignatureBuild && ev.Depth == 1:
			parentNS += ev.DurNS
		case ev.Name == obs.PhaseSignatureBuild && ev.Depth == 2:
			childNS += ev.DurNS
		}
	}
	if childNS == 0 {
		t.Fatal("no per-rule signature-build spans")
	}
	if got := dime.selfNS[obs.PhaseSignatureBuild]; got != parentNS {
		t.Errorf("signature-build self total %dns, want the top-level span's %dns", got, parentNS)
	}
	registryNS := reg.Histogram("dime.phase."+obs.PhaseSignatureBuild+".seconds", nil).Sum() * 1e9
	if registryNS < float64(parentNS+childNS/2) {
		t.Errorf("registry signature-build sum %.0fns, span %dns, per-rule children %dns: expected the registry to count the children again",
			registryNS, parentNS, childNS)
	}
	sum := dime.rootSelfNS
	for _, p := range phases {
		sum += dime.selfNS[p]
	}
	if sum != dime.durNS {
		t.Errorf("phase self times plus root self time = %dns, run = %dns", sum, dime.durNS)
	}
}

// Past Options.BenefitSortLimit candidates DIME+ verifies while streaming
// candidates off the indexes, inside the candidate-gen span; positive-verify
// then only records the counters. On a 600-publication Scholar page that is
// the case, so positive-verify's own time is a small fraction of
// candidate-gen's.
func TestStreamingVerificationIsCandidateGenTime(t *testing.T) {
	g := scholarPage(600, 3)
	cfg := presets.ScholarConfig()
	fr := obs.NewFlightRecorder(obs.FlightOptions{})
	res, err := core.DIMEPlus(g, core.Options{Config: cfg, Rules: presets.ScholarRules(cfg), IntraWorkers: 1, Probe: fr})
	if err != nil {
		t.Fatal(err)
	}
	const defaultSortLimit = 1 << 15
	if res.Stats.PositivePairsConsidered <= defaultSortLimit {
		t.Fatalf("%d candidates; the page must exceed the sort limit %d to stream", res.Stats.PositivePairsConsidered, defaultSortLimit)
	}
	dime := byRoot(fr.Snapshot())["dime+"]
	cg, pv := dime.selfNS[obs.PhaseCandidateGen], dime.selfNS[obs.PhasePositiveVerify]
	if pv*10 > cg {
		t.Errorf("positive-verify self %dns vs candidate-gen self %dns: streaming verification should land in candidate-gen", pv, cg)
	}
	verified := int64(-1)
	for _, ev := range fr.Snapshot()[0].Events {
		for _, c := range ev.Counters {
			if ev.Name == obs.PhasePositiveVerify && c.Name == "verified" {
				verified = c.Value
			}
		}
	}
	if verified != res.Stats.PositiveVerified {
		t.Errorf("positive-verify span counted %d verifications, Stats has %d", verified, res.Stats.PositiveVerified)
	}
}
