package main

import (
	"fmt"
	"runtime"
	"time"

	"dime/internal/core"
	"dime/internal/obs"
	"dime/internal/serve"
)

// runLib is lib-batch: a closed loop of passes, each pass one
// core.DiscoverAll call per profile over the lib-batch mix with GOMAXPROCS
// workers, every result checked against the sequential reference. It is the
// only workload where the core phases do nearly all the work and HTTP none.
// Traced, passes alternate between a nil probe and a flight recorder, so the
// traced passes give the per-layer numbers and the pair gives the tracing
// overhead.
func runLib(cfg config, rep *report) error {
	batches := libInputs(cfg.seed)
	profiles := serve.BuiltinProfiles()
	want := make([][][32]byte, len(batches))
	entities, groups := 0, 0
	for bi, b := range batches {
		for _, g := range b.groups {
			_, d, err := referenceDigest(g, profiles[b.profile])
			if err != nil {
				return err
			}
			want[bi] = append(want[bi], d)
			entities += len(g.Entities)
			groups++
		}
	}
	stats := &statsAgg{}
	// last holds the latest pass's results, which the retained-heap reading
	// counts along with the inputs: what a caller of the library keeps.
	var last [][]*core.Result
	pass := func(probe obs.Probe) (time.Duration, error) {
		results := make([][]*core.Result, len(batches))
		start := obs.Now()
		for bi, b := range batches {
			p := profiles[b.profile]
			rs, err := core.DiscoverAll(b.groups, core.Options{Config: p.Config, Rules: p.Rules, Probe: probe}, 0)
			if err != nil {
				return 0, err
			}
			results[bi] = rs
		}
		d := obs.Since(start)
		last = results
		for bi, rs := range results {
			for gi, r := range rs {
				rj := serve.ResultFromCore("", "", r)
				rep.orc.result("lib "+r.Group.Name, rj, want[bi][gi])
				if probe != nil {
					stats.add(rj)
				}
			}
		}
		return d, nil
	}

	reps := setupReps
	if cfg.traced {
		reps = 1
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		d, err := pass(nil)
		if err != nil {
			return fmt.Errorf("set-up pass: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	rep.setNote("setup_s", median(setups), fmt.Sprintf("first pass, median of %d", len(setups)))

	var fr *obs.FlightRecorder
	born := obs.Now()
	if cfg.traced {
		fr = obs.NewFlightRecorder(obs.FlightOptions{Capacity: 1 << 16, Resources: true})
	}
	var plain, traced []float64
	p0 := readProc()
	start := obs.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for k := 0; obs.Now().Before(deadline); k++ {
		var probe obs.Probe
		if fr != nil && k%2 == 1 {
			probe = fr
		}
		d, err := pass(probe)
		rep.attempted += int64(groups)
		if err != nil {
			rep.failedOp(err.Error())
			continue
		}
		if probe != nil {
			traced = append(traced, msOf(d))
		} else {
			plain = append(plain, msOf(d))
		}
	}
	window := obs.Since(start)
	p1 := readProc()
	passes := len(plain) + len(traced)

	if !cfg.traced {
		rep.setNote("latency_p50_ms", median(plain), fmt.Sprintf("pass of %d groups, %d passes", groups, len(plain)))
		// A 20 s window holds 40–100 passes: the third quartile is the
		// highest percentile that always has ten passes beyond it.
		v, label := tail(plain, 75)
		rep.setNote("latency_tail_ms", v, label)
		rep.setNote("capacity_per_s", float64(entities*passes*gomaxprocs())/(p1.cpu-p0.cpu).Seconds(),
			fmt.Sprintf("entities; %d passes in %.3f CPU-s on %d cores", passes, (p1.cpu-p0.cpu).Seconds(), gomaxprocs()))
		rep.set("heap_retained_mb", liveHeapMB())
		runtime.KeepAlive(batches)
		runtime.KeepAlive(last)
		rep.linef("wall throughput %.0f entities/s over %d passes", float64(entities*passes)/window.Seconds(), passes)
		return nil
	}

	rep.set("gen.ops", float64(passes))
	traces := windowTraces(fr, born, start)
	rep.setCore(byRoot(traces)["dime+"], stats)
	rep.setProc(p0, p1, passes, window)
	if len(plain) > 0 && len(traced) > 0 {
		rep.set("obs.trace_overhead_pct", (median(traced)/median(plain)-1)*100)
	}
	if cfg.traceOut != "" {
		return writeTraces(cfg.traceOut, traces)
	}
	return nil
}
