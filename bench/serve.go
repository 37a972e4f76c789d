package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"dime/internal/client"
	"dime/internal/core"
	"dime/internal/obs"
	"dime/internal/serve"
)

// target is one in-process dimed: a serve.Server on 127.0.0.1:0 built the
// way cmd/dimed builds it, a registry and flight recorder the benchmark
// owns, and a client allowed GOMAXPROCS connections.
type target struct {
	srv    *serve.Server
	reg    *obs.Registry
	flight *obs.FlightRecorder
	born   time.Time // origin of the flight recorder's start offsets
	tr     *http.Transport
	cl     *client.Client
	jobs   *jobClock // nil unless queue wait is measured
}

// startTarget starts a server with cmd/dimed's defaults: two pool workers,
// a queue of 64, and a 256-entry flight recorder keeping every run. A traced
// target instead records into a 65536-entry recorder with per-span
// allocation figures; hook installs the BeforeJob hook that times queue
// wait.
func startTarget(profiles map[string]serve.Profile, traced, hook bool, seed int64) (*target, error) {
	t := &target{reg: obs.NewRegistry(), born: obs.Now()}
	fo := obs.FlightOptions{}
	if traced {
		fo = obs.FlightOptions{Capacity: 1 << 16, Resources: true}
	}
	t.flight = obs.NewFlightRecorder(fo)
	opts := serve.Options{Profiles: profiles, Registry: t.reg, Flight: t.flight}
	if hook {
		t.jobs = &jobClock{at: map[string]time.Time{}}
		opts.BeforeJob = t.jobs.mark
	}
	t.srv = serve.NewServer(opts)
	if err := t.srv.Start("127.0.0.1:0"); err != nil {
		// Stop the job pool NewServer started; the bind error is the one to
		// report.
		_ = t.srv.Shutdown(context.Background())
		return nil, err
	}
	conns := gomaxprocs()
	t.tr = &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	t.cl = client.New("http://"+t.srv.Addr(), client.Options{
		HTTPClient: &http.Client{Transport: t.tr},
		Rand:       rand.New(rand.NewSource(seed)),
		Registry:   t.reg,
	})
	return t, nil
}

// stop drains and shuts the server down and closes the client's
// connections.
func (t *target) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := t.srv.Shutdown(ctx)
	t.tr.CloseIdleConnections()
	return err
}

// jobClock records when a pool worker picked each job up.
type jobClock struct {
	mu sync.Mutex
	at map[string]time.Time
}

func (c *jobClock) mark(corpusID, jobID string) {
	now := obs.Now()
	c.mu.Lock()
	c.at[corpusID+"/"+jobID] = now
	c.mu.Unlock()
}

func (c *jobClock) take(corpusID, jobID string) (time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	at, ok := c.at[corpusID+"/"+jobID]
	delete(c.at, corpusID+"/"+jobID)
	return at, ok
}

// op is one planned operation of a serve workload.
type op struct {
	kind   string // a route name, or "pipeline" for discover→wait→results
	corpus int
	arg    int // scrollbar level, witness partition or ingest batch
}

// serveSpec describes one serve workload.
type serveSpec struct {
	corpora []*corpus
	plan    []op
	rate    float64         // operations per second
	primary map[string]bool // kinds whose latency is the headline
	tailPct float64
	limitMS float64 // latency limit on the tail; 0 for none
	// laneOf, when set, splits the operations into lanes by kind, each lane
	// with its own worker and connection, so a long operation in one lane
	// never delays the operations of another.
	laneOf func(kind string) int
	// exec runs operation k on target t.
	exec func(s *serveRun, t *target, k int, o op) error
	// after runs once the window closed, before the servers stop; it returns
	// the number of checks it made.
	after func(s *serveRun) (int, error)
}

// lanes splits the plan by laneOf, one worker per lane, or puts it all in
// one lane served by GOMAXPROCS workers.
func (spec *serveSpec) lanes() []lane {
	if spec.laneOf == nil {
		return oneLane(len(spec.plan), gomaxprocs())
	}
	var lanes []lane
	for k, o := range spec.plan {
		l := spec.laneOf(o.kind)
		for len(lanes) <= l {
			lanes = append(lanes, lane{workers: 1})
		}
		lanes[l].ops = append(lanes[l].ops, k)
	}
	return lanes
}

// serveRun is the state of one serve workload run.
type serveRun struct {
	ctx      context.Context
	cfg      config
	spec     *serveSpec
	profiles map[string]serve.Profile
	refs     []*core.Result
	digests  [][32]byte
	targets  []*target
	orc      *oracle
	times    *timings
	stats    *statsAgg
}

// setupIngestBatch is how many entities one set-up ingest request carries.
const setupIngestBatch = 64

// setup starts a target and brings every corpus to its initial state:
// created, ingested and discovered once, each discovery checked against the
// reference. Its duration is the set-up time.
func (s *serveRun) setup(traced, hook bool) (*target, time.Duration, error) {
	start := obs.Now()
	t, err := startTarget(s.profiles, traced, hook, s.cfg.seed)
	if err != nil {
		return nil, 0, err
	}
	for _, c := range s.spec.corpora {
		if _, err := t.cl.CreateCorpus(s.ctx, serve.CreateCorpusRequest{ID: c.id, Profile: c.profile, Name: c.initial.Name}); err != nil {
			return t, 0, err
		}
		ents := c.initial.Entities
		for lo := 0; lo < len(ents); lo += setupIngestBatch {
			hi := min(lo+setupIngestBatch, len(ents))
			if _, err := t.cl.Ingest(s.ctx, c.id, serve.IngestRequest{Entities: wire(ents[lo:hi])}); err != nil {
				return t, 0, err
			}
		}
	}
	for i, c := range s.spec.corpora {
		res, err := s.pipeline(t, c, newTimings())
		if err != nil {
			return t, 0, err
		}
		s.orc.result(c.id+" set-up discovery", res, s.digests[i])
	}
	return t, obs.Since(start), nil
}

// pipeline runs discover → wait → results on one corpus, timing each call
// into tm and, when the target has the hook, the job's queue wait.
func (s *serveRun) pipeline(t *target, c *corpus, tm *timings) (*serve.ResultJSON, error) {
	t0 := obs.Now()
	job, err := t.cl.Discover(s.ctx, c.id, serve.DiscoverRequest{}, "")
	tm.add("discover", obs.Since(t0))
	if err != nil {
		return nil, err
	}
	t1 := obs.Now()
	st, err := t.cl.WaitJob(s.ctx, c.id, job.Job)
	tm.add("status", obs.Since(t1))
	if err != nil {
		return nil, err
	}
	if t.jobs != nil {
		if at, ok := t.jobs.take(c.id, job.Job); ok {
			tm.add("queue-wait", at.Sub(t0))
		}
	}
	if st.State != serve.JobDone {
		return nil, fmt.Errorf("job %s/%s ended %s: %s", c.id, job.Job, st.State, st.Error)
	}
	t2 := obs.Now()
	res, err := t.cl.JobResult(s.ctx, c.id, job.Job)
	tm.add("results", obs.Since(t2))
	return res, err
}

// timed runs one client call and records its round trip under route.
func (s *serveRun) timed(route string, call func() error) error {
	t0 := obs.Now()
	err := call()
	s.times.add(route, obs.Since(t0))
	return err
}

// setupReps is how many times an untraced run sets up; setup_s is the
// median, so one slow start does not move it.
const setupReps = 3

// runServe runs a serve workload: references, set-up, the open-loop window
// and its checks. Untraced, it sets up setupReps times (keeping the last
// server) and reports the end-to-end metrics. Traced, it sets up two
// servers with the queue-wait hook, an untraced one and a traced one, and
// alternates operations between them, so the traced server's spans give
// the per-layer numbers and the pair gives the tracing overhead.
func runServe(cfg config, rep *report, spec *serveSpec) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(cfg.seconds*float64(time.Second))+2*time.Minute)
	defer cancel()
	s := &serveRun{
		ctx: ctx, cfg: cfg, spec: spec, profiles: serve.BuiltinProfiles(),
		orc: &rep.orc, times: newTimings(), stats: &statsAgg{},
	}
	for _, c := range spec.corpora {
		ref, d, err := referenceDigest(c.initial, s.profiles[c.profile])
		if err != nil {
			return err
		}
		s.refs = append(s.refs, ref)
		s.digests = append(s.digests, d)
	}
	defer func() {
		for _, t := range s.targets {
			if err := t.stop(); err != nil {
				rep.linef("shutdown: %v", err)
			}
		}
	}()
	if cfg.traced {
		for _, traced := range []bool{false, true} {
			t, _, err := s.setup(traced, true)
			if t != nil {
				s.targets = append(s.targets, t)
			}
			if err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
		}
	} else {
		var setups []float64
		for i := 0; i < setupReps; i++ {
			t, d, err := s.setup(false, false)
			if t != nil {
				s.targets = append(s.targets, t)
			}
			if err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, d.Seconds())
			if i < setupReps-1 {
				s.targets = s.targets[:0]
				if err := t.stop(); err != nil {
					return fmt.Errorf("set-up: %w", err)
				}
			}
		}
		rep.setNote("setup_s", median(setups), fmt.Sprintf("median of %d", len(setups)))
	}

	interval := time.Duration(float64(time.Second) / spec.rate)
	n := len(spec.plan)
	// The last target is the run's only server, or the traced one of a pair.
	last := s.targets[len(s.targets)-1]
	reg0 := snapRegistry(last.reg)
	p0 := readProc()
	start := obs.Now().Add(5 * time.Millisecond)
	samples := openLoop(realClock{}, start, interval, n, spec.lanes(), func(k int) error {
		return spec.exec(s, s.targets[k%len(s.targets)], k, spec.plan[k])
	})
	window := obs.Since(start)
	p1 := readProc()
	reg1 := snapRegistry(last.reg)
	// Read the spans before the final checks add discoveries of their own.
	var traces []*obs.FlightTrace
	if cfg.traced {
		traces = windowTraces(last.flight, last.born, start)
	}
	heap := 0.0
	if !cfg.traced {
		heap = liveHeapMB()
	}

	byKind := map[string][]float64{}
	byTarget := make([][]float64, len(s.targets))
	for k, sm := range samples {
		if sm.err != nil {
			rep.failedOp(fmt.Sprintf("%s on %s: %v", spec.plan[k].kind, spec.corpora[spec.plan[k].corpus].id, sm.err))
			continue
		}
		lat := msOf(sm.latency)
		byKind[spec.plan[k].kind] = append(byKind[spec.plan[k].kind], lat)
		if spec.primary[spec.plan[k].kind] {
			byTarget[k%len(s.targets)] = append(byTarget[k%len(s.targets)], lat)
		}
	}
	rep.attempted += int64(n)
	if spec.after != nil {
		checks, err := spec.after(s)
		if err != nil {
			return err
		}
		rep.attempted += int64(checks)
	}
	for _, kind := range sortedKeys(byKind) {
		v, label := tail(byKind[kind], 90)
		rep.linef("%-10s p50 %8.3f ms  %s %8.3f ms", kind, median(byKind[kind]), label, v)
	}
	rep.checkLag(samples)

	if !cfg.traced {
		var primary []float64
		for _, xs := range byTarget {
			primary = append(primary, xs...)
		}
		rep.setNote("latency_p50_ms", median(primary), fmt.Sprintf("%d ops", len(primary)))
		v, label := tail(primary, spec.tailPct)
		rep.setNote("latency_tail_ms", v, label)
		if spec.limitMS > 0 {
			// A failed operation misses any latency limit.
			verdict := "met"
			if v > spec.limitMS || rep.failed() > 0 {
				verdict = "MISSED"
			}
			rep.linef("latency limit: %s <= %.0f ms at %.0f/s: %s", label, spec.limitMS, spec.rate, verdict)
		}
		rep.setNote("capacity_per_s", float64(n*gomaxprocs())/(p1.cpu-p0.cpu).Seconds(),
			fmt.Sprintf("%d ops in %.3f CPU-s on %d cores", n, (p1.cpu-p0.cpu).Seconds(), gomaxprocs()))
		rep.set("heap_retained_mb", heap)
		return nil
	}

	rep.setGen(samples)
	attempts, retries := reg1.attempts-reg0.attempts, reg1.retries-reg0.retries
	if calls := attempts - retries; calls > 0 {
		rep.set("client.attempts_per_op", float64(attempts)/float64(calls))
	}
	rep.set("client.retries", float64(retries))
	for _, r := range routes {
		if dc := reg1.count[r] - reg0.count[r]; dc > 0 {
			rep.set("serve."+r+".handler_ms_mean", (reg1.sum[r]-reg0.sum[r])*1e3/float64(dc))
		}
		if rtt := s.times.get(r); len(rtt) > 0 {
			rep.set("serve."+r+".rtt_p50_ms", median(ms(rtt)))
		}
	}
	if qw := ms(s.times.get("queue-wait")); len(qw) > 0 {
		rep.set("pool.queue_wait_p50_ms", median(qw))
		v, label := tail(qw, 99)
		rep.setNote("pool.queue_wait_p99_ms", v, label)
		rep.set("pool.jobs", float64(len(qw)))
	}
	spans := byRoot(traces)
	if add := spans["session-add"]; add != nil {
		rep.set("session.add_us_mean", float64(add.durNS)/1e3/float64(add.runs))
	}
	if rb := spans["session-rebuild"]; rb != nil {
		rep.set("session.rebuilds", float64(rb.runs))
		rep.set("session.rebuild_ms_total", float64(rb.durNS)/1e6)
	}
	rep.setCore(spans["dime+"], s.stats)
	rep.setProc(p0, p1, n, window)
	if len(byTarget[0]) > 0 && len(byTarget[1]) > 0 {
		rep.set("obs.trace_overhead_pct", (median(byTarget[1])/median(byTarget[0])-1)*100)
	}
	if cfg.traceOut != "" {
		return writeTraces(cfg.traceOut, traces)
	}
	return nil
}
