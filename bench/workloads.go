package main

import (
	"fmt"
	"math/rand"
	"sync"

	"dime/internal/entity"
	"dime/internal/serve"
)

// config is one run's settings.
type config struct {
	seed     int64
	seconds  float64
	traced   bool
	traceOut string
}

// targets is how many servers a run alternates operations between: one,
// or the untraced/traced pair of a traced run.
func (c config) targets() int {
	if c.traced {
		return 2
	}
	return 1
}

type workload struct {
	name string
	run  func(cfg config, rep *report) error
}

// workloads are the benchmark's workloads; BENCHMARK.json and the README
// say why each exists.
var workloads = []workload{
	{"lib-batch", runLib},
	{"serve-discover", func(cfg config, rep *report) error { return runServe(cfg, rep, serveDiscover(cfg)) }},
	{"serve-ingest", func(cfg config, rep *report) error { return runServe(cfg, rep, serveIngest(cfg, rep)) }},
	{"serve-read", func(cfg config, rep *report) error { return runServe(cfg, rep, serveRead(cfg)) }},
}

// Open-loop rates. They keep the two cores short of saturation while a 20 s
// window holds 800 pipelines, 1000 ingests and 10000 GETs.
const (
	discoverRate = 40.0  // pipelines per second
	ingestRate   = 60.0  // mixed operations per second
	readRate     = 500.0 // GETs per second
)

// blockPlan lays out n operations in one-second blocks, each block holding
// the given count of every kind in a seeded random order, so every second
// carries the same mix. assign gives each operation its corpus and
// argument from a per-target, per-kind counter.
func blockPlan(seed int64, n int, mix []kindCount, targets int, assign func(kind string, j int) (corpus, arg int)) []op {
	rng := rand.New(rand.NewSource(seed))
	var block []string
	for _, m := range mix {
		for i := 0; i < m.n; i++ {
			block = append(block, m.kind)
		}
	}
	plan := make([]op, 0, n)
	counters := make([]map[string]int, targets)
	for t := range counters {
		counters[t] = map[string]int{}
	}
	for len(plan) < n {
		rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		for _, kind := range block {
			if len(plan) == n {
				break
			}
			t := len(plan) % targets
			c, arg := assign(kind, counters[t][kind])
			counters[t][kind]++
			plan = append(plan, op{kind: kind, corpus: c, arg: arg})
		}
	}
	return plan
}

type kindCount struct {
	kind string
	n    int
}

// serveDiscover is serve-discover: discover → wait → results pipelines over
// static, preloaded corpora at a fixed arrival rate. No ingest happens, so
// it exercises the pool queue, the per-job DIME+ run and result encoding.
func serveDiscover(cfg config) *serveSpec {
	corpora := staticCorpora(cfg.seed)
	n := int(cfg.seconds * discoverRate)
	plan := blockPlan(cfg.seed, n, []kindCount{{"pipeline", 1}}, cfg.targets(), func(_ string, j int) (int, int) {
		return j % len(corpora), 0
	})
	return &serveSpec{
		corpora: corpora, plan: plan, rate: discoverRate,
		// A 20 s window holds 800 pipelines: p95 has 40 beyond it, p99
		// would need 1000.
		primary: map[string]bool{"pipeline": true}, tailPct: 95, limitMS: 100,
		exec: func(s *serveRun, t *target, _ int, o op) error {
			c := s.spec.corpora[o.corpus]
			res, err := s.pipeline(t, c, s.times)
			if err != nil {
				return err
			}
			s.orc.result(c.id+" "+res.Job, res, s.digests[o.corpus])
			s.stats.add(res)
			return nil
		},
	}
}

// serveRead is serve-read: GETs over preloaded, already-discovered corpora
// at a fixed arrival rate. It never enters the core, so it is the no-change
// control for core and Session work, and it measures the HTTP handler and
// JSON encoding on their own. Every answer is checked against the
// reference result of the set-up discovery (job-1 of each corpus).
func serveRead(cfg config) *serveSpec {
	corpora := staticCorpora(cfg.seed)
	n := int(cfg.seconds * readRate)
	mix := []kindCount{{"scrollbar", 200}, {"witnesses", 150}, {"partitions", 75}, {"status", 50}, {"results", 25}}
	plan := blockPlan(cfg.seed, n, mix, cfg.targets(), func(_ string, j int) (int, int) {
		return j % len(corpora), j / len(corpora)
	})
	return &serveSpec{
		corpora: corpora, plan: plan, rate: readRate,
		primary: map[string]bool{"scrollbar": true, "witnesses": true, "partitions": true, "status": true, "results": true},
		tailPct: 99,
		exec:    readOp,
	}
}

const firstJob = "job-1"

func readOp(s *serveRun, t *target, _ int, o op) error {
	c, ref := s.spec.corpora[o.corpus], s.refs[o.corpus]
	switch o.kind {
	case "scrollbar":
		level := o.arg % len(ref.Levels)
		var got serve.ScrollbarJSON
		err := s.timed(o.kind, func() (err error) { got, err = t.cl.Scrollbar(s.ctx, c.id, level); return })
		if err != nil {
			return err
		}
		lv := ref.Levels[level]
		if got.Job != firstJob || got.Level != level || got.Levels != len(ref.Levels) || got.Rule != lv.RuleName ||
			!equalStrings(got.EntityIDs, lv.EntityIDs) || !equalInts(got.PartitionIndexes, lv.PartitionIndexes) {
			s.orc.fail("%s scrollbar %d differs from the reference", c.id, level)
		}
	case "witnesses":
		p := o.arg % len(ref.Partitions)
		var got serve.WitnessReportJSON
		err := s.timed(o.kind, func() (err error) { got, err = t.cl.Witness(s.ctx, c.id, p); return })
		if err != nil {
			return err
		}
		w, marked := ref.Witnesses[p]
		ok := got.Job == firstJob && got.Partition == p && got.Marked == marked && len(got.EntityIDs) == len(ref.Partitions[p])
		for i, ei := range ref.Partitions[p] {
			ok = ok && got.EntityIDs[i] == ref.Group.Entities[ei].ID
		}
		if marked {
			ok = ok && got.Witness != nil && *got.Witness == serve.WitnessJSON{Rule: w.Rule, EntityID: w.EntityID, PivotID: w.PivotID}
		} else {
			ok = ok && got.Witness == nil
		}
		if !ok {
			s.orc.fail("%s witness for partition %d differs from the reference", c.id, p)
		}
	case "partitions":
		var got serve.PartitionsJSON
		err := s.timed(o.kind, func() (err error) { got, err = t.cl.Partitions(s.ctx, c.id); return })
		if err != nil {
			return err
		}
		if got.Entities != len(c.initial.Entities) || !equalPartitions(got.Partitions, ref.Partitions) {
			s.orc.fail("%s live partitions differ from the reference", c.id)
		}
	case "status":
		var got serve.JobJSON
		err := s.timed(o.kind, func() (err error) { got, err = t.cl.JobStatus(s.ctx, c.id, firstJob, false); return })
		if err != nil {
			return err
		}
		if got.State != serve.JobDone {
			s.orc.fail("%s %s is %s, want done", c.id, firstJob, got.State)
		}
	case "results":
		var got *serve.ResultJSON
		err := s.timed(o.kind, func() (err error) { got, err = t.cl.JobResult(s.ctx, c.id, firstJob); return })
		if err != nil {
			return err
		}
		s.orc.result(c.id+" "+firstJob, got, s.digests[o.corpus])
	default:
		return fmt.Errorf("unknown read %q", o.kind)
	}
	return nil
}

// Serve-ingest shape: corpora start at ingestInitial entities and grow by
// ingestBatch entities per ingest.
const (
	ingestInitial = 200
	ingestBatch   = 8
)

// ingestState tracks where the server placed each ingested batch, and the
// discoveries made mid-stream, so the corpora can be rebuilt in server
// order and every result checked once the window closes.
type ingestState struct {
	mu     sync.Mutex
	placed map[[2]int]map[int]int // (target, corpus) → slot → batch
	mid    map[[2]int][]*serve.ResultJSON
}

// serveIngest is serve-ingest, the write path: ingests of ingestBatch
// entities, discover pipelines on the corpora being written, and live
// partition reads, at a fixed arrival rate. Most of the work is
// Session.Add and its periodic rebuilds.
func serveIngest(cfg config, rep *report) *serveSpec {
	n := int(cfg.seconds * ingestRate)
	const nCorpora = 16
	batches := map[[2]int]int{}
	mix := []kindCount{{"ingest", 50}, {"pipeline", 5}, {"partitions", 5}}
	plan := blockPlan(cfg.seed, n, mix, cfg.targets(), func(kind string, j int) (int, int) {
		return j % nCorpora, j / nCorpora
	})
	maxBatches := 0
	for k, o := range plan {
		if o.kind == "ingest" {
			key := [2]int{k % cfg.targets(), o.corpus}
			batches[key]++
			maxBatches = max(maxBatches, batches[key])
		}
	}
	st := &ingestState{placed: map[[2]int]map[int]int{}, mid: map[[2]int][]*serve.ResultJSON{}}
	return &serveSpec{
		corpora: ingestCorpora(cfg.seed, ingestInitial, maxBatches*ingestBatch),
		plan:    plan, rate: ingestRate,
		// The ingest tail is set by discoveries taking both cores, a
		// handful of events a run: p99 rests on ten samples and moves by a
		// third between seeds, p95 on fifty.
		primary: map[string]bool{"ingest": true}, tailPct: 95,
		// Writers and readers are separate clients: a discovery's long
		// wait holds the reader connection, never the writer's.
		laneOf: func(kind string) int {
			if kind == "ingest" {
				return 0
			}
			return 1
		},
		exec: func(s *serveRun, t *target, k int, o op) error {
			return st.exec(s, t, k, o)
		},
		after: func(s *serveRun) (int, error) { return st.verify(s, rep) },
	}
}

func (st *ingestState) exec(s *serveRun, t *target, k int, o op) error {
	c := s.spec.corpora[o.corpus]
	key := [2]int{k % len(s.targets), o.corpus}
	switch o.kind {
	case "ingest":
		batch := c.stream[o.arg*ingestBatch : (o.arg+1)*ingestBatch]
		var resp serve.IngestResponse
		err := s.timed(o.kind, func() (err error) {
			resp, err = t.cl.Ingest(s.ctx, c.id, serve.IngestRequest{Entities: wire(batch)})
			return
		})
		if err != nil {
			return err
		}
		slot := resp.Size - resp.Added - len(c.initial.Entities)
		if resp.Added != ingestBatch || slot < 0 || slot%ingestBatch != 0 {
			s.orc.fail("%s ingest of batch %d: added %d, size %d", c.id, o.arg, resp.Added, resp.Size)
			return nil
		}
		st.mu.Lock()
		if st.placed[key] == nil {
			st.placed[key] = map[int]int{}
		}
		st.placed[key][slot/ingestBatch] = o.arg
		st.mu.Unlock()
	case "pipeline":
		res, err := s.pipeline(t, c, s.times)
		if err != nil {
			return err
		}
		if _, ok := partitionsCover(res.Partitions); !ok {
			s.orc.fail("%s %s: partitions do not cover the corpus", c.id, res.Job)
			return nil
		}
		s.stats.add(res)
		st.mu.Lock()
		st.mid[key] = append(st.mid[key], res)
		st.mu.Unlock()
	case "partitions":
		var got serve.PartitionsJSON
		err := s.timed(o.kind, func() (err error) { got, err = t.cl.Partitions(s.ctx, c.id); return })
		if err != nil {
			return err
		}
		if n, ok := partitionsCover(got.Partitions); !ok || n != got.Entities || n < len(c.initial.Entities) {
			s.orc.fail("%s live partitions do not cover its %d entities", c.id, got.Entities)
		}
	default:
		return fmt.Errorf("unknown ingest-workload op %q", o.kind)
	}
	return nil
}

// verify rebuilds every corpus in the order the server appended its
// batches, then checks one final discovery and the live partitions against
// DIME+ on exactly those entities, and every mid-stream discovery against
// DIME+ on the prefix it saw. It returns the number of final operations it
// made.
func (st *ingestState) verify(s *serveRun, rep *report) (int, error) {
	ops := 0
	for ti, t := range s.targets {
		for ci, c := range s.spec.corpora {
			key := [2]int{ti, ci}
			ents := append([]*entity.Entity(nil), c.initial.Entities...)
			for slot := 0; slot < len(st.placed[key]); slot++ {
				b, ok := st.placed[key][slot]
				if !ok {
					s.orc.fail("%s: no batch landed at slot %d", c.id, slot)
					break
				}
				ents = append(ents, c.stream[b*ingestBatch:(b+1)*ingestBatch]...)
			}
			prefix := func(n int) *entity.Group {
				g := entity.NewGroup(c.initial.Name, c.initial.Schema)
				g.Entities = ents[:n]
				return g
			}
			prof := s.profiles[c.profile]
			final, want, err := referenceDigest(prefix(len(ents)), prof)
			if err != nil {
				return ops, err
			}
			ops += 2
			res, err := s.pipeline(t, c, newTimings())
			if err != nil {
				rep.failedOp(fmt.Sprintf("final discovery on %s: %v", c.id, err))
			} else {
				s.orc.result(c.id+" final "+res.Job, res, want)
			}
			parts, err := t.cl.Partitions(s.ctx, c.id)
			if err != nil {
				rep.failedOp(fmt.Sprintf("final partitions of %s: %v", c.id, err))
			} else if parts.Entities != len(ents) || !equalPartitions(parts.Partitions, final.Partitions) {
				s.orc.fail("%s final live partitions differ from DIME+ on the %d entities sent", c.id, len(ents))
			}
			for _, mid := range st.mid[key] {
				n, _ := partitionsCover(mid.Partitions)
				if n > len(ents) {
					s.orc.fail("%s %s saw %d entities, more than the %d sent", c.id, mid.Job, n, len(ents))
					continue
				}
				_, d, err := referenceDigest(prefix(n), prof)
				if err != nil {
					return ops, err
				}
				s.orc.result(c.id+" mid-stream "+mid.Job, mid, d)
			}
		}
	}
	return ops, nil
}
