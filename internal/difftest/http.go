package difftest

// Served differential runner: a Case replayed end to end against a live
// dimed-style server (internal/serve behind httptest), always through the
// typed internal/client. Every result fetched back over HTTP must be
// byte-identical to an in-process DIME+ run on the same group —
// partitions, pivot, levels, witnesses and Stats — which extends the
// repository's determinism contract across the serialization and service
// boundary. A Target runs the replay in one of two modes:
//
//   - fault-free: no injection, and a client that makes exactly one attempt
//     per call, so any unexpected status — a stray 429, 500 or 503 that a
//     retrying client would ride through — fails the replay;
//   - chaos: seeded internal/fault injection on both sides of the wire (a
//     server middleware and a client transport) with the resilient client
//     retrying. Results must still be byte-identical, no job may be
//     duplicated (idempotency keys dedupe retried submissions), and no
//     injected fault may surface to the caller.
//
// The chaos rules are scoped by replay safety. Latency and pre-handler 503
// refusals are safe on every route: the handler never ran. Resets and
// truncated bodies go only to GETs and to the keyed POST .../discover. An
// unkeyed mutation (create, ingest, delete) that fails in transit is
// undecidable for the client — did the server apply it? — so the client
// does not retry it, and the rules must not manufacture such failures.

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"time"

	"dime/internal/client"
	"dime/internal/core"
	"dime/internal/fault"
	"dime/internal/obs"
	"dime/internal/serve"
)

// ChaosOptions seeds the fault plan of a chaos target.
type ChaosOptions struct {
	// Seed drives every RNG in the target: the server-side injector, the
	// client-side injector and the client's backoff jitter (offset so the
	// three streams differ). Same seed + same request sequence = same
	// faults.
	Seed int64
	// Rate is the per-rule fire probability.
	Rate float64
}

// Target is a live server plus the API client pointed at it.
type Target struct {
	// Svc registers per-corpus profiles (configs carry node-mapper
	// functions, which do not serialize, so registration is programmatic).
	Svc *serve.Service
	// Client is the API client; every DiffServe request goes through it.
	Client *client.Client
	// ServerFaults injects at the server (middleware): 503s, resets,
	// truncations, latency. Nil on a fault-free target.
	ServerFaults *fault.Injector
	// ClientFaults injects at the client (transport): synthesized 503s
	// before the request leaves, truncated reads of real responses. Nil on
	// a fault-free target.
	ClientFaults *fault.Injector
	// Registry holds the client's attempt, retry and breaker counters.
	Registry *obs.Registry
	// ServerRegistry is the server's metrics registry; DiffServe reads its
	// dime.jobs.computed and dime.jobs.reused counters.
	ServerRegistry *obs.Registry
}

// NewTarget starts an httptest server over a fresh serve.Service with its
// own registry and flight recorder, builds a client against it, and returns
// the target plus a closer that shuts the server down. With a nil chaos the
// target injects no faults and its client makes one attempt per call;
// otherwise the server sits behind fault middleware and the client retries
// through a fault transport, every RNG seeded from chaos.Seed.
func NewTarget(opts serve.Options, chaos *ChaosOptions) (Target, func()) {
	if opts.Registry == nil {
		opts.Registry = obs.NewRegistry()
	}
	if opts.Flight == nil {
		opts.Flight = obs.NewFlightRecorder(obs.FlightOptions{})
	}
	tgt := Target{Svc: serve.NewService(opts), Registry: obs.NewRegistry(), ServerRegistry: opts.Registry}
	if chaos == nil {
		ts := httptest.NewServer(serve.Handler(tgt.Svc))
		tgt.Client = client.New(ts.URL, client.Options{
			HTTPClient: ts.Client(), MaxAttempts: 1, Registry: tgt.Registry,
		})
		return tgt, ts.Close
	}

	rate := chaos.Rate
	tgt.ServerFaults = fault.NewInjector(fault.Options{
		Seed: chaos.Seed,
		Rules: []fault.Rule{
			{Name: "latency", P: rate, Kind: fault.KindLatency, Latency: 200 * time.Microsecond},
			{Name: "refuse-503", P: rate, Kind: fault.KindStatus, Status: http.StatusServiceUnavailable, RetryAfter: "0"},
			{Name: "get-reset", Method: http.MethodGet, P: rate, Kind: fault.KindReset},
			{Name: "get-truncate", Method: http.MethodGet, P: rate, Kind: fault.KindTruncate},
			{Name: "discover-truncate", Method: http.MethodPost, Path: "*/discover", P: rate, Kind: fault.KindTruncate},
		},
	})
	ts := httptest.NewServer(tgt.ServerFaults.Middleware(serve.Handler(tgt.Svc)))

	tgt.ClientFaults = fault.NewInjector(fault.Options{
		Seed: chaos.Seed + 1,
		Rules: []fault.Rule{
			{Name: "local-503", P: rate / 2, Kind: fault.KindStatus, Status: http.StatusServiceUnavailable, RetryAfter: "0"},
			{Name: "local-get-truncate", Method: http.MethodGet, P: rate / 2, Kind: fault.KindTruncate},
		},
	})
	tgt.Client = client.New(ts.URL, client.Options{
		HTTPClient:  &http.Client{Transport: tgt.ClientFaults.Transport(nil)},
		MaxAttempts: 16,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  8 * time.Millisecond,
		Rand:        rand.New(rand.NewSource(chaos.Seed + 2)),
		Breaker:     client.BreakerOptions{Threshold: 16, Cooldown: 10 * time.Millisecond},
		Registry:    tgt.Registry,
	})
	return tgt, ts.Close
}

// CheckServe runs the case through DiffServe on the named corpus under the
// caller's context and fails the test with the case name and seed on the
// first divergence.
func CheckServe(t TB, ctx context.Context, tgt Target, c Case, corpus string) {
	t.Helper()
	if err := c.DiffServe(ctx, tgt, corpus); err != nil {
		t.Fatalf("case %s (seed %d): %v", c.Name, c.Seed, err)
	}
}

// DiffServe replays the case through the target's client on a corpus of its
// own, in order:
//
//  1. create the corpus under a profile of its own and ingest the group;
//  2. submit two keyed discovers, waiting for each job and fetching its
//     result, which must be exactly — stats and witnesses included — the
//     in-process DIME+ result;
//  3. replay the first key, which must return the original job, and require
//     the corpus to hold two jobs, so no retried submission was duplicated;
//  4. require from the server's job counters that the first submission
//     computed DIME+ and the second, on the unchanged corpus, reused its
//     result;
//  5. check the deepest scrollbar level and every witness against the same
//     reference;
//  6. delete the corpus, so a long sweep holds one corpus at a time.
//
// Every request runs under ctx, so a test deadline or cancellation cuts the
// replay short instead of letting retries grind on.
func (c Case) DiffServe(ctx context.Context, tgt Target, corpus string) error {
	want, err := core.DIMEPlus(c.Group, core.Options{Config: c.Config, Rules: c.Rules, Probe: c.Probe})
	if err != nil {
		return fmt.Errorf("DIME+(in-process): %w", err)
	}

	// One profile per corpus: RegisterProfile refuses a name it already
	// holds.
	profile := "case-" + corpus
	if err := tgt.Svc.RegisterProfile(profile, serve.Profile{Config: c.Config, Rules: c.Rules}); err != nil {
		return err
	}
	if _, err := tgt.Client.CreateCorpus(ctx, serve.CreateCorpusRequest{
		ID: corpus, Profile: profile, Name: c.Group.Name,
	}); err != nil {
		return fmt.Errorf("create corpus: %w", err)
	}
	ingest := serve.IngestRequest{}
	for _, e := range c.Group.Entities {
		ingest.Entities = append(ingest.Entities, serve.EntityJSON{ID: e.ID, Values: e.Values})
	}
	ingested, err := tgt.Client.Ingest(ctx, corpus, ingest)
	if err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	if ingested.Size != len(c.Group.Entities) {
		return fmt.Errorf("ingest: size %d, want %d", ingested.Size, len(c.Group.Entities))
	}

	computed0, reused0 := jobCounts(tgt.ServerRegistry)
	const submissions = 2
	firstKey, firstJob := "", ""
	for i := 0; i < submissions; i++ {
		key := fmt.Sprintf("%s-%d", corpus, i)
		job, err := tgt.Client.Discover(ctx, corpus, serve.DiscoverRequest{}, key)
		if err != nil {
			return fmt.Errorf("submission %d: discover: %w", i, err)
		}
		if i == 0 {
			firstKey, firstJob = key, job.Job
		}
		status, err := tgt.Client.WaitJob(ctx, corpus, job.Job)
		if err != nil {
			return fmt.Errorf("submission %d: wait: %w", i, err)
		}
		if status.State != serve.JobDone {
			return fmt.Errorf("submission %d: job %s finished %q (error %q)", i, job.Job, status.State, status.Error)
		}
		wire, err := tgt.Client.JobResult(ctx, corpus, job.Job)
		if err != nil {
			return fmt.Errorf("submission %d: results: %w", i, err)
		}
		got, err := wire.Core(c.Group)
		if err != nil {
			return err
		}
		if err := exactDiff(want, got); err != nil {
			return fmt.Errorf("submission %d: in-process vs over-HTTP: %w", i, err)
		}
	}

	replay, err := tgt.Client.Discover(ctx, corpus, serve.DiscoverRequest{}, firstKey)
	if err != nil {
		return fmt.Errorf("keyed replay: %w", err)
	}
	if replay.Job != firstJob {
		return fmt.Errorf("keyed replay enqueued a new job: %q, want %q", replay.Job, firstJob)
	}
	info, err := tgt.Client.Corpus(ctx, corpus)
	if err != nil {
		return fmt.Errorf("corpus info: %w", err)
	}
	if info.Jobs != submissions {
		return fmt.Errorf("corpus ran %d jobs for %d submissions — retries duplicated work", info.Jobs, submissions)
	}
	computed, reused := jobCounts(tgt.ServerRegistry)
	if computed-computed0 != 1 || reused-reused0 != submissions-1 {
		return fmt.Errorf("server computed %d and reused %d jobs; want 1 computed, %d reused",
			computed-computed0, reused-reused0, submissions-1)
	}

	if err := checkScrollbarAndWitnesses(ctx, tgt.Client, corpus, want); err != nil {
		return err
	}
	if err := tgt.Client.DeleteCorpus(ctx, corpus); err != nil {
		return fmt.Errorf("delete corpus: %w", err)
	}
	return nil
}

// jobCounts reads a server registry's computed and reused job counters.
func jobCounts(reg *obs.Registry) (computed, reused int64) {
	return reg.Counter("dime.jobs.computed").Value(), reg.Counter("dime.jobs.reused").Value()
}

// checkScrollbarAndWitnesses cross-checks a corpus's query endpoints against
// the reference result: the deepest scrollbar level, and the witness of
// every marked partition.
func checkScrollbarAndWitnesses(ctx context.Context, cl *client.Client, corpus string, want *core.Result) error {
	deepest := len(want.Levels) - 1
	if deepest < 0 {
		return nil
	}
	sb, err := cl.Scrollbar(ctx, corpus, deepest)
	if err != nil {
		return fmt.Errorf("scrollbar: %w", err)
	}
	lv := want.Levels[deepest]
	if sb.Rule != lv.RuleName || !slices.Equal(sb.EntityIDs, lv.EntityIDs) || !slices.Equal(sb.PartitionIndexes, lv.PartitionIndexes) {
		return fmt.Errorf("scrollbar level %d diverged:\n  got  %+v\n  want %+v", deepest, sb, lv)
	}
	for _, pi := range markedOf(want) {
		wr, err := cl.Witness(ctx, corpus, pi)
		if err != nil {
			return fmt.Errorf("witnesses/%d: %w", pi, err)
		}
		w := want.Witnesses[pi]
		if !wr.Marked || wr.Witness == nil ||
			wr.Witness.Rule != w.Rule || wr.Witness.EntityID != w.EntityID || wr.Witness.PivotID != w.PivotID {
			return fmt.Errorf("witness for partition %d diverged: got marked=%t %+v, want %+v", pi, wr.Marked, wr.Witness, w)
		}
	}
	return nil
}
