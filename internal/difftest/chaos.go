package difftest

// Chaos-backed differential runner: the HTTP conformance suite of http.go
// re-run with deterministic fault injection on BOTH sides of the wire — an
// internal/fault middleware in front of the server (injected latency, 503
// refusals, connection resets, truncated bodies) and an internal/fault
// transport under the resilient internal/client doing the talking. The
// invariant under test is the strongest form of the repo's determinism
// contract: with the client retrying through every injected failure, the
// results fetched over the faulty wire must still be byte-identical to an
// in-process DIME+ run, no discovery job may be duplicated (idempotency
// keys dedupe retried submissions), and no injected fault may surface to
// the caller.
//
// Fault rules are scoped by the replay-safety of each endpoint:
//
//   - injected latency and pre-handler 503 refusals are safe on every
//     route — the handler observably never ran, and the client always
//     retries refusals;
//   - connection resets and truncated bodies go only to GETs (idempotent
//     by HTTP semantics) and to POST .../discover, whose submissions carry
//     an Idempotency-Key so a retry returns the original job.
//
// Unkeyed mutations (corpus create, ingest, delete) see only latency and
// 503s: a transport-level failure there would be undecidable for the
// client (did the server apply it?), which is exactly why the client's
// retry policy refuses to retry them — the rules must not manufacture
// failures no correct client could absorb.

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"dime/internal/client"
	"dime/internal/core"
	"dime/internal/fault"
	"dime/internal/obs"
	"dime/internal/serve"
)

// ChaosOptions seeds the fault plan.
type ChaosOptions struct {
	// Seed drives every RNG in the target: the server-side injector, the
	// client-side injector and the client's backoff jitter (offset so the
	// three streams differ). Same seed + same request sequence = same
	// faults.
	Seed int64
	// Rate is the per-rule fire probability; <= 0 uses 0.15.
	Rate float64
}

// ChaosTarget is a live server behind fault injection plus the resilient
// client pointed at it.
type ChaosTarget struct {
	Svc *serve.Service
	// Client is the resilient API client; every DiffChaos request goes
	// through its retry loop.
	Client *client.Client
	// ServerFaults injects at the server (middleware): 503s, resets,
	// truncations, latency.
	ServerFaults *fault.Injector
	// ClientFaults injects at the client (transport): synthesized 503s
	// before the request leaves, truncated reads of real responses.
	ClientFaults *fault.Injector
	// Registry holds the client's retry/breaker counters for assertions.
	Registry *obs.Registry
	// ServerRegistry is the server's metrics registry; DiffChaos reads its
	// dime.jobs.computed and dime.jobs.reused counters.
	ServerRegistry *obs.Registry
}

// NewChaosTarget starts an httptest server wrapped in fault middleware and
// builds the resilient client (with its own fault transport) against it.
// The returned closer shuts the server down.
func NewChaosTarget(opts serve.Options, chaos ChaosOptions) (ChaosTarget, func()) {
	rate := chaos.Rate
	if rate <= 0 {
		rate = 0.15
	}
	if opts.Registry == nil {
		opts.Registry = obs.NewRegistry()
	}
	if opts.Flight == nil {
		opts.Flight = obs.NewFlightRecorder(obs.FlightOptions{})
	}
	svc := serve.NewService(opts)

	serverFaults := fault.NewInjector(fault.Options{
		Seed: chaos.Seed,
		Rules: []fault.Rule{
			{Name: "latency", P: rate, Kind: fault.KindLatency, Latency: 200 * time.Microsecond},
			{Name: "refuse-503", P: rate, Kind: fault.KindStatus, Status: http.StatusServiceUnavailable, RetryAfter: "0"},
			{Name: "get-reset", Method: http.MethodGet, P: rate, Kind: fault.KindReset},
			{Name: "get-truncate", Method: http.MethodGet, P: rate, Kind: fault.KindTruncate},
			{Name: "discover-truncate", Method: http.MethodPost, Path: "*/discover", P: rate, Kind: fault.KindTruncate},
		},
	})
	ts := httptest.NewServer(serverFaults.Middleware(serve.Handler(svc)))

	clientFaults := fault.NewInjector(fault.Options{
		Seed: chaos.Seed + 1,
		Rules: []fault.Rule{
			{Name: "local-503", P: rate / 2, Kind: fault.KindStatus, Status: http.StatusServiceUnavailable, RetryAfter: "0"},
			{Name: "local-get-truncate", Method: http.MethodGet, P: rate / 2, Kind: fault.KindTruncate},
		},
	})
	reg := obs.NewRegistry()
	cl := client.New(ts.URL, client.Options{
		HTTPClient:  &http.Client{Transport: clientFaults.Transport(nil)},
		MaxAttempts: 16,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  8 * time.Millisecond,
		Rand:        rand.New(rand.NewSource(chaos.Seed + 2)),
		Breaker:     client.BreakerOptions{Threshold: 16, Cooldown: 10 * time.Millisecond},
		Registry:    reg,
	})
	tgt := ChaosTarget{
		Svc:            svc,
		Client:         cl,
		ServerFaults:   serverFaults,
		ClientFaults:   clientFaults,
		Registry:       reg,
		ServerRegistry: opts.Registry,
	}
	return tgt, ts.Close
}

// CheckChaos runs the case through DiffChaos under the caller's context and
// fails the test with the case name and seed on the first divergence.
func CheckChaos(t TB, ctx context.Context, tgt ChaosTarget, c Case, workers ...int) {
	t.Helper()
	if err := c.DiffChaos(ctx, tgt, workers...); err != nil {
		t.Fatalf("case %s (seed %d): %v", c.Name, c.Seed, err)
	}
}

// DiffChaos executes the case end-to-end through the fault-wrapped server
// with the resilient client: create → ingest → per-workers keyed discover →
// wait → results on one corpus, demanding byte-identity with the in-process
// sequential DIME+ result, exactly one job per (case, workers) submission —
// retried discovers must dedupe on their Idempotency-Key — and a verified
// replay of the first key. Only the first submission computes DIME+, at
// workers[0]; the later ones find the corpus unchanged and reuse its
// result, which the server's job counters must show. The scrollbar and
// witness endpoints are cross-checked like the fault-free suite. Every
// request runs under the caller's ctx, so a test deadline or cancellation
// cuts the replay short instead of letting retries grind on.
func (c Case) DiffChaos(ctx context.Context, tgt ChaosTarget, workers ...int) error {
	want, err := core.DIMEPlus(c.Group, core.Options{
		Config: c.Config, Rules: c.Rules, IntraWorkers: 1, Probe: c.Probe,
	})
	if err != nil {
		return fmt.Errorf("DIME+(in-process): %w", err)
	}

	profile := "case-" + c.Name
	if err := tgt.Svc.RegisterProfile(profile, serve.Profile{Config: c.Config, Rules: c.Rules}); err != nil {
		return err
	}
	if _, err := tgt.Client.CreateCorpus(ctx, serve.CreateCorpusRequest{
		ID: c.Name, Profile: profile, Name: c.Group.Name,
	}); err != nil {
		return fmt.Errorf("create corpus: %w", err)
	}
	ingest := serve.IngestRequest{}
	for _, e := range c.Group.Entities {
		ingest.Entities = append(ingest.Entities, serve.EntityJSON{ID: e.ID, Values: e.Values})
	}
	ingested, err := tgt.Client.Ingest(ctx, c.Name, ingest)
	if err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	if ingested.Size != len(c.Group.Entities) {
		return fmt.Errorf("ingest: size %d, want %d", ingested.Size, len(c.Group.Entities))
	}

	computed0, reused0 := jobCounts(tgt.ServerRegistry)
	firstKey, firstJob := "", ""
	for _, w := range workers {
		key := fmt.Sprintf("%s-w%d", c.Name, w)
		job, err := tgt.Client.Discover(ctx, c.Name, serve.DiscoverRequest{IntraWorkers: w}, key)
		if err != nil {
			return fmt.Errorf("workers=%d: discover: %w", w, err)
		}
		if firstKey == "" {
			firstKey, firstJob = key, job.Job
		}
		status, err := tgt.Client.WaitJob(ctx, c.Name, job.Job)
		if err != nil {
			return fmt.Errorf("workers=%d: wait: %w", w, err)
		}
		if status.State != serve.JobDone {
			return fmt.Errorf("workers=%d: job %s finished %q (error %q)", w, job.Job, status.State, status.Error)
		}
		wire, err := tgt.Client.JobResult(ctx, c.Name, job.Job)
		if err != nil {
			return fmt.Errorf("workers=%d: results: %w", w, err)
		}
		got, err := wire.Core(c.Group)
		if err != nil {
			return err
		}
		if err := exactDiff(want, got); err != nil {
			return fmt.Errorf("workers=%d: in-process vs over-chaos-HTTP: %w", w, err)
		}
	}

	// Idempotency under chaos: an explicit replay of the first key returns
	// the original job, and the corpus holds exactly one job per submission.
	replay, err := tgt.Client.Discover(ctx, c.Name, serve.DiscoverRequest{IntraWorkers: workers[0]}, firstKey)
	if err != nil {
		return fmt.Errorf("keyed replay: %w", err)
	}
	if replay.Job != firstJob {
		return fmt.Errorf("keyed replay enqueued a new job: %q, want %q", replay.Job, firstJob)
	}
	info, err := tgt.Client.Corpus(ctx, c.Name)
	if err != nil {
		return fmt.Errorf("corpus info: %w", err)
	}
	if info.Jobs != len(workers) {
		return fmt.Errorf("corpus ran %d jobs for %d submissions — retries duplicated work", info.Jobs, len(workers))
	}
	computed, reused := jobCounts(tgt.ServerRegistry)
	if computed-computed0 != 1 || reused-reused0 != int64(len(workers)-1) {
		return fmt.Errorf("server computed %d and reused %d jobs; want 1 computed at workers=%d, %d reused",
			computed-computed0, reused-reused0, workers[0], len(workers)-1)
	}

	err = checkScrollbarAndWitnesses(want,
		func(level int) (serve.ScrollbarJSON, error) { return tgt.Client.Scrollbar(ctx, c.Name, level) },
		func(pi int) (serve.WitnessReportJSON, error) { return tgt.Client.Witness(ctx, c.Name, pi) })
	if err != nil {
		return err
	}
	if err := tgt.Client.DeleteCorpus(ctx, c.Name); err != nil {
		return fmt.Errorf("delete corpus: %w", err)
	}
	return nil
}
