package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dime/internal/datagen"
	"dime/internal/obs"
	"dime/internal/serve"
)

// fastOpts returns client options tuned for tests: tiny deterministic
// backoffs, an isolated registry.
func fastOpts(hc *http.Client) Options {
	return Options{
		HTTPClient:  hc,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
		Rand:        rand.New(rand.NewSource(1)),
		Registry:    obs.NewRegistry(),
	}
}

// flakyHandler answers with failStatus for the first fail requests, then
// delegates to ok.
func flakyHandler(fail int, failStatus int, retryAfter string, ok http.HandlerFunc) (http.HandlerFunc, *atomic.Int64) {
	var hits atomic.Int64
	return func(w http.ResponseWriter, req *http.Request) {
		if hits.Add(1) <= int64(fail) {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.WriteHeader(failStatus)
			fmt.Fprintf(w, `{"error":"synthetic %d"}`, failStatus)
			return
		}
		ok(w, req)
	}, &hits
}

func okJSON(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write([]byte(`{"corpora":[],"profiles":["p"]}`))
}

// TestRetriesRefusalsThenSucceeds pins the always-retryable classes: a GET
// that meets two 503s (Retry-After: 0) succeeds on the third attempt.
func TestRetriesRefusalsThenSucceeds(t *testing.T) {
	h, hits := flakyHandler(2, http.StatusServiceUnavailable, "0", okJSON)
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := New(ts.URL, fastOpts(nil))
	out, err := c.ListCorpora(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Profiles) != 1 || out.Profiles[0] != "p" {
		t.Fatalf("decoded %+v, want profiles [p]", out)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("server hit %d times, want 3", got)
	}
	reg := c.opts.Registry
	if a := reg.Counter("dime.client.attempts").Value(); a != 3 {
		t.Fatalf("attempts counter = %d, want 3", a)
	}
	if r := reg.Counter("dime.client.retries").Value(); r != 2 {
		t.Fatalf("retries counter = %d, want 2", r)
	}
}

// TestUnkeyedPostNotRetriedOn500 pins the idempotency guard: a POST without
// an Idempotency-Key must NOT retry a 500 — the server may have done the
// work.
func TestUnkeyedPostNotRetriedOn500(t *testing.T) {
	h, hits := flakyHandler(99, http.StatusInternalServerError, "", okJSON)
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := New(ts.URL, fastOpts(nil))
	_, err := c.Ingest(context.Background(), "x", serve.IngestRequest{})
	if err == nil {
		t.Fatal("want error")
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 500 {
		t.Fatalf("error %v, want APIError 500", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server hit %d times, want exactly 1 (no retry)", got)
	}
}

// TestUnkeyedPostRetriesRefusals pins the complement: 429/503 refuse before
// doing work, so even an unkeyed POST retries them.
func TestUnkeyedPostRetriesRefusals(t *testing.T) {
	ok := func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"added":0,"size":0,"rebuilds":0}`))
	}
	h, hits := flakyHandler(1, http.StatusTooManyRequests, "0", ok)
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := New(ts.URL, fastOpts(nil))
	if _, err := c.Ingest(context.Background(), "x", serve.IngestRequest{}); err != nil {
		t.Fatal(err)
	}
	if got := hits.Load(); got != 2 {
		t.Fatalf("server hit %d times, want 2", got)
	}
}

// TestKeyedPostRetriedOn500 pins that an Idempotency-Key makes a POST
// replay-safe: 500s retry, and every attempt carries the key.
func TestKeyedPostRetriedOn500(t *testing.T) {
	var hits atomic.Int64
	var badKey atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Header.Get("Idempotency-Key") != "k-1" {
			badKey.Add(1)
		}
		if hits.Add(1) <= 2 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(serve.JobJSON{Job: "job-1", Corpus: "x", State: "queued"})
	}))
	defer ts.Close()
	c := New(ts.URL, fastOpts(nil))
	job, err := c.Discover(context.Background(), "x", serve.DiscoverRequest{}, "k-1")
	if err != nil {
		t.Fatal(err)
	}
	if job.Job != "job-1" {
		t.Fatalf("job %+v, want job-1", job)
	}
	if hits.Load() != 3 || badKey.Load() != 0 {
		t.Fatalf("hits=%d badKey=%d, want 3 hits all keyed", hits.Load(), badKey.Load())
	}
}

// TestTransportErrorRetriedForGET pins transport-level resilience: a GET
// whose first attempt dies before a response retries and succeeds.
func TestTransportErrorRetriedForGET(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(okJSON))
	defer ts.Close()
	var calls atomic.Int64
	rt := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if calls.Add(1) == 1 {
			return nil, errors.New("synthetic dial failure")
		}
		return http.DefaultTransport.RoundTrip(req)
	})
	c := New(ts.URL, fastOpts(&http.Client{Transport: rt}))
	if _, err := c.ListCorpora(context.Background()); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("round trips = %d, want 2", calls.Load())
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// Test4xxIsPermanent pins that a well-formed 4xx never retries and surfaces
// as a typed APIError.
func Test4xxIsPermanent(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusNotFound)
		_, _ = w.Write([]byte(`{"error":"no such corpus"}`))
	}))
	defer ts.Close()
	c := New(ts.URL, fastOpts(nil))
	_, err := c.Corpus(context.Background(), "ghost")
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("error %v is not an APIError", err)
	}
	if apiErr.Status != 404 || apiErr.Message != "no such corpus" {
		t.Fatalf("APIError %+v, want 404 / decoded message", apiErr)
	}
	if hits.Load() != 1 {
		t.Fatalf("server hit %d times, want 1", hits.Load())
	}
}

// TestDelayDeterministicAndCapped pins the backoff math: same seed gives the
// same jitter sequence, the curve caps at MaxBackoff, and Retry-After wins
// over jitter but is capped by MaxRetryAfter.
func TestDelayDeterministicAndCapped(t *testing.T) {
	mk := func() *Client {
		return New("http://unused", Options{
			BaseBackoff:   100 * time.Millisecond,
			MaxBackoff:    time.Second,
			MaxRetryAfter: 2 * time.Second,
			Rand:          rand.New(rand.NewSource(99)),
			Registry:      obs.NewRegistry(),
		})
	}
	a, b := mk(), mk()
	for attempt := 0; attempt < 12; attempt++ {
		da, db := a.delay(attempt, -1), b.delay(attempt, -1)
		if da != db {
			t.Fatalf("attempt %d: delay %v vs %v with the same seed", attempt, da, db)
		}
		if da < 0 || da >= time.Second {
			t.Fatalf("attempt %d: delay %v outside [0, MaxBackoff)", attempt, da)
		}
	}
	if d := a.delay(0, 7*time.Second); d != 2*time.Second {
		t.Fatalf("Retry-After cap: delay = %v, want MaxRetryAfter 2s", d)
	}
	if d := a.delay(5, 0); d != 0 {
		t.Fatalf("Retry-After 0: delay = %v, want 0", d)
	}
}

// TestParseRetryAfter pins the header parse: seconds form only, junk and
// HTTP-dates report absent.
func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", -1}, {"3", 3 * time.Second}, {"0", 0}, {"-2", -1},
		{"Wed, 21 Oct 2015 07:28:00 GMT", -1}, {"1.5", -1},
	}
	for _, c := range cases {
		if got := parseRetryAfter(c.in); got != c.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestContextDeadlinePropagates pins deadline handling: a hung server cannot
// hold a call past its context, and the deadline error surfaces.
func TestContextDeadlinePropagates(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		<-release
	}))
	defer ts.Close()
	defer close(release) // LIFO: unblock the handler before ts.Close waits on it
	c := New(ts.URL, fastOpts(nil))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.ListCorpora(ctx)
	if err == nil {
		t.Fatal("want error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("call held for %v past its 50ms deadline", elapsed)
	}
}

// TestBreakerLifecycle pins the closed → open → half-open → closed walk with
// an injected clock.
func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(1000, 0)
	reg := obs.NewRegistry()
	b := newBreaker(BreakerOptions{
		Threshold: 2,
		Cooldown:  10 * time.Second,
		Now:       func() time.Time { return now },
	}, reg)

	if err := b.Allow(); err != nil {
		t.Fatalf("closed breaker rejected: %v", err)
	}
	b.Failure()
	if st := b.State(); st != "closed" {
		t.Fatalf("state after 1 failure = %q, want closed", st)
	}
	b.Failure()
	if st := b.State(); st != "open" {
		t.Fatalf("state after threshold failures = %q, want open", st)
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker allowed a call (err=%v)", err)
	}

	now = now.Add(11 * time.Second) // past cooldown: one probe admitted
	if err := b.Allow(); err != nil {
		t.Fatalf("half-open probe rejected: %v", err)
	}
	if st := b.State(); st != "half-open" {
		t.Fatalf("state during probe = %q, want half-open", st)
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatal("second caller admitted while probe in flight")
	}
	b.Success()
	if st := b.State(); st != "closed" {
		t.Fatalf("state after probe success = %q, want closed", st)
	}
	if got := reg.Counter("dime.client.breaker.opened").Value(); got != 1 {
		t.Fatalf("breaker.opened counter = %d, want 1", got)
	}
	if got := reg.Gauge("dime.client.breaker.state").Value(); got != 0 {
		t.Fatalf("breaker.state gauge = %v, want 0 (closed)", got)
	}
}

// TestBreakerProbeFailureReopens pins that a failed half-open probe reopens
// the breaker and restarts the cooldown.
func TestBreakerProbeFailureReopens(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newBreaker(BreakerOptions{Threshold: 1, Cooldown: 10 * time.Second,
		Now: func() time.Time { return now }}, nil)
	b.Failure()
	now = now.Add(11 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe rejected: %v", err)
	}
	b.Failure()
	if st := b.State(); st != "open" {
		t.Fatalf("state after probe failure = %q, want open", st)
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatal("cooldown did not restart after probe failure")
	}
	now = now.Add(11 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("second probe rejected: %v", err)
	}
}

// TestBreakerDisabled pins Threshold < 0: never opens, never rejects.
func TestBreakerDisabled(t *testing.T) {
	b := newBreaker(BreakerOptions{Threshold: -1}, nil)
	for i := 0; i < 100; i++ {
		b.Failure()
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("disabled breaker rejected: %v", err)
	}
}

// TestClientEndToEnd drives every typed method against a real serve handler:
// create → ingest → discover (keyed) → wait → result → scrollbar → witness
// → partitions → corpus → list → delete, plus the keyed-replay dedupe.
func TestClientEndToEnd(t *testing.T) {
	svc := serve.NewService(serve.Options{Workers: 2, Registry: obs.NewRegistry(),
		Flight: obs.NewFlightRecorder(obs.FlightOptions{})})
	ts := httptest.NewServer(serve.Handler(svc))
	defer ts.Close()
	c := New(ts.URL, fastOpts(nil))
	ctx := context.Background()

	if err := c.Healthz(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateCorpus(ctx, serve.CreateCorpusRequest{ID: "g", Profile: "scholar"}); err != nil {
		t.Fatal(err)
	}
	g := datagen.Scholar(datagen.ScholarOptions{NumPubs: 30, ErrorRate: 0.1, Seed: 7})
	req := serve.IngestRequest{}
	for _, e := range g.Entities {
		req.Entities = append(req.Entities, serve.EntityJSON{ID: e.ID, Values: e.Values})
	}
	ing, err := c.Ingest(ctx, "g", req)
	if err != nil {
		t.Fatal(err)
	}
	if ing.Added != len(g.Entities) {
		t.Fatalf("ingest added %d, want %d", ing.Added, len(g.Entities))
	}

	job, err := c.Discover(ctx, "g", serve.DiscoverRequest{}, "e2e-key")
	if err != nil {
		t.Fatal(err)
	}
	replay, err := c.Discover(ctx, "g", serve.DiscoverRequest{}, "e2e-key")
	if err != nil {
		t.Fatal(err)
	}
	if replay.Job != job.Job {
		t.Fatalf("keyed replay enqueued a new job: %q vs %q", replay.Job, job.Job)
	}

	done, err := c.WaitJob(ctx, "g", job.Job)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != serve.JobDone {
		t.Fatalf("job state %q, want done (err=%s)", done.State, done.Error)
	}
	res, err := c.JobResult(ctx, "g", job.Job)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Partitions) == 0 || len(res.Levels) == 0 {
		t.Fatalf("result empty: %d partitions, %d levels", len(res.Partitions), len(res.Levels))
	}
	sb, err := c.Scrollbar(ctx, "g", len(res.Levels)-1)
	if err != nil {
		t.Fatal(err)
	}
	if sb.Levels != len(res.Levels) {
		t.Fatalf("scrollbar levels %d, want %d", sb.Levels, len(res.Levels))
	}
	if len(sb.PartitionIndexes) > 0 {
		w, err := c.Witness(ctx, "g", sb.PartitionIndexes[0])
		if err != nil {
			t.Fatal(err)
		}
		if !w.Marked {
			t.Fatalf("witness for marked partition %d reports unmarked", sb.PartitionIndexes[0])
		}
	}
	parts, err := c.Partitions(ctx, "g")
	if err != nil {
		t.Fatal(err)
	}
	if parts.Entities != len(g.Entities) {
		t.Fatalf("partitions view has %d entities, want %d", parts.Entities, len(g.Entities))
	}
	info, err := c.Corpus(ctx, "g")
	if err != nil {
		t.Fatal(err)
	}
	if info.Jobs != 1 {
		t.Fatalf("corpus reports %d jobs, want 1 (keyed replay deduped)", info.Jobs)
	}
	list, err := c.ListCorpora(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Corpora) != 1 {
		t.Fatalf("list has %d corpora, want 1", len(list.Corpora))
	}
	if err := c.DeleteCorpus(ctx, "g"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Corpus(ctx, "g"); err == nil {
		t.Fatal("corpus still readable after delete")
	}
}

// TestRetriesExhausted pins the terminal error shape: a server that never
// recovers yields a wrapped "retries exhausted" error mentioning attempts.
func TestRetriesExhausted(t *testing.T) {
	h, hits := flakyHandler(99, http.StatusServiceUnavailable, "0", okJSON)
	ts := httptest.NewServer(h)
	defer ts.Close()
	opts := fastOpts(nil)
	opts.MaxAttempts = 3
	c := New(ts.URL, opts)
	_, err := c.ListCorpora(context.Background())
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("error %q does not mention exhausted attempts", err)
	}
	if hits.Load() != 3 {
		t.Fatalf("server hit %d times, want 3", hits.Load())
	}
}

// TestNoBackoffAfterLastAttempt pins that an exhausted call returns as soon
// as its last attempt fails: against a server that always answers 503 with
// Retry-After: 1 (honored in full under the default MaxRetryAfter), one
// attempt returns without sleeping and two attempts sleep once, while the
// attempt and retry counters count every attempt and retry.
func TestNoBackoffAfterLastAttempt(t *testing.T) {
	h, _ := flakyHandler(99, http.StatusServiceUnavailable, "1", okJSON)
	ts := httptest.NewServer(h)
	defer ts.Close()
	for _, tc := range []struct {
		attempts int
		min, max time.Duration
	}{
		{1, 0, 500 * time.Millisecond},
		{2, time.Second, 1900 * time.Millisecond},
	} {
		opts := fastOpts(nil)
		opts.MaxAttempts = tc.attempts
		c := New(ts.URL, opts)
		start := time.Now()
		_, err := c.ListCorpora(context.Background())
		elapsed := time.Since(start)
		if err == nil || !strings.Contains(err.Error(), "retries exhausted") {
			t.Fatalf("MaxAttempts %d: error %v, want retries exhausted", tc.attempts, err)
		}
		if elapsed < tc.min || elapsed > tc.max {
			t.Errorf("MaxAttempts %d: returned after %v, want within [%v, %v]", tc.attempts, elapsed, tc.min, tc.max)
		}
		if got := opts.Registry.Counter("dime.client.attempts").Value(); got != int64(tc.attempts) {
			t.Errorf("MaxAttempts %d: %d attempts counted", tc.attempts, got)
		}
		if got := opts.Registry.Counter("dime.client.retries").Value(); got != int64(tc.attempts-1) {
			t.Errorf("MaxAttempts %d: %d retries counted, want %d", tc.attempts, got, tc.attempts-1)
		}
	}
}
