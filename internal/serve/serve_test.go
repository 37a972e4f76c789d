package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dime/internal/datagen"
	"dime/internal/entity"
	"dime/internal/obs"
)

// scholarGroup returns the deterministic 33-entity Scholar group the golden
// and lifecycle tests use (same generator call as cmd/dime's golden tests).
func scholarGroup() *entity.Group {
	return datagen.Scholar(datagen.ScholarOptions{NumPubs: 30, ErrorRate: 0.1, Seed: 7})
}

// ingestBody renders the group's entities as an IngestRequest body.
func ingestBody(t *testing.T, g *entity.Group) []byte {
	t.Helper()
	return mustMarshal(t, entitiesJSON(g.Entities))
}

// entitiesJSON renders entities as an IngestRequest.
func entitiesJSON(es []*entity.Entity) IngestRequest {
	req := IngestRequest{}
	for _, e := range es {
		req.Entities = append(req.Entities, EntityJSON{ID: e.ID, Values: e.Values})
	}
	return req
}

// newTestServer starts an httptest server over a fresh service with its own
// registry and flight recorder (so metric and trace assertions are isolated).
func newTestServer(t *testing.T, opts Options) (*Service, *httptest.Server) {
	t.Helper()
	if opts.Registry == nil {
		opts.Registry = obs.NewRegistry()
	}
	if opts.Flight == nil {
		opts.Flight = obs.NewFlightRecorder(obs.FlightOptions{})
	}
	svc := NewService(opts)
	ts := httptest.NewServer(Handler(svc))
	t.Cleanup(ts.Close)
	return svc, ts
}

// doReq performs one request and returns (status, body, header).
func doReq(t *testing.T, method, url string, body []byte) (int, string, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw), resp.Header
}

// mkCorpus creates a corpus over HTTP and fails the test on any error.
func mkCorpus(t *testing.T, base, id, profile string) {
	t.Helper()
	body, _ := json.Marshal(CreateCorpusRequest{ID: id, Profile: profile})
	code, resp, _ := doReq(t, http.MethodPost, base+"/v1/corpora", body)
	if code != http.StatusCreated {
		t.Fatalf("create corpus %s: status %d: %s", id, code, resp)
	}
}

// TestDebugRouteParity pins the shared-construction invariant: every route
// obs.DebugRoutes lists must answer 200 on both the standalone debug mux
// (obs.ServeDebug's surface) and the API server's Handler — the two surfaces
// are built by the same obs.RegisterDebug call and must not drift.
func TestDebugRouteParity(t *testing.T) {
	reg := obs.NewRegistry()
	fr := obs.NewFlightRecorder(obs.FlightOptions{})
	reg.Counter("dime.parity.probe").Add(1)

	debug := httptest.NewServer(obs.DebugMux(reg, fr))
	defer debug.Close()
	_, api := newTestServer(t, Options{Registry: reg, Flight: fr})

	for _, route := range obs.DebugRoutes() {
		for name, base := range map[string]string{"debug-mux": debug.URL, "api-server": api.URL} {
			code, body, _ := doReq(t, http.MethodGet, base+route, nil)
			if code != http.StatusOK {
				t.Errorf("%s: GET %s: status %d", name, route, code)
			}
			if route == "/metrics" && !strings.Contains(body, "dime_parity_probe") {
				t.Errorf("%s: /metrics does not expose the shared registry:\n%s", name, body)
			}
		}
	}
}

// TestIngestBodyOverLimit413 posts an ingest body one byte over
// maxBodyBytes: it must be refused with 413 and an ErrorJSON body, and no
// entity may be added. The same body one byte shorter is accepted, so the
// limit sits exactly at maxBodyBytes.
func TestIngestBodyOverLimit413(t *testing.T) {
	svc, ts := newTestServer(t, Options{})
	mkCorpus(t, ts.URL, "g", "scholar")
	g := scholarGroup()
	valid := ingestBody(t, g)
	// Whitespace before the closing brace keeps the body valid JSON whose
	// last byte the decoder must read.
	padded := func(size int) []byte {
		body := append([]byte{}, valid[:len(valid)-1]...)
		body = append(body, bytes.Repeat([]byte(" "), size-len(valid))...)
		return append(body, '}')
	}
	url := ts.URL + "/v1/corpora/g/entities"

	code, resp, _ := doReq(t, http.MethodPost, url, padded(maxBodyBytes+1))
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-limit ingest: status %d, want 413: %.200s", code, resp)
	}
	var e ErrorJSON
	if err := json.Unmarshal([]byte(resp), &e); err != nil || e.Error == "" {
		t.Fatalf("over-limit ingest: body is not an ErrorJSON: %v: %.200s", err, resp)
	}
	if info, err := svc.GetCorpus("g"); err != nil || info.Entities != 0 {
		t.Fatalf("over-limit ingest changed the corpus: %+v, %v", info, err)
	}

	code, resp, _ = doReq(t, http.MethodPost, url, padded(maxBodyBytes))
	if code != http.StatusOK {
		t.Fatalf("at-limit ingest: status %d, want 200: %.200s", code, resp)
	}
	if info, err := svc.GetCorpus("g"); err != nil || info.Entities != len(g.Entities) {
		t.Fatalf("at-limit ingest: corpus %+v, %v; want %d entities", info, err, len(g.Entities))
	}
}

// TestBackpressure429 drives the pool to capacity — one worker held by a
// gated job, zero queue depth — and requires the next discover request to be
// rejected with 429 and a Retry-After header rather than buffered or blocked.
func TestBackpressure429(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	svc, ts := newTestServer(t, Options{
		Workers:    1,
		QueueDepth: -1, // zero-depth queue: full the instant the worker is busy
		BeforeJob: func(corpusID, jobID string) {
			if corpusID == "blocker" {
				close(entered)
				<-release
			}
		},
	})
	_ = svc
	mkCorpus(t, ts.URL, "blocker", "scholar")
	mkCorpus(t, ts.URL, "g", "scholar")

	// A zero-depth queue accepts only while the worker is parked on its
	// receive; retry the gated job until it lands, as a client would on 429.
	for {
		code, body, _ := doReq(t, http.MethodPost, ts.URL+"/v1/corpora/blocker/discover", nil)
		if code == http.StatusAccepted {
			break
		}
		if code != http.StatusTooManyRequests {
			t.Fatalf("discover blocker: status %d: %s", code, body)
		}
	}
	<-entered

	code, body, hdr := doReq(t, http.MethodPost, ts.URL+"/v1/corpora/g/discover", nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("discover on saturated pool: status %d, want 429: %s", code, body)
	}
	if got := hdr.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", got)
	}
	var e ErrorJSON
	if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error == "" {
		t.Errorf("429 body is not an ErrorJSON: %q (%v)", body, err)
	}
	close(release)
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestDraining503 verifies the shutdown contract at the HTTP surface: once
// the service drains, health, corpus creation, ingest and discover all
// answer 503 while read paths keep working.
func TestDraining503(t *testing.T) {
	svc, ts := newTestServer(t, Options{Workers: 1})
	mkCorpus(t, ts.URL, "g", "scholar")
	g := scholarGroup()
	if code, body, _ := doReq(t, http.MethodPost, ts.URL+"/v1/corpora/g/entities", ingestBody(t, g)); code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", code, body)
	}
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}

	checks := []struct {
		method, path string
		body         []byte
	}{
		{http.MethodGet, "/healthz", nil},
		{http.MethodPost, "/v1/corpora", mustMarshal(t, CreateCorpusRequest{ID: "h", Profile: "scholar"})},
		{http.MethodDelete, "/v1/corpora/g", nil},
		{http.MethodPost, "/v1/corpora/g/entities", ingestBody(t, g)},
		{http.MethodPost, "/v1/corpora/g/discover", nil},
	}
	for _, c := range checks {
		if code, body, _ := doReq(t, c.method, ts.URL+c.path, c.body); code != http.StatusServiceUnavailable {
			t.Errorf("%s %s while draining: status %d, want 503: %s", c.method, c.path, code, body)
		}
	}
	// Reads survive the drain: the corpus is still inspectable.
	if code, body, _ := doReq(t, http.MethodGet, ts.URL+"/v1/corpora/g", nil); code != http.StatusOK {
		t.Errorf("GET corpus while draining: status %d: %s", code, body)
	}
	if code, body, _ := doReq(t, http.MethodGet, ts.URL+"/v1/corpora/g/partitions", nil); code != http.StatusOK {
		t.Errorf("GET partitions while draining: status %d: %s", code, body)
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestServerGracefulShutdown runs the full drain path on a real listener: a
// discovery job is held in flight by the BeforeJob gate while Shutdown is
// called; Shutdown must wait for the job, which must complete and record its
// result, and post-drain submissions must be refused.
func TestServerGracefulShutdown(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	srv := NewServer(Options{
		Workers:  1,
		Registry: obs.NewRegistry(),
		Flight:   obs.NewFlightRecorder(obs.FlightOptions{}),
		BeforeJob: func(corpusID, jobID string) {
			close(entered)
			<-release
		},
	})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	base := "http://" + srv.Addr()

	mkCorpus(t, base, "g", "scholar")
	if code, body, _ := doReq(t, http.MethodPost, base+"/v1/corpora/g/entities", ingestBody(t, scholarGroup())); code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", code, body)
	}
	code, body, _ := doReq(t, http.MethodPost, base+"/v1/corpora/g/discover", nil)
	if code != http.StatusAccepted {
		t.Fatalf("discover: status %d: %s", code, body)
	}
	var job JobJSON
	if err := json.Unmarshal([]byte(body), &job); err != nil {
		t.Fatal(err)
	}
	<-entered // the job is now running, gated

	shutdownErr := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	go func() { shutdownErr <- srv.Shutdown(ctx) }()

	// Draining flips before the pool wait completes; release the job and the
	// shutdown must then finish cleanly.
	for !srv.Service().Draining() {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// The gated job was drained to completion, not abandoned.
	status, err := srv.Service().JobStatus(context.Background(), "g", job.Job, false)
	if err != nil {
		t.Fatalf("job status after shutdown: %v", err)
	}
	if status.State != JobDone {
		t.Fatalf("job state after shutdown = %q, want %q", status.State, JobDone)
	}
	if _, err := srv.Service().JobResult("g", job.Job); err != nil {
		t.Fatalf("job result after shutdown: %v", err)
	}
	// New work is refused.
	if _, err := srv.Service().StartDiscover("g", DiscoverRequest{}, ""); !errors.Is(err, ErrDraining) {
		t.Fatalf("discover after shutdown: %v, want ErrDraining", err)
	}
	// The listener is closed.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("listener still accepting connections after Shutdown")
	}
}

// TestRequestTimeoutBoundsLongPoll pins the ?wait=true contract: when the
// request deadline expires before the job finishes, the long-poll returns the
// still-pending state with 200 rather than an error.
func TestRequestTimeoutBoundsLongPoll(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	svc, ts := newTestServer(t, Options{
		Workers:        1,
		RequestTimeout: 50 * time.Millisecond,
		BeforeJob:      func(string, string) { <-release },
	})
	_ = svc
	mkCorpus(t, ts.URL, "g", "scholar")
	code, body, _ := doReq(t, http.MethodPost, ts.URL+"/v1/corpora/g/discover", nil)
	if code != http.StatusAccepted {
		t.Fatalf("discover: status %d: %s", code, body)
	}
	var job JobJSON
	if err := json.Unmarshal([]byte(body), &job); err != nil {
		t.Fatal(err)
	}
	code, body, _ = doReq(t, http.MethodGet,
		fmt.Sprintf("%s/v1/corpora/g/status/%s?wait=true", ts.URL, job.Job), nil)
	if code != http.StatusOK {
		t.Fatalf("long-poll past deadline: status %d: %s", code, body)
	}
	var status JobJSON
	if err := json.Unmarshal([]byte(body), &status); err != nil {
		t.Fatal(err)
	}
	if status.State == JobDone || status.State == JobFailed {
		t.Fatalf("long-poll reported terminal state %q while the job was gated", status.State)
	}
}
