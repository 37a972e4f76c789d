package serve

// Golden tests for the v1 JSON API: every endpoint's success body and every
// error shape (400 malformed body, 400 invalid entity, 404 unknown
// corpus/job/level, 409 results-before-done, 429 queue full, 503 draining)
// is pinned byte-for-byte. The corpus is the deterministic Scholar group
// cmd/dime's golden tests use, and job IDs are sequential per corpus, so
// the bodies are stable across runs and platforms. Job states are made
// deterministic the same way the backpressure tests do it: a gated job on a
// single-worker pool holds the pool, so a freshly submitted job is
// observably "queued" and a full queue observably 429s.

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
)

// golden asserts an exact (status, body) pair.
func golden(t *testing.T, label string, gotCode int, gotBody string, wantCode int, wantBody string) {
	t.Helper()
	if gotCode != wantCode {
		t.Errorf("%s: status %d, want %d (body %s)", label, gotCode, wantCode, gotBody)
		return
	}
	if gotBody != wantBody {
		t.Errorf("%s: body mismatch:\n--- got ---\n%s--- want ---\n%s", label, gotBody, wantBody)
	}
}

func TestGoldenEndpoints(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	svc, ts := newTestServer(t, Options{
		Workers:    1,
		QueueDepth: 1,
		BeforeJob: func(corpusID, jobID string) {
			if corpusID == "blocker" {
				close(entered)
				<-release
			}
		},
	})

	code, body, _ := doReq(t, http.MethodGet, ts.URL+"/healthz", nil)
	golden(t, "healthz", code, body, http.StatusOK, "{\n  \"status\": \"ok\"\n}\n")

	b := mustMarshal(t, CreateCorpusRequest{ID: "g", Profile: "scholar", Name: "Lei Zhou"})
	code, body, _ = doReq(t, http.MethodPost, ts.URL+"/v1/corpora", b)
	golden(t, "create corpus", code, body, http.StatusCreated, `{
  "id": "g",
  "name": "Lei Zhou",
  "profile": "scholar",
  "entities": 0,
  "partitions": 0,
  "jobs": 0
}
`)

	code, body, _ = doReq(t, http.MethodPost, ts.URL+"/v1/corpora", b)
	golden(t, "duplicate corpus", code, body, http.StatusConflict, `{
  "error": "serve: conflict: corpus \"g\" already exists"
}
`)

	mkCorpus(t, ts.URL, "blocker", "scholar")

	code, body, _ = doReq(t, http.MethodPost, ts.URL+"/v1/corpora/g/entities", ingestBody(t, scholarGroup()))
	golden(t, "ingest", code, body, http.StatusOK, "{\n  \"added\": 33,\n  \"size\": 33,\n  \"rebuilds\": 0\n}\n")

	code, body, _ = doReq(t, http.MethodGet, ts.URL+"/v1/corpora", nil)
	golden(t, "list corpora", code, body, http.StatusOK, `{
  "corpora": [
    {
      "id": "blocker",
      "name": "blocker",
      "profile": "scholar",
      "entities": 0,
      "partitions": 0,
      "jobs": 0
    },
    {
      "id": "g",
      "name": "Lei Zhou",
      "profile": "scholar",
      "entities": 33,
      "partitions": 6,
      "jobs": 0
    }
  ],
  "profiles": [
    "amazon",
    "dbgen",
    "scholar"
  ]
}
`)

	// Hold the single worker with the gated blocker job so the next job on
	// "g" is deterministically queued. A zero-depth receive race means the
	// gated submit may 429 until the worker parks; retry as a client would.
	for {
		code, body, _ = doReq(t, http.MethodPost, ts.URL+"/v1/corpora/blocker/discover", nil)
		if code == http.StatusAccepted {
			break
		}
		if code != http.StatusTooManyRequests {
			t.Fatalf("discover blocker: status %d: %s", code, body)
		}
	}
	<-entered

	code, body, _ = doReq(t, http.MethodPost, ts.URL+"/v1/corpora/g/discover", nil)
	golden(t, "discover (queued)", code, body, http.StatusAccepted, `{
  "job": "job-1",
  "corpus": "g",
  "state": "queued"
}
`)

	code, body, _ = doReq(t, http.MethodGet, ts.URL+"/v1/corpora/g/results/job-1", nil)
	golden(t, "results before done", code, body, http.StatusConflict, `{
  "error": "serve: conflict: job \"job-1\" is queued; results exist once it is done"
}
`)

	// Worker busy + queue of one full: backpressure.
	code, body, hdr := doReq(t, http.MethodPost, ts.URL+"/v1/corpora/g/discover", nil)
	golden(t, "discover (queue full)", code, body, http.StatusTooManyRequests, "{\n  \"error\": \"serve: job queue full\"\n}\n")
	if got := hdr.Get("Retry-After"); got != "1" {
		t.Errorf("429 Retry-After = %q, want \"1\"", got)
	}

	close(release)

	code, body, _ = doReq(t, http.MethodGet, ts.URL+"/v1/corpora/g/status/job-1?wait=true", nil)
	golden(t, "status (done)", code, body, http.StatusOK, `{
  "job": "job-1",
  "corpus": "g",
  "state": "done"
}
`)

	code, body, _ = doReq(t, http.MethodGet, ts.URL+"/v1/corpora/g/scrollbar/0", nil)
	golden(t, "scrollbar level 0", code, body, http.StatusOK, `{
  "corpus": "g",
  "job": "job-1",
  "level": 0,
  "levels": 3,
  "rule": "phi-1",
  "entity_ids": [
    "p0031",
    "p0032"
  ],
  "partition_indexes": [
    3,
    4
  ]
}
`)

	code, body, _ = doReq(t, http.MethodGet, ts.URL+"/v1/corpora/g/scrollbar/2", nil)
	golden(t, "scrollbar level 2", code, body, http.StatusOK, `{
  "corpus": "g",
  "job": "job-1",
  "level": 2,
  "levels": 3,
  "rule": "phi-3",
  "entity_ids": [
    "p0001",
    "p0002",
    "p0003",
    "p0031",
    "p0032",
    "p0033"
  ],
  "partition_indexes": [
    0,
    1,
    3,
    4,
    5
  ]
}
`)

	code, body, _ = doReq(t, http.MethodGet, ts.URL+"/v1/corpora/g/witnesses/0", nil)
	golden(t, "witness report", code, body, http.StatusOK, `{
  "corpus": "g",
  "job": "job-1",
  "partition": 0,
  "marked": true,
  "witness": {
    "rule": "phi-3",
    "entity_id": "p0001",
    "pivot_id": "p0005"
  },
  "entity_ids": [
    "p0001"
  ]
}
`)

	// Error shapes.
	code, body, _ = doReq(t, http.MethodPost, ts.URL+"/v1/corpora", []byte("{nope"))
	golden(t, "400 malformed body", code, body, http.StatusBadRequest, `{
  "error": "serve: bad request: invalid JSON body: invalid character 'n' looking for beginning of object key string"
}
`)

	b = mustMarshal(t, IngestRequest{Entities: []EntityJSON{{ID: "x", Values: [][]string{{"only-one"}}}}})
	code, body, _ = doReq(t, http.MethodPost, ts.URL+"/v1/corpora/g/entities", b)
	golden(t, "400 invalid entity", code, body, http.StatusBadRequest, `{
  "error": "serve: bad request: entity \"x\": got 1 value lists, schema has 8 attributes"
}
`)

	code, body, _ = doReq(t, http.MethodGet, ts.URL+"/v1/corpora/nope", nil)
	golden(t, "404 unknown corpus", code, body, http.StatusNotFound, "{\n  \"error\": \"serve: not found: corpus \\\"nope\\\"\"\n}\n")

	code, body, _ = doReq(t, http.MethodGet, ts.URL+"/v1/corpora/g/status/job-9", nil)
	golden(t, "404 unknown job", code, body, http.StatusNotFound, `{
  "error": "serve: not found: job \"job-9\" on corpus \"g\""
}
`)

	code, body, _ = doReq(t, http.MethodGet, ts.URL+"/v1/corpora/g/scrollbar/99", nil)
	golden(t, "404 level out of range", code, body, http.StatusNotFound, `{
  "error": "serve: not found: level 99 (have levels 0..2)"
}
`)

	code, body, _ = doReq(t, http.MethodGet, ts.URL+"/v1/corpora/g/status/job-1?wait=banana", nil)
	golden(t, "400 bad wait value", code, body, http.StatusBadRequest, `{
  "error": "serve: bad request: wait=\"banana\" (want true or false)"
}
`)

	// Draining shapes.
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	code, body, _ = doReq(t, http.MethodGet, ts.URL+"/healthz", nil)
	golden(t, "healthz draining", code, body, http.StatusServiceUnavailable, "{\n  \"status\": \"draining\"\n}\n")

	code, body, _ = doReq(t, http.MethodPost, ts.URL+"/v1/corpora/g/discover", nil)
	golden(t, "503 discover while draining", code, body, http.StatusServiceUnavailable, `{
  "error": "serve: draining, not accepting new jobs"
}
`)
}

// TestDiscoverRejectsIntraWorkers pins the discover body's contract: the
// request has no fields, so a body naming the retired intra_workers is a 400
// with an ErrorJSON body that creates no job, while an empty body or {} is
// still accepted.
func TestDiscoverRejectsIntraWorkers(t *testing.T) {
	svc, ts := newTestServer(t, Options{Workers: 1})
	mkCorpus(t, ts.URL, "g", "scholar")
	if code, body, _ := doReq(t, http.MethodPost, ts.URL+"/v1/corpora/g/entities", ingestBody(t, scholarGroup())); code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", code, body)
	}
	code, body, _ := doReq(t, http.MethodPost, ts.URL+"/v1/corpora/g/discover", []byte(`{"intra_workers":4}`))
	if code != http.StatusBadRequest {
		t.Fatalf("discover with intra_workers: status %d, want 400: %s", code, body)
	}
	var e ErrorJSON
	if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error == "" {
		t.Fatalf("400 body %q is not an ErrorJSON (%v)", body, err)
	}
	info, err := svc.GetCorpus("g")
	if err != nil {
		t.Fatal(err)
	}
	if info.Jobs != 0 {
		t.Fatalf("rejected discover created %d jobs, want 0", info.Jobs)
	}
	for _, b := range [][]byte{nil, []byte(`{}`)} {
		if code, body, _ := doReq(t, http.MethodPost, ts.URL+"/v1/corpora/g/discover", b); code != http.StatusAccepted {
			t.Fatalf("discover with body %q: status %d, want 202: %s", b, code, body)
		}
	}
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
}
