package difftest

// HTTP-backed differential runner: a Case executed end-to-end against a
// live dimed-style server (internal/serve) instead of in-process calls. For
// every IntraWorkers setting the harness ingests the case group over the
// wire into a corpus of its own, triggers one discovery job that computes
// DIME+ at that setting and a second on the unchanged corpus that reuses
// the first's result, fetches both back over HTTP and demands byte-identity
// with an in-process DIME+ run on the same group — partitions, pivot,
// levels, witnesses and Stats — extending the repo's determinism invariant
// across the serialization and service boundary. The scrollbar and witness
// endpoints are cross-checked against the same reference result.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"

	"dime/internal/core"
	"dime/internal/obs"
	"dime/internal/serve"
)

// ServeTarget is a live server to run cases against. Svc registers
// per-case profiles (configs carry node-mapper functions, which do not
// serialize, so registration is programmatic); BaseURL/Client reach its
// HTTP surface.
type ServeTarget struct {
	Svc     *serve.Service
	BaseURL string
	Client  *http.Client
	// Registry is the server's metrics registry; DiffServe reads its
	// dime.jobs.computed and dime.jobs.reused counters.
	Registry *obs.Registry
}

// NewServeTarget starts an httptest server over a fresh serve.Service with
// its own registry and flight recorder, and returns the target plus its
// closer. Jobs wait synchronously via ?wait=true, so a small pool suffices.
func NewServeTarget(opts serve.Options) (ServeTarget, func()) {
	if opts.Registry == nil {
		opts.Registry = obs.NewRegistry()
	}
	if opts.Flight == nil {
		opts.Flight = obs.NewFlightRecorder(obs.FlightOptions{})
	}
	svc := serve.NewService(opts)
	ts := httptest.NewServer(serve.Handler(svc))
	return ServeTarget{Svc: svc, BaseURL: ts.URL, Client: ts.Client(), Registry: opts.Registry}, ts.Close
}

// CheckServe runs the case through DiffServe and fails the test with the
// case name and seed on the first divergence.
func CheckServe(t TB, tgt ServeTarget, c Case, workers ...int) {
	t.Helper()
	if err := c.DiffServe(tgt, workers...); err != nil {
		t.Fatalf("case %s (seed %d): %v", c.Name, c.Seed, err)
	}
}

// DiffServe executes the case against the target server. It registers the
// case profile and, for every workers entry, runs a corpus of its own
// (<case>-w<N>): create, ingest the group's entities over HTTP, then two
// discover → wait → results round trips, each requiring the decoded result
// to be exactly — stats and witnesses included — the in-process sequential
// DIME+ result. The server's job counters must show that the first job
// computed DIME+ at that worker count and the second, on the unchanged
// corpus, reused the first's result. The scrollbar (deepest level) and
// witness endpoints are checked against the same reference. Each corpus is
// deleted before the next is created, so a long corpus sweep holds one
// corpus at a time.
func (c Case) DiffServe(tgt ServeTarget, workers ...int) error {
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
	for _, w := range workers {
		if err := c.diffServeCorpus(tgt, profile, want, w); err != nil {
			return fmt.Errorf("workers=%d: %w", w, err)
		}
	}
	return nil
}

// diffServeCorpus runs one worker count's corpus through its lifecycle.
func (c Case) diffServeCorpus(tgt ServeTarget, profile string, want *core.Result, workers int) error {
	id := fmt.Sprintf("%s-w%d", c.Name, workers)
	if err := tgt.postJSON("/v1/corpora", serve.CreateCorpusRequest{
		ID: id, Profile: profile, Name: c.Group.Name,
	}, http.StatusCreated, nil); err != nil {
		return fmt.Errorf("create corpus: %w", err)
	}
	ingest := serve.IngestRequest{}
	for _, e := range c.Group.Entities {
		ingest.Entities = append(ingest.Entities, serve.EntityJSON{ID: e.ID, Values: e.Values})
	}
	var ingested serve.IngestResponse
	if err := tgt.postJSON("/v1/corpora/"+id+"/entities", ingest, http.StatusOK, &ingested); err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	if ingested.Size != len(c.Group.Entities) {
		return fmt.Errorf("ingest: size %d, want %d", ingested.Size, len(c.Group.Entities))
	}

	// The first job computes DIME+ at this worker count; the second, on the
	// unchanged corpus, reuses the first's result.
	for i, delta := range []struct{ computed, reused int64 }{{1, 0}, {0, 1}} {
		computed0, reused0 := jobCounts(tgt.Registry)
		if err := c.diffServeOnce(tgt, id, want, workers); err != nil {
			return fmt.Errorf("discover %d: %w", i+1, err)
		}
		computed, reused := jobCounts(tgt.Registry)
		if computed-computed0 != delta.computed || reused-reused0 != delta.reused {
			return fmt.Errorf("discover %d: computed %d, reused %d jobs; want %d, %d",
				i+1, computed-computed0, reused-reused0, delta.computed, delta.reused)
		}
	}
	err := checkScrollbarAndWitnesses(want,
		func(level int) (serve.ScrollbarJSON, error) {
			var sb serve.ScrollbarJSON
			err := tgt.getJSON(fmt.Sprintf("/v1/corpora/%s/scrollbar/%d", id, level), &sb)
			return sb, err
		},
		func(pi int) (serve.WitnessReportJSON, error) {
			var wr serve.WitnessReportJSON
			err := tgt.getJSON(fmt.Sprintf("/v1/corpora/%s/witnesses/%d", id, pi), &wr)
			return wr, err
		})
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodDelete, tgt.BaseURL+"/v1/corpora/"+id, nil)
	if err != nil {
		return err
	}
	resp, err := tgt.Client.Do(req)
	if err != nil {
		return fmt.Errorf("delete corpus: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("delete corpus: status %d", resp.StatusCode)
	}
	return nil
}

// jobCounts reads a server registry's computed and reused job counters.
func jobCounts(reg *obs.Registry) (computed, reused int64) {
	return reg.Counter("dime.jobs.computed").Value(), reg.Counter("dime.jobs.reused").Value()
}

// diffServeOnce runs one discover→wait→results round trip on the corpus
// and compares.
func (c Case) diffServeOnce(tgt ServeTarget, id string, want *core.Result, workers int) error {
	var job serve.JobJSON
	if err := tgt.postJSON("/v1/corpora/"+id+"/discover",
		serve.DiscoverRequest{IntraWorkers: workers}, http.StatusAccepted, &job); err != nil {
		return fmt.Errorf("discover: %w", err)
	}
	var status serve.JobJSON
	if err := tgt.getJSON("/v1/corpora/"+id+"/status/"+job.Job+"?wait=true", &status); err != nil {
		return fmt.Errorf("status: %w", err)
	}
	if status.State != serve.JobDone {
		return fmt.Errorf("job %s finished %q (error %q)", job.Job, status.State, status.Error)
	}
	var wire serve.ResultJSON
	if err := tgt.getJSON("/v1/corpora/"+id+"/results/"+job.Job, &wire); err != nil {
		return fmt.Errorf("results: %w", err)
	}
	got, err := wire.Core(c.Group)
	if err != nil {
		return err
	}
	if err := exactDiff(want, got); err != nil {
		return fmt.Errorf("in-process vs over-HTTP: %w", err)
	}
	return nil
}

// checkScrollbarAndWitnesses cross-checks a corpus's query endpoints against
// the reference result: the deepest scrollbar level, and the witness of
// every marked partition. The two replays fetch them differently (a raw GET
// or the resilient client), so the fetches come in as functions.
func checkScrollbarAndWitnesses(want *core.Result,
	scrollbar func(level int) (serve.ScrollbarJSON, error),
	witness func(partition int) (serve.WitnessReportJSON, error)) error {
	deepest := len(want.Levels) - 1
	if deepest < 0 {
		return nil
	}
	sb, err := scrollbar(deepest)
	if err != nil {
		return fmt.Errorf("scrollbar: %w", err)
	}
	lv := want.Levels[deepest]
	if sb.Rule != lv.RuleName || !slices.Equal(sb.EntityIDs, lv.EntityIDs) || !slices.Equal(sb.PartitionIndexes, lv.PartitionIndexes) {
		return fmt.Errorf("scrollbar level %d diverged:\n  got  %+v\n  want %+v", deepest, sb, lv)
	}
	for _, pi := range markedOf(want) {
		wr, err := witness(pi)
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

// postJSON posts body and decodes the response into out (when non-nil),
// failing on an unexpected status.
func (tgt ServeTarget) postJSON(path string, body any, wantStatus int, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := tgt.Client.Post(tgt.BaseURL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	return decodeResponse(resp, wantStatus, out)
}

// getJSON fetches path expecting 200.
func (tgt ServeTarget) getJSON(path string, out any) error {
	resp, err := tgt.Client.Get(tgt.BaseURL + path)
	if err != nil {
		return err
	}
	return decodeResponse(resp, http.StatusOK, out)
}

// decodeResponse enforces the status and decodes the body.
func decodeResponse(resp *http.Response, wantStatus int, out any) error {
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("status %d (want %d): %s", resp.StatusCode, wantStatus, bytes.TrimSpace(raw))
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	return nil
}
