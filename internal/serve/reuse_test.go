package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"dime/internal/core"
	"dime/internal/entity"
	"dime/internal/obs"
)

// jobCounts reads the computed and reused job counters of a registry.
func jobCounts(reg *obs.Registry) (computed, reused int64) {
	return reg.Counter("dime.jobs.computed").Value(), reg.Counter("dime.jobs.reused").Value()
}

// dimeRuns counts the dime+ runs the flight recorder holds.
func dimeRuns(fr *obs.FlightRecorder) int {
	n := 0
	for _, tr := range fr.Snapshot() {
		if tr.Name == "dime+" {
			n++
		}
	}
	return n
}

// submitDiscover posts one discover request and returns the new job ID.
func submitDiscover(t *testing.T, base, corpusID string) string {
	t.Helper()
	code, body, _ := doReq(t, http.MethodPost, base+"/v1/corpora/"+corpusID+"/discover", nil)
	if code != http.StatusAccepted {
		t.Fatalf("discover %s: status %d: %s", corpusID, code, body)
	}
	var job JobJSON
	if err := json.Unmarshal([]byte(body), &job); err != nil {
		t.Fatal(err)
	}
	return job.Job
}

// waitResult waits for a job to finish and returns its raw result body.
func waitResult(t *testing.T, base, corpusID, jobID string) string {
	t.Helper()
	code, body, _ := doReq(t, http.MethodGet, base+"/v1/corpora/"+corpusID+"/status/"+jobID+"?wait=true", nil)
	if code != http.StatusOK || !strings.Contains(body, `"state": "done"`) {
		t.Fatalf("status %s: %d: %s", jobID, code, body)
	}
	code, body, _ = doReq(t, http.MethodGet, base+"/v1/corpora/"+corpusID+"/results/"+jobID, nil)
	if code != http.StatusOK {
		t.Fatalf("results %s: status %d: %s", jobID, code, body)
	}
	return body
}

// sameResult requires two result bodies to be byte-identical apart from
// their job IDs.
func sameResult(t *testing.T, label, want, wantJob, got, gotJob string) {
	t.Helper()
	got = strings.Replace(got, fmt.Sprintf(`"job": %q`, gotJob), fmt.Sprintf(`"job": %q`, wantJob), 1)
	if got != want {
		t.Errorf("%s: result differs from %s's:\n--- got ---\n%s--- want ---\n%s", label, wantJob, got, want)
	}
}

// ingest posts entities and requires the given status and, afterwards, the
// given corpus size.
func ingest(t *testing.T, base, corpusID string, req IngestRequest, wantCode, wantSize int) {
	t.Helper()
	code, body, _ := doReq(t, http.MethodPost, base+"/v1/corpora/"+corpusID+"/entities", mustMarshal(t, req))
	if code != wantCode {
		t.Fatalf("ingest: status %d, want %d: %s", code, wantCode, body)
	}
	code, body, _ = doReq(t, http.MethodGet, base+"/v1/corpora/"+corpusID, nil)
	if code != http.StatusOK || !strings.Contains(body, fmt.Sprintf(`"entities": %d,`, wantSize)) {
		t.Fatalf("corpus after ingest: status %d, want %d entities: %s", code, wantSize, body)
	}
}

// TestDiscoverReusesUnchangedCorpus pins when a discover job reuses the
// corpus's latest completed discovery: exactly when no entity was added
// since. A reused job returns the same result, moves dime.jobs.reused and
// runs no DIME+; a job after a successful ingest computes, and a rejected
// ingest that added nothing leaves the corpus reusable.
func TestDiscoverReusesUnchangedCorpus(t *testing.T) {
	reg := obs.NewRegistry()
	fr := obs.NewFlightRecorder(obs.FlightOptions{})
	_, ts := newTestServer(t, Options{Registry: reg, Flight: fr})
	full := scholarGroup()
	n := len(full.Entities)
	mkCorpus(t, ts.URL, "g", "scholar")
	ingest(t, ts.URL, "g", entitiesJSON(full.Entities[:n-1]), http.StatusOK, n-1)

	first := waitResult(t, ts.URL, "g", submitDiscover(t, ts.URL, "g"))
	if c, r := jobCounts(reg); c != 1 || r != 0 {
		t.Fatalf("first discover: computed %d, reused %d; want 1, 0", c, r)
	}
	runs := dimeRuns(fr)
	if runs != 1 {
		t.Fatalf("first discover recorded %d dime+ runs, want 1", runs)
	}

	second := waitResult(t, ts.URL, "g", submitDiscover(t, ts.URL, "g"))
	sameResult(t, "discover on an unchanged corpus", first, "job-1", second, "job-2")
	if c, r := jobCounts(reg); c != 1 || r != 1 {
		t.Errorf("second discover: computed %d, reused %d; want 1, 1", c, r)
	}
	if got := dimeRuns(fr); got != runs {
		t.Errorf("reused job recorded a dime+ run: %d runs, want %d", got, runs)
	}
	code, body, _ := doReq(t, http.MethodGet, ts.URL+"/v1/corpora/g/scrollbar/0", nil)
	if code != http.StatusOK || !strings.Contains(body, `"job": "job-2"`) {
		t.Errorf("scrollbar after a reused job: status %d, want it served from job-2: %s", code, body)
	}

	// A rejected ingest whose first entity is invalid adds nothing, so the
	// corpus is unchanged and the next discover is reused.
	bad := IngestRequest{Entities: []EntityJSON{{ID: "x", Values: [][]string{{"only-one"}}}}}
	ingest(t, ts.URL, "g", bad, http.StatusBadRequest, n-1)
	third := waitResult(t, ts.URL, "g", submitDiscover(t, ts.URL, "g"))
	sameResult(t, "discover after a rejected ingest", first, "job-1", third, "job-3")
	if c, r := jobCounts(reg); c != 1 || r != 2 {
		t.Errorf("discover after a rejected ingest: computed %d, reused %d; want 1, 2", c, r)
	}

	// One more entity changes the answer: the next discover computes, and
	// its result is DIME+ on the grown group.
	ingest(t, ts.URL, "g", entitiesJSON(full.Entities[n-1:]), http.StatusOK, n)
	grown := waitResult(t, ts.URL, "g", submitDiscover(t, ts.URL, "g"))
	if c, r := jobCounts(reg); c != 2 || r != 2 {
		t.Errorf("discover after an ingest: computed %d, reused %d; want 2, 2", c, r)
	}
	prof := BuiltinProfiles()["scholar"]
	g := entity.NewGroup("g", prof.Config.Schema)
	g.Entities = full.Entities
	ref, err := core.DIMEPlus(g, core.Options{Config: prof.Config, Rules: prof.Rules})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(ResultFromCore("g", "job-4", ref), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if grown != string(want)+"\n" {
		t.Errorf("discover after an ingest differs from DIME+ on the grown group:\n--- got ---\n%s--- want ---\n%s\n", grown, want)
	}
}

// TestQueuedDiscoverReusesResult queues a second discover behind a gated
// first one on the same unchanged corpus: once the gate opens, the first
// job computes and publishes its result before it is done, and the queued
// job reuses it.
func TestQueuedDiscoverReusesResult(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Options{
		Workers:  1,
		Registry: reg,
		BeforeJob: func(_, jobID string) {
			if jobID == "job-1" {
				close(entered)
				<-release
			}
		},
	})
	g := scholarGroup()
	mkCorpus(t, ts.URL, "g", "scholar")
	ingest(t, ts.URL, "g", entitiesJSON(g.Entities), http.StatusOK, len(g.Entities))

	first := submitDiscover(t, ts.URL, "g")
	<-entered
	second := submitDiscover(t, ts.URL, "g")
	code, body, _ := doReq(t, http.MethodGet, ts.URL+"/v1/corpora/g/status/"+second, nil)
	if code != http.StatusOK || !strings.Contains(body, `"state": "queued"`) {
		t.Fatalf("second job behind the gate: status %d: %s", code, body)
	}
	close(release)

	want := waitResult(t, ts.URL, "g", first)
	got := waitResult(t, ts.URL, "g", second)
	sameResult(t, "queued discover", want, first, got, second)
	if c, r := jobCounts(reg); c != 1 || r != 1 {
		t.Errorf("gated pair: computed %d, reused %d; want 1, 1", c, r)
	}
}
