package serve

// Concurrent-clients stress test: N clients each drive their own corpus
// through interleaved ingest batches and discovery jobs while scraping the
// observability surface (/metrics, /debug/flight) on a shared
// service — the -race run of this test is the data-race gate for the serving
// layer. At the end every corpus must be coherent: the final result served
// over HTTP must equal, field for field, an in-process DIME+ run on the same
// entities.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"testing"

	"dime/internal/core"
	"dime/internal/datagen"
	"dime/internal/entity"
	"dime/internal/presets"
)

func TestConcurrentClientsStress(t *testing.T) {
	const clients = 8
	svc, ts := newTestServer(t, Options{Workers: 4, QueueDepth: 256})
	_ = svc

	errc := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func(i int) { errc <- stressClient(t, ts.URL, i) }(i)
	}
	for i := 0; i < clients; i++ {
		if err := <-errc; err != nil {
			t.Error(err)
		}
	}

	// The shared observability surface survived the onslaught and still
	// renders.
	for _, route := range []string{"/metrics", "/debug/flight"} {
		if code, body, _ := doReq(t, http.MethodGet, ts.URL+route, nil); code != http.StatusOK {
			t.Errorf("final GET %s: status %d: %s", route, code, body)
		}
	}
}

// stressClient runs one client's full lifecycle against its own corpus and
// verifies the final served result against an in-process run.
func stressClient(t *testing.T, base string, i int) error {
	id := fmt.Sprintf("stress-%d", i)
	g := datagen.Scholar(datagen.ScholarOptions{
		NumPubs: 25 + 5*i, ErrorRate: 0.1, Seed: int64(1000 + i),
	})
	body := mustMarshal(t, CreateCorpusRequest{ID: id, Profile: "scholar", Name: g.Name})
	if code, resp, _ := doReq(t, http.MethodPost, base+"/v1/corpora", body); code != http.StatusCreated {
		return fmt.Errorf("client %d: create: status %d: %s", i, code, resp)
	}

	// Ingest in batches, firing fire-and-forget discoveries and read/scrape
	// traffic between them.
	const batch = 10
	for lo := 0; lo < len(g.Entities); lo += batch {
		hi := min(lo+batch, len(g.Entities))
		req := IngestRequest{}
		for _, e := range g.Entities[lo:hi] {
			req.Entities = append(req.Entities, EntityJSON{ID: e.ID, Values: e.Values})
		}
		if code, resp, _ := doReq(t, http.MethodPost, base+"/v1/corpora/"+id+"/entities", mustMarshal(t, req)); code != http.StatusOK {
			return fmt.Errorf("client %d: ingest [%d:%d]: status %d: %s", i, lo, hi, code, resp)
		}
		// Mid-stream discovery; 429 under load is a legitimate answer.
		if code, resp, _ := doReq(t, http.MethodPost, base+"/v1/corpora/"+id+"/discover", nil); code != http.StatusAccepted && code != http.StatusTooManyRequests {
			return fmt.Errorf("client %d: mid discover: status %d: %s", i, code, resp)
		}
		// Reads against whatever result exists so far; 404 before the first
		// completed discovery is a legitimate answer.
		if code, resp, _ := doReq(t, http.MethodGet, base+"/v1/corpora/"+id+"/scrollbar/0", nil); code != http.StatusOK && code != http.StatusNotFound {
			return fmt.Errorf("client %d: scrollbar: status %d: %s", i, code, resp)
		}
		if code, resp, _ := doReq(t, http.MethodGet, base+"/v1/corpora/"+id+"/witnesses/0", nil); code != http.StatusOK && code != http.StatusNotFound {
			return fmt.Errorf("client %d: witnesses: status %d: %s", i, code, resp)
		}
		if code, resp, _ := doReq(t, http.MethodGet, base+"/v1/corpora/"+id+"/partitions", nil); code != http.StatusOK {
			return fmt.Errorf("client %d: partitions: status %d: %s", i, code, resp)
		}
		for _, route := range []string{"/metrics", "/debug/flight"} {
			if code, resp, _ := doReq(t, http.MethodGet, base+route, nil); code != http.StatusOK {
				return fmt.Errorf("client %d: scrape %s: status %d: %s", i, route, code, resp)
			}
		}
	}

	// Final coherence: discover everything, retrying through backpressure,
	// and demand equality with the in-process run.
	var job JobJSON
	for {
		code, resp, _ := doReq(t, http.MethodPost, base+"/v1/corpora/"+id+"/discover",
			mustMarshal(t, DiscoverRequest{}))
		if code == http.StatusAccepted {
			if err := json.Unmarshal([]byte(resp), &job); err != nil {
				return fmt.Errorf("client %d: decode job: %v", i, err)
			}
			break
		}
		if code != http.StatusTooManyRequests {
			return fmt.Errorf("client %d: final discover: status %d: %s", i, code, resp)
		}
	}
	code, resp, _ := doReq(t, http.MethodGet, base+"/v1/corpora/"+id+"/status/"+job.Job+"?wait=true", nil)
	if code != http.StatusOK {
		return fmt.Errorf("client %d: wait: status %d: %s", i, code, resp)
	}
	var status JobJSON
	if err := json.Unmarshal([]byte(resp), &status); err != nil {
		return err
	}
	if status.State != JobDone {
		return fmt.Errorf("client %d: final job state %q (error %q)", i, status.State, status.Error)
	}
	code, resp, _ = doReq(t, http.MethodGet, base+"/v1/corpora/"+id+"/results/"+job.Job, nil)
	if code != http.StatusOK {
		return fmt.Errorf("client %d: results: status %d: %s", i, code, resp)
	}
	var wire ResultJSON
	if err := json.Unmarshal([]byte(resp), &wire); err != nil {
		return err
	}
	// Rebuild the reference group so the comparison shares no state with the
	// server-side snapshot.
	ref := &entity.Group{Name: g.Name, Schema: g.Schema, Entities: g.Entities}
	got, err := wire.Core(ref)
	if err != nil {
		return err
	}
	cfg := presets.ScholarConfig()
	want, err := core.DIMEPlus(ref, core.Options{Config: cfg, Rules: presets.ScholarRules(cfg)})
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(want, got) {
		return fmt.Errorf("client %d: final HTTP result diverges from in-process DIME+:\n  got  %+v\n  want %+v", i, got, want)
	}
	return nil
}
