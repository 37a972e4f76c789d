package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"dime/internal/obs"
)

// Handler returns the full HTTP surface of a Service: the v1 JSON API plus
// the debug routes (/metrics, /debug/vars, /debug/flight, /debug/pprof/)
// mounted through obs.RegisterDebug — the same construction path
// obs.ServeDebug uses, so the two surfaces cannot drift (a parity test walks
// obs.DebugRoutes over both).
//
//	GET    /healthz                              liveness (503 while draining)
//	GET    /v1/corpora                           list corpora + profiles
//	POST   /v1/corpora                           create a corpus
//	GET    /v1/corpora/{id}                      corpus summary
//	DELETE /v1/corpora/{id}                      delete a corpus
//	POST   /v1/corpora/{id}/entities             ingest entities
//	GET    /v1/corpora/{id}/partitions           live incremental partitions
//	POST   /v1/corpora/{id}/discover             start an async discovery job
//	GET    /v1/corpora/{id}/status/{job}         job status (?wait=true long-polls)
//	GET    /v1/corpora/{id}/results/{job}        full result of a done job
//	GET    /v1/corpora/{id}/scrollbar/{level}    one level of the latest result
//	GET    /v1/corpora/{id}/witnesses/{partition} why a partition was marked
//
// Every non-2xx response body is an ErrorJSON. Service errors map to
// status codes: ErrBadRequest 400, ErrNotFound 404, ErrConflict 409,
// a request body over maxBodyBytes 413, ErrQueueFull 429 (with
// Retry-After), ErrDraining 503.
func Handler(s *Service) http.Handler {
	mux := http.NewServeMux()
	obs.RegisterDebug(mux, s.opts.Registry, s.opts.Flight)

	handle := func(pattern, route string, h http.HandlerFunc) {
		mux.Handle(pattern, s.instrument(route, h))
	}

	handle("GET /healthz", "healthz", s.handleHealthz)
	handle("GET /v1/corpora", "corpora_list", s.handleListCorpora)
	handle("POST /v1/corpora", "corpora_create", s.handleCreateCorpus)
	handle("GET /v1/corpora/{id}", "corpus_get", s.handleGetCorpus)
	handle("DELETE /v1/corpora/{id}", "corpus_delete", s.handleDeleteCorpus)
	handle("POST /v1/corpora/{id}/entities", "ingest", s.handleIngest)
	handle("GET /v1/corpora/{id}/partitions", "partitions", s.handlePartitions)
	handle("POST /v1/corpora/{id}/discover", "discover", s.handleDiscover)
	handle("GET /v1/corpora/{id}/status/{job}", "status", s.handleJobStatus)
	handle("GET /v1/corpora/{id}/results/{job}", "results", s.handleJobResult)
	handle("GET /v1/corpora/{id}/scrollbar/{level}", "scrollbar", s.handleScrollbar)
	handle("GET /v1/corpora/{id}/witnesses/{partition}", "witnesses", s.handleWitness)

	mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "dimed — DIME discovery service")
		fmt.Fprintln(w, "  /healthz, /v1/corpora[/{id}[/entities|/partitions|/discover|/status/{job}|/results/{job}|/scrollbar/{level}|/witnesses/{partition}]]")
		fmt.Fprintln(w, "  /metrics, /debug/vars, /debug/flight, /debug/pprof/")
	})
	return mux
}

// writeJSON writes v with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// The connection died mid-body; nothing useful left to do.
	_ = enc.Encode(v)
}

// writeError maps err onto an ErrorJSON body.
func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, ErrorJSON{Error: err.Error()})
}

// statusOf maps a service error to its HTTP status code.
func statusOf(err error) int {
	switch {
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrConflict):
		return http.StatusConflict
	case errors.As(err, new(*http.MaxBytesError)):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// fail writes the mapped error response. Backpressure and draining answers
// (429/503) carry a Retry-After derived from the current job backlog and the
// observed job latency, so clients pace their retries to the server's actual
// drain rate instead of a fixed guess.
func (s *Service) fail(w http.ResponseWriter, err error) {
	code := statusOf(err)
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	}
	writeError(w, code, err)
}

// maxBodyBytes caps the bytes read from any request body. The largest
// bodies the repository sends are far below it: 31,385 bytes for the
// differential harness's largest ingest and 27,852 bytes for the benchmark's
// 64-entity ingest batches.
const maxBodyBytes = 8 << 20

// decodeBody strictly decodes a JSON request body into v, reading at most
// maxBodyBytes of it. A body that needs more is answered 413.
func decodeBody(w http.ResponseWriter, req *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return fmt.Errorf("%w: limit %d bytes", err, tooLarge.Limit)
		}
		return fmt.Errorf("%w: invalid JSON body: %v", ErrBadRequest, err)
	}
	return nil
}

// pathInt parses an integer path segment.
func pathInt(req *http.Request, name string) (int, error) {
	v, err := strconv.Atoi(req.PathValue(name))
	if err != nil {
		return 0, fmt.Errorf("%w: %s %q is not an integer", ErrBadRequest, name, req.PathValue(name))
	}
	return v, nil
}

func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Service) handleListCorpora(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.ListCorpora())
}

func (s *Service) handleCreateCorpus(w http.ResponseWriter, req *http.Request) {
	var body CreateCorpusRequest
	if err := decodeBody(w, req, &body); err != nil {
		s.fail(w, err)
		return
	}
	info, err := s.CreateCorpus(body)
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Service) handleGetCorpus(w http.ResponseWriter, req *http.Request) {
	info, err := s.GetCorpus(req.PathValue("id"))
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Service) handleDeleteCorpus(w http.ResponseWriter, req *http.Request) {
	if err := s.DeleteCorpus(req.PathValue("id")); err != nil {
		s.fail(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Service) handleIngest(w http.ResponseWriter, req *http.Request) {
	var body IngestRequest
	if err := decodeBody(w, req, &body); err != nil {
		s.fail(w, err)
		return
	}
	resp, err := s.Ingest(req.PathValue("id"), body)
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handlePartitions(w http.ResponseWriter, req *http.Request) {
	resp, err := s.Partitions(req.PathValue("id"))
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleDiscover(w http.ResponseWriter, req *http.Request) {
	body := DiscoverRequest{}
	if req.ContentLength != 0 {
		if err := decodeBody(w, req, &body); err != nil {
			s.fail(w, err)
			return
		}
	}
	job, err := s.StartDiscover(req.PathValue("id"), body, req.Header.Get("Idempotency-Key"))
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, job)
}

func (s *Service) handleJobStatus(w http.ResponseWriter, req *http.Request) {
	wait := false
	switch v := req.URL.Query().Get("wait"); v {
	case "", "false", "0":
	case "true", "1":
		wait = true
	default:
		s.fail(w, fmt.Errorf("%w: wait=%q (want true or false)", ErrBadRequest, v))
		return
	}
	status, err := s.JobStatus(req.Context(), req.PathValue("id"), req.PathValue("job"), wait)
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, status)
}

func (s *Service) handleJobResult(w http.ResponseWriter, req *http.Request) {
	res, err := s.JobResult(req.PathValue("id"), req.PathValue("job"))
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Service) handleScrollbar(w http.ResponseWriter, req *http.Request) {
	level, err := pathInt(req, "level")
	if err != nil {
		s.fail(w, err)
		return
	}
	resp, err := s.Scrollbar(req.PathValue("id"), level)
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleWitness(w http.ResponseWriter, req *http.Request) {
	partition, err := pathInt(req, "partition")
	if err != nil {
		s.fail(w, err)
		return
	}
	resp, err := s.Witness(req.PathValue("id"), partition)
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
