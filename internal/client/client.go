// Package client is the typed, resilient Go client for the dimed HTTP API
// (internal/serve): one method per endpoint over the serve wire types, with
// the retry machinery a production caller needs and the determinism the
// repository's chaos harness demands.
//
// # Resilience model
//
//   - Context deadlines propagate into every request and bound every backoff
//     sleep; a canceled context ends the retry loop immediately.
//   - Transient failures retry with capped exponential backoff and full
//     jitter: sleep = U(0, min(MaxBackoff, BaseBackoff·2^attempt)), drawn
//     from an injected *rand.Rand so test runs are reproducible (and the
//     detersafe gate stays green — the package never touches the global RNG
//     or the wall clock outside obs.Now).
//   - 429 and 503 responses honor the server's Retry-After header (seconds
//     form, capped by MaxRetryAfter) instead of the local backoff curve.
//   - Backoff happens only between attempts: a call whose last attempt fails
//     returns at once.
//   - The retry policy is idempotency-aware: 429/503 are always retryable
//     (the server refused before doing work), but transport errors,
//     truncated bodies and other 5xx responses are retried only for requests
//     that are safe to replay — GETs, and POSTs carrying an Idempotency-Key
//     (the serve layer dedupes keyed discover submissions, making their
//     retry exact-once).
//   - A closed/open/half-open circuit breaker (Breaker) counts consecutive
//     hard failures; while open, attempts fail fast locally with
//     ErrBreakerOpen — inside the retry loop that is one more retryable
//     condition, so a long chaos run rides through breaker trips without
//     surfacing them.
//
// Retry, failure and breaker counters register in an internal/obs Registry:
// dime.client.attempts, dime.client.retries, dime.client.failures,
// dime.client.breaker.opened and the dime.client.breaker.state gauge.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"dime/internal/obs"
	"dime/internal/serve"
)

// APIError is a non-retryable (or retry-exhausted) HTTP-level failure: the
// server answered with an unexpected status.
type APIError struct {
	// Status is the HTTP status code received.
	Status int
	// Message is the server's ErrorJSON error text (or a body excerpt).
	Message string
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("client: server answered %d: %s", e.Status, e.Message)
}

// Options configures a Client.
type Options struct {
	// HTTPClient performs the requests; nil uses a fresh http.Client.
	// Install a fault.Injector Transport here to chaos-test the client.
	HTTPClient *http.Client
	// MaxAttempts bounds tries per call (first attempt included); 0 uses 8.
	MaxAttempts int
	// BaseBackoff is the first retry's backoff cap; 0 uses 100ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential backoff curve; 0 uses 5s.
	MaxBackoff time.Duration
	// MaxRetryAfter caps how long a server Retry-After is honored; 0 uses 30s.
	MaxRetryAfter time.Duration
	// Rand supplies the jitter; nil seeds a private generator from obs.Now.
	// Inject a seeded generator for reproducible retry schedules.
	Rand *rand.Rand
	// Breaker configures the circuit breaker (see BreakerOptions zero
	// values; Threshold < 0 disables it).
	Breaker BreakerOptions
	// Registry receives the client's counters and gauges; nil uses
	// obs.Default().
	Registry *obs.Registry
}

// withDefaults fills the zero values in.
func (o Options) withDefaults() Options {
	if o.HTTPClient == nil {
		o.HTTPClient = &http.Client{}
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 8
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 100 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 5 * time.Second
	}
	if o.MaxRetryAfter <= 0 {
		o.MaxRetryAfter = 30 * time.Second
	}
	if o.Rand == nil {
		o.Rand = rand.New(rand.NewSource(obs.Now().UnixNano()))
	}
	if o.Registry == nil {
		o.Registry = obs.Default()
	}
	return o
}

// Client talks to one dimed base URL. It is safe for concurrent use.
type Client struct {
	base string
	opts Options

	rngMu sync.Mutex
	rng   *rand.Rand

	breaker *Breaker

	attempts *obs.Counter
	retries  *obs.Counter
	failures *obs.Counter
}

// New builds a client for the server at baseURL (scheme://host[:port], no
// trailing slash needed).
func New(baseURL string, opts Options) *Client {
	opts = opts.withDefaults()
	reg := opts.Registry
	return &Client{
		base:     trimSlash(baseURL),
		opts:     opts,
		rng:      opts.Rand,
		breaker:  newBreaker(opts.Breaker, reg),
		attempts: reg.Counter("dime.client.attempts"),
		retries:  reg.Counter("dime.client.retries"),
		failures: reg.Counter("dime.client.failures"),
	}
}

func trimSlash(s string) string {
	for len(s) > 0 && s[len(s)-1] == '/' {
		s = s[:len(s)-1]
	}
	return s
}

// Breaker exposes the client's circuit breaker (tests, dashboards).
func (c *Client) Breaker() *Breaker { return c.breaker }

// Healthz checks liveness; a draining or faulted server yields an error.
func (c *Client) Healthz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, "", http.StatusOK, nil)
}

// ListCorpora lists corpora and registered profile names.
func (c *Client) ListCorpora(ctx context.Context) (serve.CorporaJSON, error) {
	var out serve.CorporaJSON
	err := c.do(ctx, http.MethodGet, "/v1/corpora", nil, "", http.StatusOK, &out)
	return out, err
}

// CreateCorpus creates a corpus under a registered profile.
func (c *Client) CreateCorpus(ctx context.Context, req serve.CreateCorpusRequest) (serve.CorpusJSON, error) {
	var out serve.CorpusJSON
	err := c.do(ctx, http.MethodPost, "/v1/corpora", req, "", http.StatusCreated, &out)
	return out, err
}

// Corpus fetches one corpus summary.
func (c *Client) Corpus(ctx context.Context, id string) (serve.CorpusJSON, error) {
	var out serve.CorpusJSON
	err := c.do(ctx, http.MethodGet, "/v1/corpora/"+url.PathEscape(id), nil, "", http.StatusOK, &out)
	return out, err
}

// DeleteCorpus deletes a corpus.
func (c *Client) DeleteCorpus(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/corpora/"+url.PathEscape(id), nil, "", http.StatusNoContent, nil)
}

// Ingest appends entities to a corpus. Ingest is NOT idempotent (a replay
// appends again), so only 429/503 refusals are retried — a transport
// failure after the server may have applied the batch surfaces as an error
// for the caller to reconcile (compare Corpus().Entities against what was
// sent).
func (c *Client) Ingest(ctx context.Context, id string, req serve.IngestRequest) (serve.IngestResponse, error) {
	var out serve.IngestResponse
	err := c.do(ctx, http.MethodPost, "/v1/corpora/"+url.PathEscape(id)+"/entities", req, "", http.StatusOK, &out)
	return out, err
}

// Partitions fetches the live partitions of the incremental session.
func (c *Client) Partitions(ctx context.Context, id string) (serve.PartitionsJSON, error) {
	var out serve.PartitionsJSON
	err := c.do(ctx, http.MethodGet, "/v1/corpora/"+url.PathEscape(id)+"/partitions", nil, "", http.StatusOK, &out)
	return out, err
}

// Discover starts (or, under a reused idemKey, re-fetches) an asynchronous
// discovery job. A non-empty idemKey is sent as the Idempotency-Key header:
// the server returns the original job for a replayed key instead of
// enqueueing a duplicate, which is what makes retrying this mutation safe —
// with a key, every failure shape is retryable.
func (c *Client) Discover(ctx context.Context, id string, req serve.DiscoverRequest, idemKey string) (serve.JobJSON, error) {
	var out serve.JobJSON
	err := c.do(ctx, http.MethodPost, "/v1/corpora/"+url.PathEscape(id)+"/discover", req, idemKey, http.StatusAccepted, &out)
	return out, err
}

// JobStatus fetches a job's status; with wait it long-polls until the job
// reaches a terminal state or the server's request timeout expires
// (returning the still-pending state).
func (c *Client) JobStatus(ctx context.Context, id, job string, wait bool) (serve.JobJSON, error) {
	path := "/v1/corpora/" + url.PathEscape(id) + "/status/" + url.PathEscape(job)
	if wait {
		path += "?wait=true"
	}
	var out serve.JobJSON
	err := c.do(ctx, http.MethodGet, path, nil, "", http.StatusOK, &out)
	return out, err
}

// WaitJob long-polls until the job is done or failed (or ctx expires). Each
// long-poll round is bounded by the server's request timeout; WaitJob keeps
// polling across rounds, so its only deadline is the caller's context.
func (c *Client) WaitJob(ctx context.Context, id, job string) (serve.JobJSON, error) {
	for {
		status, err := c.JobStatus(ctx, id, job, true)
		if err != nil {
			return serve.JobJSON{}, err
		}
		if status.State == serve.JobDone || status.State == serve.JobFailed {
			return status, nil
		}
		if err := ctx.Err(); err != nil {
			return status, fmt.Errorf("client: waiting for %s/%s: %w", id, job, err)
		}
	}
}

// JobResult fetches the full result of a completed job.
func (c *Client) JobResult(ctx context.Context, id, job string) (*serve.ResultJSON, error) {
	var out serve.ResultJSON
	path := "/v1/corpora/" + url.PathEscape(id) + "/results/" + url.PathEscape(job)
	if err := c.do(ctx, http.MethodGet, path, nil, "", http.StatusOK, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Scrollbar fetches one scrollbar level of the latest completed discovery.
func (c *Client) Scrollbar(ctx context.Context, id string, level int) (serve.ScrollbarJSON, error) {
	var out serve.ScrollbarJSON
	path := fmt.Sprintf("/v1/corpora/%s/scrollbar/%d", url.PathEscape(id), level)
	err := c.do(ctx, http.MethodGet, path, nil, "", http.StatusOK, &out)
	return out, err
}

// Witness fetches the witness report for one partition of the latest
// completed discovery.
func (c *Client) Witness(ctx context.Context, id string, partition int) (serve.WitnessReportJSON, error) {
	var out serve.WitnessReportJSON
	path := fmt.Sprintf("/v1/corpora/%s/witnesses/%d", url.PathEscape(id), partition)
	err := c.do(ctx, http.MethodGet, path, nil, "", http.StatusOK, &out)
	return out, err
}

// do runs one API call through the retry loop: marshal once, then attempt
// up to MaxAttempts times under the circuit breaker, classifying every
// failure as retryable or permanent per the idempotency-aware policy.
func (c *Client) do(ctx context.Context, method, path string, body any, idemKey string, wantStatus int, out any) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return fmt.Errorf("client: encoding %s %s body: %w", method, path, err)
		}
	}
	// Replay safety: GETs are idempotent by HTTP semantics; keyed POSTs are
	// deduped server-side. Everything else only retries refusals (429/503).
	idempotent := method == http.MethodGet || idemKey != ""

	var lastErr error
	retryAfter := time.Duration(-1) // the last failure's server pacing
	for attempt := 0; attempt < c.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			// Back off between attempts only: after the last one the loop
			// returns at once.
			if err := c.backoff(ctx, attempt-1, retryAfter); err != nil {
				return c.exhausted(method, path, lastErr, err)
			}
			c.retries.Add(1)
		}
		c.attempts.Add(1)
		if err := ctx.Err(); err != nil {
			return c.exhausted(method, path, lastErr, err)
		}
		if err := c.breaker.Allow(); err != nil {
			// Fail fast locally, but inside the loop the trip is one more
			// retryable condition: back off and re-probe.
			lastErr, retryAfter = err, -1
			continue
		}
		res := c.attempt(ctx, method, path, payload, idemKey, wantStatus, out)
		if res.err == nil {
			return nil
		}
		lastErr, retryAfter = res.err, res.retryAfter
		if !res.retryable || (res.needsIdem && !idempotent) {
			c.failures.Add(1)
			return fmt.Errorf("client: %s %s: %w", method, path, res.err)
		}
	}
	return c.exhausted(method, path, lastErr, nil)
}

// exhausted renders the terminal retry-loop error.
func (c *Client) exhausted(method, path string, lastErr, cause error) error {
	c.failures.Add(1)
	switch {
	case lastErr == nil && cause != nil:
		return fmt.Errorf("client: %s %s: %w", method, path, cause)
	case cause != nil:
		return fmt.Errorf("client: %s %s: %w (last error: %v)", method, path, cause, lastErr)
	default:
		return fmt.Errorf("client: %s %s: retries exhausted after %d attempts: %w",
			method, path, c.opts.MaxAttempts, lastErr)
	}
}

// attemptResult classifies one attempt.
type attemptResult struct {
	err        error
	retryable  bool          // a retry could succeed
	needsIdem  bool          // ... but only for replay-safe requests
	retryAfter time.Duration // server-requested pacing; -1 when absent
}

// attempt performs one HTTP round trip and classifies the outcome.
func (c *Client) attempt(ctx context.Context, method, path string, payload []byte, idemKey string, wantStatus int, out any) attemptResult {
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return attemptResult{err: err}
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	resp, err := c.opts.HTTPClient.Do(req)
	if err != nil {
		// The request may or may not have reached the server; only
		// replay-safe requests retry.
		c.breaker.Failure()
		return attemptResult{err: err, retryable: true, needsIdem: true, retryAfter: -1}
	}
	raw, readErr := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if readErr != nil {
		// Truncated or reset mid-body: the server processed the request.
		c.breaker.Failure()
		return attemptResult{
			err:       fmt.Errorf("reading response (status %d): %w", resp.StatusCode, readErr),
			retryable: true, needsIdem: true, retryAfter: -1,
		}
	}

	switch {
	case resp.StatusCode == wantStatus:
		c.breaker.Success()
		if out != nil {
			if err := json.Unmarshal(raw, out); err != nil {
				return attemptResult{err: fmt.Errorf("decoding response: %w", err)}
			}
		}
		return attemptResult{}
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		// Explicit refusal before any work: always retryable, server-paced.
		// The server is alive and answering, so this is pacing, not a
		// breaker-worthy failure.
		return attemptResult{
			err:        apiError(resp.StatusCode, raw),
			retryable:  true,
			retryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
		}
	case resp.StatusCode >= 500:
		c.breaker.Failure()
		return attemptResult{err: apiError(resp.StatusCode, raw), retryable: true, needsIdem: true, retryAfter: -1}
	default:
		// A well-formed 4xx (or unexpected 2xx/3xx): the server is healthy
		// and the answer is final.
		c.breaker.Success()
		return attemptResult{err: apiError(resp.StatusCode, raw)}
	}
}

// apiError builds an APIError from a response body (ErrorJSON if possible).
func apiError(status int, raw []byte) *APIError {
	var e serve.ErrorJSON
	if err := json.Unmarshal(raw, &e); err == nil && e.Error != "" {
		return &APIError{Status: status, Message: e.Error}
	}
	msg := string(raw)
	if len(msg) > 256 {
		msg = msg[:256] + "..."
	}
	return &APIError{Status: status, Message: msg}
}

// parseRetryAfter parses the delay-seconds form of Retry-After; -1 means
// absent or unparseable (HTTP-date form is deliberately not supported — it
// would need a wall-clock read, and the serve layer always sends seconds).
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return -1
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return -1
	}
	return time.Duration(secs) * time.Second
}

// delay computes the pre-retry sleep: the server's Retry-After when given
// (capped by MaxRetryAfter), else full jitter over the capped exponential
// curve — U(0, min(MaxBackoff, BaseBackoff·2^attempt)).
func (c *Client) delay(attempt int, retryAfter time.Duration) time.Duration {
	if retryAfter >= 0 {
		if retryAfter > c.opts.MaxRetryAfter {
			return c.opts.MaxRetryAfter
		}
		return retryAfter
	}
	ceil := c.opts.BaseBackoff << uint(attempt)
	if ceil > c.opts.MaxBackoff || ceil <= 0 { // <= 0: shift overflow
		ceil = c.opts.MaxBackoff
	}
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return time.Duration(c.rng.Float64() * float64(ceil))
}

// backoff sleeps for delay(attempt, retryAfter), bounded by ctx.
func (c *Client) backoff(ctx context.Context, attempt int, retryAfter time.Duration) error {
	d := c.delay(attempt, retryAfter)
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
