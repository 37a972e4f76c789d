// Package fault is a seeded, deterministic fault injector for the dimed HTTP
// surface: a server middleware (Injector.Middleware) and a client-side
// http.RoundTripper wrapper (Injector.Transport) that fire composable rules —
// injected latency, synthesized 500/503 responses, connection resets and
// truncated bodies — with per-rule probabilities drawn from one injected
// *rand.Rand.
//
// # Determinism contract
//
// All randomness comes from the single seeded generator handed to
// NewInjector; the injector itself never reads the wall clock, the
// environment, or the process-global RNG. For a fixed seed, rule list and
// sequential request stream, the same faults fire at the same points — the
// property the chaos mode of internal/difftest's served replay leans on to
// demand byte-identical discovery results under chaos at a known seed.
// Under concurrent requests the interleaving of draws is scheduler
// -dependent, but every draw still comes from the seeded stream, so
// aggregate behaviour (fire rates) stays reproducible in distribution.
//
// # Rule evaluation
//
// Rules are evaluated in declaration order on each request. A matching rule
// draws one uniform variate; all firing latency rules add up, and the first
// firing non-latency rule becomes the request's primary fault. Once a
// primary fires, later non-latency rules are skipped without drawing — at
// most one response-altering fault per request, and a shadowed rule does not
// count as fired.
package fault

import (
	"math/rand"
	"strings"
	"sync"
	"time"
)

// Kind classifies what a firing rule does to the request.
type Kind string

// The fault kinds.
const (
	// KindLatency sleeps Rule.Latency before the request proceeds.
	KindLatency Kind = "latency"
	// KindStatus short-circuits the request with Rule.Status and an
	// ErrorJSON-shaped body; the wrapped handler (or network) is never
	// reached, so retrying the request is always safe.
	KindStatus Kind = "status"
	// KindReset kills the connection without a response: the middleware
	// hijacks and closes the TCP connection, the transport returns a
	// connection-reset error. Clients see a transport-level failure.
	KindReset Kind = "reset"
	// KindTruncate lets the request execute, then delivers only a prefix of
	// the response body under the full Content-Length, so readers hit
	// io.ErrUnexpectedEOF. The handler HAS run — truncation is only safe to
	// retry for idempotent requests.
	KindTruncate Kind = "truncate"
)

// Rule is one composable fault: a (method, path) matcher, a fire
// probability, and the fault kind with its parameters.
type Rule struct {
	// Name labels the rule in counters and snapshots; it must be unique
	// within an injector and non-empty.
	Name string
	// Method matches the request method exactly; empty matches any.
	Method string
	// Path is a glob over the URL path where '*' matches any run of
	// characters (including '/'); empty matches any path.
	Path string
	// P is the fire probability in [0, 1], drawn per matching request.
	P float64
	// Kind selects the fault.
	Kind Kind
	// Latency is the injected delay for KindLatency.
	Latency time.Duration
	// Status is the synthesized response code for KindStatus (e.g. 500, 503).
	Status int
	// RetryAfter, when non-empty, is sent as the Retry-After header on
	// KindStatus responses — letting a chaos run steer client pacing.
	RetryAfter string
}

// matches reports whether the rule applies to (method, path).
func (r Rule) matches(method, path string) bool {
	if r.Method != "" && r.Method != method {
		return false
	}
	return globMatch(r.Path, path)
}

// globMatch matches pattern against s where '*' matches any run of
// characters. An empty pattern matches everything.
func globMatch(pattern, s string) bool {
	if pattern == "" {
		return true
	}
	parts := strings.Split(pattern, "*")
	if len(parts) == 1 {
		return pattern == s
	}
	if !strings.HasPrefix(s, parts[0]) {
		return false
	}
	s = s[len(parts[0]):]
	for _, part := range parts[1 : len(parts)-1] {
		idx := strings.Index(s, part)
		if idx < 0 {
			return false
		}
		s = s[idx+len(part):]
	}
	return strings.HasSuffix(s, parts[len(parts)-1])
}

// RuleCount pairs a rule name with its fire count, in rule order.
type RuleCount struct {
	Name  string
	Fired int64
}

// Injector evaluates a fixed rule list with a seeded RNG and counts fires.
// It is safe for concurrent use; the RNG and counts sit behind one mutex so
// draws are serialized (determinism for sequential request streams).
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules []Rule
	fired []int64
	total int64
}

// Options configures an Injector.
type Options struct {
	// Seed seeds the injector's private RNG.
	Seed int64
	// Rules is the ordered rule list.
	Rules []Rule
}

// NewInjector builds an injector over its own rand.Rand seeded with
// opts.Seed.
func NewInjector(opts Options) *Injector {
	return &Injector{
		rng:   rand.New(rand.NewSource(opts.Seed)),
		rules: append([]Rule(nil), opts.Rules...),
		fired: make([]int64, len(opts.Rules)),
	}
}

// firing is one rule that fired for a request.
type firing struct {
	rule Rule
}

// decide draws for matching rules in declaration order and returns the
// total injected latency plus the primary (first-firing non-latency) fault,
// if any. Once a primary fires, later non-latency rules are not drawn at
// all — a shadowed rule takes no effect, so it must not count as fired
// (latency rules keep drawing; their delays compose with any primary).
func (inj *Injector) decide(method, path string) (latency time.Duration, primary *firing) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	for i, r := range inj.rules {
		if r.Kind != KindLatency && primary != nil {
			continue
		}
		if !r.matches(method, path) {
			continue
		}
		if inj.rng.Float64() >= r.P {
			continue
		}
		inj.fired[i]++
		inj.total++
		if r.Kind == KindLatency {
			latency += r.Latency
			continue
		}
		if primary == nil {
			primary = &firing{rule: r}
		}
	}
	return latency, primary
}

// Fired returns the total number of rule fires so far.
func (inj *Injector) Fired() int64 {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.total
}

// Snapshot returns the per-rule fire counts in rule order.
func (inj *Injector) Snapshot() []RuleCount {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	out := make([]RuleCount, len(inj.rules))
	for i, r := range inj.rules {
		out[i] = RuleCount{Name: r.Name, Fired: inj.fired[i]}
	}
	return out
}

// sleepCtx sleeps for d or until done is closed/canceled, whichever comes
// first.
func sleepCtx(done <-chan struct{}, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-done:
	}
}
