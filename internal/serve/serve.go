// Package serve is the long-lived HTTP serving layer over the discovery
// engine: per-corpus incremental state on the Session core, a JSON API to
// create corpora, stream entities in, trigger discovery as asynchronous jobs
// on a concurrency-limited worker pool, and query the scrollbar, witnesses
// and live partitions — plus the repository's full observability surface
// (/metrics, /debug/flight, /debug/pprof/) mounted through the same
// construction path as obs.ServeDebug, so the two debug surfaces cannot
// drift.
//
// The package splits along the handler/service seam: Service owns corpus
// state, profiles and the job pool and knows nothing about HTTP; Handler
// (handlers.go) is the thin JSON layer that maps service errors onto status
// codes; Server (server.go) binds a listener and owns graceful shutdown.
//
// # Determinism contract
//
// Every discovery result served over HTTP is core.DIMEPlus on a snapshot of
// the corpus group, under the corpus profile's Config and Rules. Because
// DIME+ depends only on (group, config, rules), a result fetched over the
// API is exactly — partitions, pivot, levels, witnesses and Stats — what an
// in-process Discover/DiscoverAll call on the same entities produces. The
// served replay in internal/difftest (DiffServe) enforces this byte-identity
// over the seeded 210-group corpus, one corpus per case, in the root's
// fault-free and chaos suites.
//
// Ingestion is incremental: each accepted entity folds into the corpus
// Session, so GET partitions stays cheap while entities stream in. A
// discovery job on a corpus that grew since its latest completed discovery
// reruns the full pipeline for reproducible results (a Session's work
// counters depend on arrival order, which would leak ingestion history into
// the served Stats); a job on an unchanged corpus returns that latest
// result, which is the same answer.
//
// # Workflow
//
// Discovery is an asynchronous discover → status → result workflow:
//
//	POST /v1/corpora/{id}/discover        → 202 {"job": "job-1"}
//	GET  /v1/corpora/{id}/status/{job}    → {"state": "queued|running|done|failed"}
//	GET  /v1/corpora/{id}/results/{job}   → the full result, once done
//
// Jobs are executed by a fixed worker pool with a bounded queue: a full
// queue rejects the discover request with 429 (backpressure, not buffering),
// and shutdown drains queued and running jobs before the listener closes
// while new mutations get 503.
package serve

import (
	"fmt"
	"sort"
	"sync"

	"dime/internal/datagen"
	"dime/internal/presets"
	"dime/internal/rules"
)

// Profile bundles the record configuration and rule set a corpus discovers
// under. Profiles are registered programmatically (configs carry ontology
// trees and node-mapper functions, which do not serialize); HTTP clients
// select one by name at corpus creation.
type Profile struct {
	// Config compiles entities into records; its Schema defines the corpus
	// relation.
	Config *rules.Config
	// Rules holds the positive and negative rules.
	Rules rules.RuleSet
}

// validate checks a profile is usable for discovery.
func (p Profile) validate() error {
	if p.Config == nil || p.Config.Schema == nil {
		return fmt.Errorf("profile needs a config with a schema")
	}
	if len(p.Rules.Positive) == 0 || len(p.Rules.Negative) == 0 {
		return fmt.Errorf("profile needs at least one positive and one negative rule")
	}
	return nil
}

// BuiltinProfiles returns the three paper presets keyed by name: "scholar",
// "amazon" (corpus-independent true description tree, as cmd/dime's preset
// resolution uses) and "dbgen".
func BuiltinProfiles() map[string]Profile {
	scholar := presets.ScholarConfig()
	dbgen := presets.DBGenConfig()
	amazonCorpus := datagen.Amazon(datagen.AmazonOptions{ProductsPerCategory: 1, Seed: 1})
	amazon := presets.AmazonConfig(amazonCorpus.TrueTree, amazonCorpus.TrueMapper())
	return map[string]Profile{
		"scholar": {Config: scholar, Rules: presets.ScholarRules(scholar)},
		"amazon":  {Config: amazon, Rules: presets.AmazonRules(amazon)},
		"dbgen":   {Config: dbgen, Rules: presets.DBGenRules(dbgen)},
	}
}

// profileSet is the Service's named-profile registry.
type profileSet struct {
	mu sync.RWMutex
	m  map[string]Profile
}

func newProfileSet(seed map[string]Profile) *profileSet {
	ps := &profileSet{m: make(map[string]Profile, len(seed))}
	for name, p := range seed {
		ps.m[name] = p
	}
	return ps
}

func (ps *profileSet) get(name string) (Profile, bool) {
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	p, ok := ps.m[name]
	return p, ok
}

func (ps *profileSet) register(name string, p Profile) error {
	if name == "" {
		return fmt.Errorf("serve: profile name must not be empty")
	}
	if err := p.validate(); err != nil {
		return fmt.Errorf("serve: profile %q: %w", name, err)
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if _, dup := ps.m[name]; dup {
		return fmt.Errorf("serve: profile %q already registered", name)
	}
	ps.m[name] = p
	return nil
}

func (ps *profileSet) names() []string {
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	out := make([]string, 0, len(ps.m))
	for name := range ps.m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
