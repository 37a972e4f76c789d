// Package dime discovers mis-categorized entities in groups of entities
// that an upstream process categorized together — publications on a Google
// Scholar profile, products in a store category, records in a deduplicated
// cluster. It implements the rule-based framework of
//
//	Hao, Tang, Li, Feng — "Discovering Mis-Categorized Entities", ICDE 2018
//
// including the basic algorithm DIME, the signature-accelerated DIME+, the
// positive/negative rule language with set-, character- and ontology-based
// similarity predicates, rule generation from examples, and the baselines
// and experiment harness of the paper's evaluation.
//
// # Quick start
//
//	schema := dime.MustSchema("Title", "Authors", "Venue")
//	cfg := dime.NewConfig(schema).
//		WithTokenMode("Title", dime.WordsMode).
//		WithTree("Venue", dime.VenueTree())
//	rs := dime.RuleSet{
//		Positive: []dime.Rule{
//			dime.MustParseRule(cfg, "p1", dime.Positive, "ov(Authors) >= 2"),
//			dime.MustParseRule(cfg, "p2", dime.Positive, "ov(Authors) >= 1 && on(Venue) >= 0.75"),
//		},
//		Negative: []dime.Rule{
//			dime.MustParseRule(cfg, "n1", dime.Negative, "ov(Authors) = 0"),
//			dime.MustParseRule(cfg, "n2", dime.Negative, "ov(Authors) <= 1 && on(Venue) <= 0.25"),
//		},
//	}
//	group := dime.NewGroup("my page", schema)
//	// ... group.Add(entities) ...
//	res, err := dime.Discover(group, dime.Options{Config: cfg, Rules: rs})
//	// res.MisCategorizedIDs(0)  — conservative scrollbar level (φ−1 only)
//	// res.Final()               — every negative rule applied
//
// The rule DSL accepts ov (overlap count), jac (Jaccard), dice, cos
// (cosine), eds (normalized edit similarity), ed (edit distance) and on
// (ontology similarity); see ParseRule.
package dime

import (
	"io"

	"dime/internal/analysis"
	"dime/internal/core"
	"dime/internal/entity"
	"dime/internal/obs"
	"dime/internal/ontology"
	"dime/internal/rulegen"
	"dime/internal/rules"
)

// Re-exported data model.
type (
	// Schema is the multi-valued relation entities are defined over.
	Schema = entity.Schema
	// Entity is one record: a list of values per attribute.
	Entity = entity.Entity
	// Group is a set of entities categorized together, with optional ground
	// truth for evaluation.
	Group = entity.Group
)

// NewSchema builds a schema over attribute names.
func NewSchema(attributes ...string) (*Schema, error) { return entity.NewSchema(attributes...) }

// MustSchema is NewSchema that panics on error.
func MustSchema(attributes ...string) *Schema { return entity.MustSchema(attributes...) }

// NewEntity creates an entity over a schema; values must have one list per
// attribute.
func NewEntity(schema *Schema, id string, values [][]string) (*Entity, error) {
	return entity.NewEntity(schema, id, values)
}

// NewGroup creates an empty group over a schema.
func NewGroup(name string, schema *Schema) *Group { return entity.NewGroup(name, schema) }

// Re-exported rule machinery.
type (
	// Config describes how entities compile into records: per-attribute
	// token modes, ontology trees, and node mappers.
	Config = rules.Config
	// Rule is a named conjunction of similarity predicates.
	Rule = rules.Rule
	// RuleSet bundles positive rules (a disjunction) and negative rules
	// (applied in sequence).
	RuleSet = rules.RuleSet
	// Predicate is a single f(A) op θ term.
	Predicate = rules.Predicate
	// TokenMode selects element- or word-level tokenization.
	TokenMode = rules.TokenMode
	// NodeMapper maps attribute values to ontology nodes.
	NodeMapper = rules.NodeMapper
)

// Rule kinds and token modes.
const (
	// Positive marks rules whose match means "same category".
	Positive = rules.Positive
	// Negative marks rules whose match means "different categories".
	Negative = rules.Negative
	// Elements tokenizes each list element as one token.
	Elements = rules.Elements
	// WordsMode splits values into lower-cased word tokens.
	WordsMode = rules.WordsMode
)

// NewConfig returns a Config over the schema with default settings.
func NewConfig(schema *Schema) *Config { return rules.NewConfig(schema) }

// ParseRule parses the rule DSL, e.g. "ov(Authors) >= 1 && on(Venue) >= 0.75".
func ParseRule(cfg *Config, name string, kind rules.Kind, dsl string) (Rule, error) {
	return rules.Parse(cfg, name, kind, dsl)
}

// MustParseRule is ParseRule that panics on error.
func MustParseRule(cfg *Config, name string, kind rules.Kind, dsl string) Rule {
	return rules.MustParse(cfg, name, kind, dsl)
}

// Re-exported ontology types.
type (
	// Ontology is a tree whose LCA structure defines semantic similarity.
	Ontology = ontology.Tree
	// OntologyNode is one tree node.
	OntologyNode = ontology.Node
)

// NewOntology creates an ontology tree with the given root label.
func NewOntology(rootLabel string) *Ontology { return ontology.NewTree(rootLabel) }

// VenueTree returns the built-in publication-venue ontology modelled after
// Google Scholar Metrics.
func VenueTree() *Ontology { return ontology.VenueTree() }

// LoadOntology parses an ontology tree from its JSON form (nested
// {"label": ..., "children": [...]} objects). Trees also marshal back to the
// same format via encoding/json.
func LoadOntology(data []byte) (*Ontology, error) { return ontology.LoadTree(data) }

// MarshalRuleSet serializes a rule set as hand-editable JSON of DSL strings.
func MarshalRuleSet(rs RuleSet) ([]byte, error) { return rules.MarshalRuleSet(rs) }

// LoadRuleSet parses a rule-set JSON file against a config (which supplies
// the schema and the ontology trees `on` predicates bind to).
func LoadRuleSet(cfg *Config, data []byte) (RuleSet, error) { return rules.LoadRuleSet(cfg, data) }

// Re-exported discovery engine.
type (
	// Options configures a discovery run.
	Options = core.Options
	// Result is the output: partitions, pivot, and the scrollbar levels.
	Result = core.Result
	// Level is one scrollbar position (a negative-rule prefix).
	Level = core.Level
	// Stats counts the work a run performed.
	Stats = core.Stats
	// Witness explains why a partition was marked (rule + entity pair).
	Witness = core.Witness
)

// Discover runs the signature-accelerated algorithm DIME+ on a group and
// returns its partitions, pivot partition, and the monotone scrollbar of
// discovered mis-categorized entities (one level per negative rule). It is
// the recommended entry point. One run is one goroutine; DiscoverAll runs
// many groups in parallel.
func Discover(g *Group, opts Options) (*Result, error) {
	return core.DIMEPlus(g, opts)
}

// DiscoverBasic runs the quadratic reference algorithm DIME (Algorithm 1).
// It computes exactly the same result as Discover and exists for
// cross-checking and benchmarking.
func DiscoverBasic(g *Group, opts Options) (*Result, error) {
	return core.DIME(g, opts)
}

// DiscoverAll runs Discover over many groups concurrently with a bounded
// worker pool (workers ≤ 0 uses GOMAXPROCS), returning one result per group
// in input order. Results are identical to sequential Discover calls.
func DiscoverAll(groups []*Group, opts Options, workers int) ([]*Result, error) {
	return core.DiscoverAll(groups, opts, workers)
}

// BatchStats aggregates a DiscoverAll run: summed per-group work counters
// plus wall time and worker count.
type BatchStats = core.BatchStats

// DiscoverAllStats is DiscoverAll plus the batch aggregate.
func DiscoverAllStats(groups []*Group, opts Options, workers int) ([]*Result, BatchStats, error) {
	return core.DiscoverAllStats(groups, opts, workers)
}

// Re-exported observability layer (see the internal/obs package docs).
type (
	// Probe receives phase spans from discovery runs; set Options.Probe to
	// instrument a run, leave it nil for the no-op fast path.
	Probe = obs.Probe
	// Span is one timed phase with counters.
	Span = obs.Span
	// DebugServer is the HTTP server ServeDebug starts.
	DebugServer = obs.DebugServer
	// FlightRecorder is the recording probe: a fixed-size ring of recent
	// span traces with tail-based latency retention, dumped at
	// /debug/flight, by `dime -trace` and by FlightRecorder.WriteJSON.
	FlightRecorder = obs.FlightRecorder
	// FlightOptions configures a FlightRecorder.
	FlightOptions = obs.FlightOptions
	// FlightTrace is one retained run in a flight dump.
	FlightTrace = obs.FlightTrace
	// FlightEvent is one span of a retained trace.
	FlightEvent = obs.FlightEvent
)

// MultiProbe fans spans out to several probes at once; nil entries are
// dropped, and with no live probes it returns nil (uninstrumented).
func MultiProbe(probes ...Probe) Probe { return obs.Multi(probes...) }

// NewFlightRecorder builds a flight recorder; pass it as Options.Probe
// (possibly via MultiProbe) to keep the most recent slow runs inspectable,
// and call FlightRecorder.WriteJSON (or Export) once the runs finish. The
// zero FlightOptions keep at most the newest 256 runs; to keep every run,
// set Shards to 1 and Capacity to at least the number of runs (several
// shards split the capacity and fill unevenly).
func NewFlightRecorder(opts FlightOptions) *FlightRecorder { return obs.NewFlightRecorder(opts) }

// ServeDebug starts an HTTP server on addr exposing /debug/pprof/,
// /debug/flight (the process-wide flight recorder) and /metrics (Prometheus
// text exposition of the process-wide metrics registry). Close the returned
// server when done.
func ServeDebug(addr string) (*DebugServer, error) { return obs.ServeDebug(addr, nil, nil) }

// Session maintains discovery state incrementally as a group grows (new
// publications landing on a profile, new products entering a category):
// each Add folds one entity into the partitioning, and Result runs the
// pivot/negative phases on demand. Results match from-scratch Discover runs
// exactly.
type Session = core.Session

// NewSession runs the initial partitioning and returns a session ready for
// Session.Add calls.
func NewSession(g *Group, opts Options) (*Session, error) {
	return core.NewSession(g, opts)
}

// ReadGroupCSV loads a group from CSV: the header names the attributes, the
// first column (or idColumn) holds entity IDs, cells split into multiple
// values on multiSep, and an optional "mis_categorized" column carries
// ground truth.
func ReadGroupCSV(r io.Reader, name, idColumn, multiSep string) (*Group, error) {
	return entity.ReadGroupCSV(r, name, idColumn, multiSep)
}

// WriteGroups writes groups as a JSON-lines corpus.
func WriteGroups(w io.Writer, groups []*Group) error { return entity.WriteGroups(w, groups) }

// ReadGroups reads a JSON-lines corpus (or one plain JSON group).
func ReadGroups(r io.Reader) ([]*Group, error) { return entity.ReadGroups(r) }

// AttributeProfile summarizes one attribute of a group: coverage, token
// shape, distinctness, suggested token mode, and (when ground truth is
// present) separability — how well the attribute's similarity distinguishes
// correct pairs from mis-categorized ones.
type AttributeProfile = analysis.AttributeProfile

// Profile computes per-attribute statistics for a group — the starting
// point for writing (or generating) rules on a new domain.
func Profile(g *Group) ([]AttributeProfile, error) {
	return analysis.Profile(g, analysis.Options{})
}

// RankBySeparability orders attribute profiles most-discriminative first.
func RankBySeparability(profiles []AttributeProfile) []AttributeProfile {
	return analysis.RankBySeparability(profiles)
}

// Example is a labelled entity pair for rule generation: Same means the two
// entities belong in one category.
type Example struct {
	A, B *Entity
	Same bool
}

// GenerateRules learns a rule set from labelled example pairs with the
// paper's greedy algorithm (Section V): candidate predicates are enumerated
// at example-induced thresholds (Theorem 3), rules grow predicate by
// predicate, and the set grows rule by rule while the objective improves.
func GenerateRules(cfg *Config, examples []Example) (RuleSet, error) {
	exs := make([]rulegen.Example, 0, len(examples))
	for _, ex := range examples {
		ra, err := cfg.NewRecord(ex.A)
		if err != nil {
			return RuleSet{}, err
		}
		rb, err := cfg.NewRecord(ex.B)
		if err != nil {
			return RuleSet{}, err
		}
		exs = append(exs, rulegen.Example{A: ra, B: rb, Same: ex.Same})
	}
	return rulegen.Generate(rulegen.Options{Config: cfg}, exs)
}
