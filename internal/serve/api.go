package serve

import (
	"fmt"
	"strconv"

	"dime/internal/core"
	"dime/internal/entity"
)

// Wire types of the v1 JSON API. Result encoding is lossless with respect to
// the fields the determinism contract covers — partitions, pivot, levels,
// witnesses and stats round-trip exactly (ResultFromCore then ResultJSON.Core
// reproduces the core.Result field for field, nil-ness of slices included),
// which the HTTP-backed differential runner relies on.

// ErrorJSON is the body of every non-2xx response.
type ErrorJSON struct {
	// Error is a human-readable description of what was wrong.
	Error string `json:"error"`
}

// CreateCorpusRequest creates a corpus.
type CreateCorpusRequest struct {
	// ID is the corpus identifier used in every later request path.
	ID string `json:"id"`
	// Profile names the registered rule profile the corpus discovers under.
	Profile string `json:"profile"`
	// Name optionally names the underlying group (defaults to ID). Group
	// names appear in results and flight traces.
	Name string `json:"name,omitempty"`
}

// CorpusJSON describes one corpus.
type CorpusJSON struct {
	ID      string `json:"id"`
	Name    string `json:"name"`
	Profile string `json:"profile"`
	// Entities is the current entity count.
	Entities int `json:"entities"`
	// Partitions is the current partition count of the incremental session.
	Partitions int `json:"partitions"`
	// Jobs is the number of discovery jobs ever created on this corpus.
	Jobs int `json:"jobs"`
}

// CorporaJSON lists corpora and the registered profile names.
type CorporaJSON struct {
	Corpora  []CorpusJSON `json:"corpora"`
	Profiles []string     `json:"profiles"`
}

// EntityJSON is one entity on the wire: one value list per schema attribute.
type EntityJSON struct {
	ID     string     `json:"id"`
	Values [][]string `json:"values"`
}

// IngestRequest appends entities to a corpus, in order.
type IngestRequest struct {
	Entities []EntityJSON `json:"entities"`
}

// IngestResponse reports an ingest. Ingestion is per-entity: on a mid-batch
// error the earlier entities stay added and Added reports how many.
type IngestResponse struct {
	// Added is the number of entities appended by this request.
	Added int `json:"added"`
	// Size is the corpus entity count after the request.
	Size int `json:"size"`
	// Rebuilds counts additions that forced a full session rebuild (an
	// ontology node undercut the frozen signature depth floors).
	Rebuilds int `json:"rebuilds"`
}

// DiscoverRequest triggers an asynchronous discovery job. It has no fields:
// the body may be empty or {}, and a body that names any field is answered
// 400.
type DiscoverRequest struct{}

// JobJSON is the status of a discovery job.
type JobJSON struct {
	// Job is the job identifier ("job-1", "job-2", ... per corpus).
	Job string `json:"job"`
	// Corpus is the owning corpus ID.
	Corpus string `json:"corpus"`
	// State is one of "queued", "running", "done", "failed".
	State string `json:"state"`
	// Error describes the failure when State is "failed".
	Error string `json:"error,omitempty"`
}

// LevelJSON is one scrollbar level.
type LevelJSON struct {
	// Rule names the negative rule added at this level.
	Rule string `json:"rule"`
	// PartitionIndexes lists the partitions marked at this level,
	// cumulatively, ascending.
	PartitionIndexes []int `json:"partition_indexes"`
	// EntityIDs lists the discovered entity IDs, cumulatively, sorted.
	EntityIDs []string `json:"entity_ids"`
}

// WitnessJSON explains why a partition was marked.
type WitnessJSON struct {
	// Rule is the negative rule that matched.
	Rule string `json:"rule"`
	// EntityID / PivotID form the witnessing pair; both are empty when the
	// whole partition was proven dissimilar by signatures alone.
	EntityID string `json:"entity_id"`
	PivotID  string `json:"pivot_id"`
}

// ResultJSON is a full discovery result on the wire.
type ResultJSON struct {
	Corpus string `json:"corpus"`
	Job    string `json:"job"`
	// Group is the group name the result was computed over.
	Group string `json:"group"`
	// Partitions holds entity indexes into the corpus at discovery time.
	Partitions [][]int `json:"partitions"`
	// Pivot indexes Partitions (-1 for an empty corpus).
	Pivot int `json:"pivot"`
	// Levels holds the scrollbar, one level per negative rule.
	Levels []LevelJSON `json:"levels"`
	// Witnesses maps marked partition indexes (as decimal strings — JSON
	// object keys) to their evidence.
	Witnesses map[string]WitnessJSON `json:"witnesses,omitempty"`
	// Stats counts the work DIME+ performs on these entities; a job that
	// reused the corpus's latest discovery reports that run's counters.
	Stats core.Stats `json:"stats"`
}

// ScrollbarJSON is one scrollbar level of the latest completed discovery.
type ScrollbarJSON struct {
	Corpus string `json:"corpus"`
	// Job identifies the discovery run the level comes from.
	Job string `json:"job"`
	// Level is the 0-based scrollbar position served.
	Level int `json:"level"`
	// Levels is the total number of levels available.
	Levels int    `json:"levels"`
	Rule   string `json:"rule"`
	// EntityIDs lists the mis-categorized entity IDs at this level.
	EntityIDs []string `json:"entity_ids"`
	// PartitionIndexes lists the marked partitions at this level.
	PartitionIndexes []int `json:"partition_indexes"`
}

// WitnessReportJSON answers "why was partition P marked?".
type WitnessReportJSON struct {
	Corpus    string `json:"corpus"`
	Job       string `json:"job"`
	Partition int    `json:"partition"`
	// Marked reports whether the partition was marked mis-categorized.
	Marked bool `json:"marked"`
	// Witness carries the evidence when Marked.
	Witness *WitnessJSON `json:"witness,omitempty"`
	// EntityIDs lists the partition's members.
	EntityIDs []string `json:"entity_ids"`
}

// PartitionsJSON is the live view of the incremental session.
type PartitionsJSON struct {
	Corpus string `json:"corpus"`
	// Entities is the current entity count.
	Entities int `json:"entities"`
	// Partitions holds the current partitions as entity indexes.
	Partitions [][]int `json:"partitions"`
}

// ResultFromCore encodes a core result losslessly.
func ResultFromCore(corpusID, jobID string, r *core.Result) *ResultJSON {
	out := &ResultJSON{
		Corpus:     corpusID,
		Job:        jobID,
		Partitions: r.Partitions,
		Pivot:      r.Pivot,
		Stats:      r.Stats,
	}
	if r.Group != nil {
		out.Group = r.Group.Name
	}
	if r.Levels != nil {
		out.Levels = make([]LevelJSON, len(r.Levels))
		for i, lv := range r.Levels {
			out.Levels[i] = LevelJSON{
				Rule:             lv.RuleName,
				PartitionIndexes: lv.PartitionIndexes,
				EntityIDs:        lv.EntityIDs,
			}
		}
	}
	if len(r.Witnesses) > 0 {
		out.Witnesses = make(map[string]WitnessJSON, len(r.Witnesses))
		for pi, w := range r.Witnesses {
			out.Witnesses[strconv.Itoa(pi)] = WitnessJSON{
				Rule: w.Rule, EntityID: w.EntityID, PivotID: w.PivotID,
			}
		}
	}
	return out
}

// Core decodes the wire result back into a core.Result over the given group.
// It inverts ResultFromCore exactly: partitions, pivot, levels, witnesses
// and stats — including the nil-ness of slices and maps — reproduce the
// original, so differential comparisons over the HTTP boundary can demand
// byte-identity.
func (r *ResultJSON) Core(g *entity.Group) (*core.Result, error) {
	out := &core.Result{
		Group:      g,
		Partitions: r.Partitions,
		Pivot:      r.Pivot,
		Stats:      r.Stats,
	}
	if r.Levels != nil {
		out.Levels = make([]core.Level, len(r.Levels))
		for i, lv := range r.Levels {
			out.Levels[i] = core.Level{
				RuleName:         lv.Rule,
				PartitionIndexes: lv.PartitionIndexes,
				EntityIDs:        lv.EntityIDs,
			}
		}
	}
	if len(r.Witnesses) > 0 {
		out.Witnesses = make(map[int]core.Witness, len(r.Witnesses))
		for key, w := range r.Witnesses {
			pi, err := strconv.Atoi(key)
			if err != nil {
				return nil, fmt.Errorf("serve: witness key %q is not a partition index: %w", key, err)
			}
			out.Witnesses[pi] = core.Witness{Rule: w.Rule, EntityID: w.EntityID, PivotID: w.PivotID}
		}
	}
	return out, nil
}
