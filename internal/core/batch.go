package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dime/internal/entity"
	"dime/internal/obs"
)

// BatchStats aggregates one DiscoverAll run: the per-group work counters
// summed field-wise plus batch-level wall time and parallelism.
type BatchStats struct {
	// Groups is the number of groups processed.
	Groups int
	// Workers is the worker-goroutine count actually used (after clamping
	// to GOMAXPROCS and the group count).
	Workers int
	// Wall is the end-to-end wall-clock duration of the batch.
	Wall time.Duration
	// GroupLatency summarizes the per-group DIMEPlus wall times (seconds):
	// count, sum, and interpolated p50/p90/p99 from a fixed-bucket
	// histogram, so a batch report shows the latency distribution across
	// groups, not just the aggregate wall.
	GroupLatency obs.LatencySummary
	// Stats sums the per-group Stats.
	Stats Stats
}

// DiscoverAll runs DIMEPlus over many groups concurrently with a bounded
// worker pool and returns one result per group, in input order. Each group
// is processed independently (signature contexts and orderings are
// per-group), so results are identical to sequential runs. workers ≤ 0 uses
// GOMAXPROCS. On error the failure of the lowest-indexed failed group is
// returned and the batch result is discarded.
//
// The pool's goroutines share opts: rules and ontology trees are read-only,
// but a custom rules.NodeMapper must not mutate shared state while records
// compile.
func DiscoverAll(groups []*entity.Group, opts Options, workers int) ([]*Result, error) {
	results, _, err := DiscoverAllStats(groups, opts, workers)
	return results, err
}

// DiscoverAllStats is DiscoverAll plus a BatchStats aggregate. A non-nil
// opts.Probe is shared by all workers — each group still gets its own root
// span — and additionally receives a "batch" run recording group and worker
// counts over the whole batch's duration.
//
// An empty corpus returns an empty (non-nil) result slice and a zero-valued
// BatchStats — Workers stays 0 because no pool is spawned, and Wall stays 0
// because no timing run starts.
func DiscoverAllStats(groups []*entity.Group, opts Options, workers int) ([]*Result, BatchStats, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(groups) {
		workers = len(groups)
	}
	results := make([]*Result, len(groups))
	if len(groups) == 0 {
		return results, BatchStats{}, nil
	}

	start := obs.Now()
	latency := obs.NewHistogram(nil)
	run := obs.Start(opts.Probe, "batch")
	run.Count("groups", int64(len(groups)))
	run.Count("workers", int64(workers))
	var (
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	// Errors land in per-index slots (like results) and are folded in input
	// order below, so the reported error does not depend on goroutine
	// scheduling when several groups fail.
	errs := make([]error, len(groups))
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				if failed.Load() {
					continue // drain remaining jobs after a failure
				}
				groupStart := obs.Now()
				res, err := DIMEPlus(groups[idx], opts)
				latency.Observe(obs.Since(groupStart).Seconds())
				if err != nil {
					failed.Store(true)
					errs[idx] = fmt.Errorf("group %q: %w", groups[idx].Name, err)
					continue
				}
				results[idx] = res
			}
		}()
	}
	for i := range groups {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	run.End()
	if failed.Load() {
		for _, err := range errs {
			if err != nil {
				return nil, BatchStats{}, err
			}
		}
	}
	bs := BatchStats{
		Groups:       len(groups),
		Workers:      workers,
		Wall:         obs.Since(start),
		GroupLatency: latency.Summary(),
	}
	for _, r := range results {
		bs.Stats.Add(r.Stats)
	}
	return results, bs, nil
}
