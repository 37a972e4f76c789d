package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"

	"dime/internal/core"
	"dime/internal/entity"
	"dime/internal/serve"
)

// tamper, when set, rewrites every result the benchmark checks before it is
// compared with the reference. Tests use it to prove that a wrong answer
// fails the run.
var tamper func(*serve.ResultJSON)

// digest hashes the part of a result the determinism contract covers:
// partitions, pivot, levels, witnesses and stats. The corpus and job names
// are left out, so a served result and a library result compare directly.
func digest(r *serve.ResultJSON) [32]byte {
	c := *r
	c.Corpus, c.Job = "", ""
	data, err := json.Marshal(&c)
	if err != nil {
		// A ResultJSON always marshals; hash the error so the check fails
		// loudly rather than comparing equal.
		data = []byte(err.Error())
	}
	return sha256.Sum256(data)
}

// referenceDigest runs the reference, sequential DIME+ (IntraWorkers 1),
// on g and returns the result and its digest. Sequential DIME+ is the path
// the differential harness pins every worker count, the HTTP API and the
// chaos replays to, byte for byte.
func referenceDigest(g *entity.Group, p serve.Profile) (*core.Result, [32]byte, error) {
	ref, err := core.DIMEPlus(g, core.Options{Config: p.Config, Rules: p.Rules, IntraWorkers: 1})
	if err != nil {
		return nil, [32]byte{}, fmt.Errorf("reference for %s: %w", g.Name, err)
	}
	return ref, digest(serve.ResultFromCore("", "", ref)), nil
}

// oracle collects wrong answers. It is safe for concurrent use.
type oracle struct {
	mu     sync.Mutex
	wrong  int64
	sample []string
}

// fail records one wrong answer; the first few are kept for the report.
func (o *oracle) fail(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.wrong++
	if len(o.sample) < 5 {
		o.sample = append(o.sample, fmt.Sprintf(format, args...))
	}
}

// result checks a fetched result against the reference digest.
func (o *oracle) result(what string, got *serve.ResultJSON, want [32]byte) bool {
	if tamper != nil {
		tamper(got)
	}
	if digest(got) != want {
		o.fail("%s: result differs from the sequential DIME+ reference", what)
		return false
	}
	return true
}

// partitionsCover reports whether parts is a partition of 0..n-1 for some
// n, returning n: the structural check for answers computed from a corpus
// state the benchmark cannot pin exactly (mid-stream ingestion).
func partitionsCover(parts [][]int) (int, bool) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	seen := make([]bool, n)
	for _, p := range parts {
		for _, ei := range p {
			if ei < 0 || ei >= n || seen[ei] {
				return n, false
			}
			seen[ei] = true
		}
	}
	return n, true
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalPartitions(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !equalInts(a[i], b[i]) {
			return false
		}
	}
	return true
}
