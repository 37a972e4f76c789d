// Command dimebench is the repository's end-to-end and per-layer benchmark
// for DIME+ and the dimed serving layer. It drives four seeded workloads:
// lib-batch calls internal/core directly; serve-discover, serve-ingest and
// serve-read run against an in-process serve.Server on 127.0.0.1:0 built
// with cmd/dimed's defaults, through internal/client, from one process with
// at most GOMAXPROCS generator goroutines and connections. Every answer is
// checked against a sequential DIME+ reference.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload <name|all> --seed N --seconds S --trace 0|1
//	                  [--trace-out spans.json] [--out snapshot.json] [--commit SHA]
//	bash bench/run.sh --repeat N [--workload <name|all>] [--seconds S]
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) runs the same schedule with flight recorders attached and
// reports the per-layer metrics. Either prints a human-readable report and,
// as its last line, one JSON object {correct, attempted, failed, metrics}.
// A wrong answer or a failed operation makes the exit status 1.
//
// --repeat N runs N alternating full sets as child processes, each set on a
// fresh seed, and prints each end-to-end metric's median, quartiles and
// spread per workload, flagging any spread wider than its bound in
// BENCHMARK.json. README.md has the metric table and the workload rationale.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 20

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dimebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "all", "workload to run: all, or one of "+workloadNames())
		seed     = fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds  = fs.Float64("seconds", defaultSeconds, "length of the measured window")
		trace    = fs.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
		traceOut = fs.String("trace-out", "", "with -trace 1, write the window's raw spans to this file (prefixed with the workload name under -workload all)")
		out      = fs.String("out", "", "write a snapshot of the results (with GOMAXPROCS, Go version and -commit) to this file")
		commit   = fs.String("commit", "", "commit recorded in the -out snapshot")
		repeat   = fs.Int("repeat", 0, "run N alternating full sets as child processes and report medians, quartiles and spreads against the bounds in ./BENCHMARK.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "dimebench: usage: -workload <name|all> -seed N -seconds S -trace 0|1")
		return 2
	}
	selected, ok := selectWorkloads(*name)
	if !ok {
		fmt.Fprintf(stderr, "dimebench: unknown workload %q (have all, %s)\n", *name, workloadNames())
		return 2
	}
	if *repeat > 0 {
		return runRepeat(selected, *seed, *seconds, *repeat, "BENCHMARK.json", stdout, stderr)
	}

	snap := snapshot{Commit: *commit, GoVersion: runtime.Version(), GOMAXPROCS: gomaxprocs(),
		Seed: *seed, Seconds: *seconds, Workloads: map[string]snapshotRun{}}
	modes := []bool{*trace == 1}
	if len(selected) > 1 && *trace == 1 {
		// The full sweep reports both: end-to-end, then per-layer.
		modes = []bool{false, true}
	}
	var last runResult
	all := runResult{Correct: true, Metrics: map[string]metricValue{}}
	code := 0
	for _, w := range selected {
		for _, traced := range modes {
			cfg := config{seed: *seed, seconds: *seconds, traced: traced, traceOut: *traceOut}
			if len(selected) > 1 && cfg.traceOut != "" {
				cfg.traceOut = filepath.Join(filepath.Dir(cfg.traceOut), w.name+"."+filepath.Base(cfg.traceOut))
			}
			rep := newReport(w.name, traced)
			if err := w.run(cfg, rep); err != nil {
				fmt.Fprintf(stderr, "dimebench: %s: %v\n", w.name, err)
				return 1
			}
			rep.print(stdout, cfg)
			last = rep.result()
			if !last.Correct {
				code = 1
			}
			all.Correct = all.Correct && last.Correct
			all.Attempted += last.Attempted
			all.Failed += last.Failed
			for k, v := range last.Metrics {
				all.Metrics[w.name+"/"+k] = v
			}
			sr, seen := snap.Workloads[w.name]
			sr.Correct = last.Correct && (!seen || sr.Correct)
			sr.Attempted += last.Attempted
			sr.Failed += last.Failed
			if traced {
				sr.PerLayer = last.Metrics
			} else {
				sr.EndToEnd = last.Metrics
			}
			snap.Workloads[w.name] = sr
			if len(selected) > 1 {
				if err := printJSON(stdout, last); err != nil {
					return 1
				}
			}
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(snap, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "dimebench: writing %s: %v\n", *out, err)
			return 1
		}
	}
	if len(selected) > 1 {
		last = all
	}
	if err := printJSON(stdout, last); err != nil {
		return 1
	}
	return code
}

func selectWorkloads(name string) ([]workload, bool) {
	if name == "all" {
		return workloads, true
	}
	for _, w := range workloads {
		if w.name == name {
			return []workload{w}, true
		}
	}
	return nil, false
}

func printJSON(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}

// snapshot is the -out document, the format of baseline.json.
type snapshot struct {
	Commit     string                 `json:"commit"`
	GoVersion  string                 `json:"go_version"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	Seed       int64                  `json:"seed"`
	Seconds    float64                `json:"seconds"`
	Workloads  map[string]snapshotRun `json:"workloads"`
}

type snapshotRun struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	EndToEnd  map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
