package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// runRepeat runs n full sets of the selected workloads, each workload run in
// a child process of its own, set i on seed+i, with the workload order
// reversed on every other set so slow drift of the machine does not line up
// with one workload. For every (workload, end-to-end
// metric) it prints the median, the quartiles and the spread, (Q3−Q1) as a
// share of the median, and flags a spread wider than the metric's bound in
// the spec. setup_s is exempt from the spread rule: only its median is
// held to its bound. It exits 1 when a run failed or a spread is flagged.
// It runs from the repository root, where specPath (BENCHMARK.json) lies.
func runRepeat(selected []workload, seed int64, seconds float64, n int, specPath string, stdout, stderr io.Writer) int {
	spec, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintf(stderr, "dimebench: -repeat needs the benchmark declaration: %v\n", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "dimebench: %v\n", err)
		return 1
	}
	values := map[string]map[string][]float64{}
	code := 0
	for i := 0; i < n; i++ {
		order := append([]workload(nil), selected...)
		if i%2 == 1 {
			for a, b := 0, len(order)-1; a < b; a, b = a+1, b-1 {
				order[a], order[b] = order[b], order[a]
			}
		}
		for _, w := range order {
			s := seed + int64(i)
			res, err := runChild(self, w.name, s, seconds, stderr)
			switch {
			case err != nil:
				fmt.Fprintf(stdout, "set %d %s seed %d: %v\n", i+1, w.name, s, err)
				code = 1
				continue
			case !res.Correct:
				fmt.Fprintf(stdout, "set %d %s seed %d: %d of %d operations failed\n", i+1, w.name, s, res.Failed, res.Attempted)
				code = 1
			default:
				fmt.Fprintf(stdout, "set %d %s seed %d: ok", i+1, w.name, s)
				for _, m := range spec.EndToEnd {
					fmt.Fprintf(stdout, " %s=%.4g", m.Name, res.Metrics[m.Name].Value)
				}
				fmt.Fprintln(stdout)
			}
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for k, v := range res.Metrics {
				values[w.name][k] = append(values[w.name][k], v.Value)
			}
		}
	}
	fmt.Fprintf(stdout, "%-15s %-18s %12s %12s %12s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	for _, w := range selected {
		for _, m := range spec.EndToEnd {
			xs := values[w.name][m.Name]
			if len(xs) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(xs)
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / q2
			}
			flag := ""
			if m.Name != "setup_s" && spread > m.Bound {
				flag = "  WIDE"
				code = 1
			}
			fmt.Fprintf(stdout, "%-15s %-18s %12.4f %12.4f %12.4f %8.4f %6.2f%s\n", w.name, m.Name, q2, q1, q3, spread, m.Bound, flag)
		}
	}
	return code
}

// runChild runs one untraced workload run in a child process and parses
// its last output line.
func runChild(self, name string, seed int64, seconds float64, stderr io.Writer) (runResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil && len(out) == 0 {
		return runResult{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res runResult
	if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil {
		return runResult{}, fmt.Errorf("parsing result: %v (exit: %v)", jerr, err)
	}
	return res, nil
}
