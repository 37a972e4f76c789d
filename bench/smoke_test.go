package main

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"dime/internal/serve"
)

const specPath = "../BENCHMARK.json"

func lastResult(t *testing.T, out *bytes.Buffer) runResult {
	t.Helper()
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res runResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out.String())
	}
	return res
}

// The metric names and units the benchmark emits are the ones BENCHMARK.json
// declares, and so are its workloads.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	spec, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []specMetric, emitted []metricDef) {
		if len(declared) != len(emitted) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark emits %d", kind, len(declared), len(emitted))
		}
		for i := range declared {
			if i < len(emitted) && (declared[i].Name != emitted[i].name || declared[i].Unit != emitted[i].unit) {
				t.Errorf("%s %d: declared %s [%s], emitted %s [%s]", kind, i, declared[i].Name, declared[i].Unit, emitted[i].name, emitted[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: declared %s, have %s", i, w.Name, workloads[i].name)
		}
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, default window %d s", spec.RunSeconds, defaultSeconds)
	}
}

// Every workload runs for about a second, untraced and traced, answers
// correctly, and emits every metric BENCHMARK.json declares for the mode:
// the end-to-end ones all non-zero.
func TestSmokeEveryWorkloadEmitsDeclaredMetrics(t *testing.T) {
	spec, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			name, trace := w.name, trace
			t.Run(name+"/trace="+trace, func(t *testing.T) {
				t.Parallel()
				var out bytes.Buffer
				if code := run([]string{"-workload", name, "-seconds", "1", "-trace", trace}, &out, io.Discard); code != 0 {
					t.Fatalf("exit %d\n%s", code, out.String())
				}
				res := lastResult(t, &out)
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%t attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				declared := spec.EndToEnd
				if trace == "1" {
					declared = spec.PerLayer
				}
				if len(res.Metrics) != len(declared) {
					t.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(declared))
				}
				for _, m := range declared {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("%s not emitted", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("%s unit %q, declared %q", m.Name, got.Unit, m.Unit)
					case trace == "0" && got.Value <= 0:
						t.Errorf("%s = %g; end-to-end metrics are never 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}

// A wrong answer fails the run: it counts as failed, the result says
// correct=false, and the exit status is non-zero.
func TestInjectedMismatchFailsTheRun(t *testing.T) {
	tamper = func(r *serve.ResultJSON) { r.Stats.NegativeVerified++ }
	defer func() { tamper = nil }()
	var out bytes.Buffer
	if code := run([]string{"-workload", "lib-batch", "-seconds", "0.1"}, &out, io.Discard); code == 0 {
		t.Fatalf("exit 0 despite a tampered result\n%s", out.String())
	}
	res := lastResult(t, &out)
	if res.Correct || res.Failed == 0 {
		t.Errorf("correct=%t failed=%d; want the mismatch counted\n%s", res.Correct, res.Failed, out.String())
	}
}
