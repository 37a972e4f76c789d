package obs

import (
	"strings"
	"testing"
)

func TestWritePrometheusFormat(t *testing.T) {
	for _, tc := range []struct {
		name     string
		register func(r *Registry)
		want     string
	}{
		{"every kind", func(r *Registry) {
			r.Counter("dime.positive-verify.verified").Add(27)
			r.Gauge("dime.workers").Set(4)
			h := r.Histogram("dime.phase.candidate-gen.seconds", []float64{0.001, 0.01, 0.1})
			h.Observe(0.0005)
			h.Observe(0.005)
			h.Observe(0.005)
			h.Observe(5)
		}, `# TYPE dime_positive_verify_verified counter
dime_positive_verify_verified 27
# TYPE dime_workers gauge
dime_workers 4
# TYPE dime_phase_candidate_gen_seconds histogram
dime_phase_candidate_gen_seconds_bucket{le="0.001"} 1
dime_phase_candidate_gen_seconds_bucket{le="0.01"} 3
dime_phase_candidate_gen_seconds_bucket{le="0.1"} 3
dime_phase_candidate_gen_seconds_bucket{le="+Inf"} 4
dime_phase_candidate_gen_seconds_sum 5.0105
dime_phase_candidate_gen_seconds_count 4
`},
		{"sorted by name", func(r *Registry) {
			r.Counter("z.count").Add(9)
			r.Counter("a.count").Add(1)
		}, `# TYPE a_count counter
a_count 1
# TYPE z_count counter
z_count 9
`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			tc.register(r)
			var sb strings.Builder
			if err := r.WritePrometheus(&sb); err != nil {
				t.Fatal(err)
			}
			if got := sb.String(); got != tc.want {
				t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, tc.want)
			}
		})
	}
}

func TestPromName(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"dime.phase.candidate-gen.seconds", "dime_phase_candidate_gen_seconds"},
		{"dime.positive-verify.verified/phi-1", "dime_positive_verify_verified_phi_1"},
		{"already_fine:name", "already_fine:name"},
		{"9starts.with.digit", "_9starts_with_digit"},
		{"", "_"},
	} {
		if got := promName(tc.in); got != tc.want {
			t.Errorf("promName(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestWritePrometheusCollisionDisambiguation(t *testing.T) {
	// Three distinct registry names sanitize to the same metric name; the
	// exposition must stay valid (unique names) and deterministic (suffixes
	// assigned in sorted raw-name order).
	r := NewRegistry()
	r.Counter("a.b").Add(1)
	r.Counter("a-b").Add(2)
	r.Counter("a/b").Add(3)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	// Sorted raw names: "a-b" < "a.b" < "a/b".
	want := `# TYPE a_b counter
a_b 2
# TYPE a_b_2 counter
a_b_2 1
# TYPE a_b_3 counter
a_b_3 3
`
	if got := sb.String(); got != want {
		t.Errorf("collision handling mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// Determinism across calls.
	var sb2 strings.Builder
	if err := r.WritePrometheus(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != sb.String() {
		t.Error("repeated expositions diverged")
	}
}

func TestWritePrometheusCrossKindCollision(t *testing.T) {
	// A counter and a gauge colliding after sanitization still get distinct
	// metric names (one claim table across kinds).
	r := NewRegistry()
	r.Counter("x.y").Add(1)
	r.Gauge("x-y").Set(9)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "# TYPE x_y counter\nx_y 1\n") ||
		!strings.Contains(out, "# TYPE x_y_2 gauge\nx_y_2 9\n") {
		t.Errorf("cross-kind collision mishandled:\n%s", out)
	}
}

func TestWritePrometheusEmptyRegistry(t *testing.T) {
	var sb strings.Builder
	if err := NewRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "" {
		t.Errorf("empty registry exposition = %q", sb.String())
	}
}
