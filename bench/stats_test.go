package main

import (
	"strings"
	"testing"

	"dime/internal/sim"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// A tail percentile is reported only with at least ten samples beyond it;
// otherwise the next lower step of the ladder is, and the label says so.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n     int
		want  float64
		value float64
		label string
	}{
		{1000, 99, 990, "p99 of 1000"},
		{999, 99, 950, "p95 of 999, p99 unsupported"},
		{101, 90, 91, "p90 of 101"},
		{100, 90, 90, "p90 of 100"},
		{99, 90, 75, "p75 of 99, p90 unsupported"},
		{15, 99, 8, "p50 of 15, p99 unsupported"},
	}
	for _, c := range cases {
		v, label := tail(seq(c.n), c.want)
		if !sim.Eq(v, c.value) || label != c.label {
			t.Errorf("tail(1..%d, p%g) = %g %q, want %g %q", c.n, c.want, v, label, c.value, c.label)
		}
	}
	if v, label := tail(nil, 99); !sim.Eq(v, 0) || !strings.Contains(label, "no samples") {
		t.Errorf("tail(nil) = %g %q", v, label)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), the
// rule the benchmark's spread is judged by.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{seq(4), 1.25, 2.5, 3.75},
		{seq(10), 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{2, 4}, 1.5, 3, 4.5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !sim.Eq(q1, c.q1) || !sim.Eq(q2, c.q2) || !sim.Eq(q3, c.q3) {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}
