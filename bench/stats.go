package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a tail percentile before it
// is reported: with fewer, the value is one or two unlucky samples.
const minBeyond = 10

// tailLadder lists the tail percentiles tried, highest first, when the
// requested one has too few samples beyond it.
var tailLadder = []float64{99, 95, 90, 75}

// msOf converts a duration to float milliseconds.
func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = msOf(d)
	}
	return out
}

// rankOf is the 0-based nearest-rank index of percentile p in n samples.
func rankOf(p float64, n int) int {
	r := int(math.Ceil(p/100*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	if r >= n {
		r = n - 1
	}
	return r
}

// supported reports whether at least minBeyond of n samples lie beyond the
// nearest-rank percentile p.
func supported(p float64, n int) bool {
	return n > 0 && n-1-rankOf(p, n) >= minBeyond
}

// median returns the nearest-rank median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[rankOf(50, len(s))]
}

// tail returns the highest percentile no higher than want that has at least
// minBeyond samples beyond it, with a label naming the percentile and the
// sample count. When even the lowest ladder step is unsupported it falls
// back to the median and says so.
func tail(xs []float64, want float64) (float64, string) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, "no samples"
	}
	for _, p := range tailLadder {
		if p > want || !supported(p, n) {
			continue
		}
		label := fmt.Sprintf("p%g of %d", p, n)
		if p < want {
			label += fmt.Sprintf(", p%g unsupported", want)
		}
		return s[rankOf(p, n)], label
	}
	return s[rankOf(50, n)], fmt.Sprintf("p50 of %d, p%g unsupported", n, want)
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), which is how run-to-run spread is judged. It needs at least two
// samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
