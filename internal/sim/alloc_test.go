package sim

import (
	"math/rand"
	"testing"
)

// TestDistinctKernelsMatch checks the duplicate-free kernels against the
// general ones on deduplicated inputs of every size class: both lists short
// (the membership scan) and one list past the scan sizes (Overlap's map).
func TestDistinctKernelsMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vocab := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l",
		"m", "n", "o", "p", "q", "r", "s", "t", "u", "v", "w", "x", "y", "z",
		"aa", "bb", "cc", "dd", "ee", "ff", "gg", "hh", "ii", "jj", "kk", "ll"}
	distinct := func(n int) []string {
		perm := rng.Perm(len(vocab))
		out := make([]string, 0, n)
		for _, i := range perm[:n] {
			out = append(out, vocab[i])
		}
		return out
	}
	for trial := 0; trial < 2000; trial++ {
		a, b := distinct(rng.Intn(len(vocab)+1)), distinct(rng.Intn(20))
		if got, want := OverlapDistinct(a, b), Overlap(a, b); got != want {
			t.Fatalf("OverlapDistinct(%v, %v) = %d, Overlap = %d", a, b, got, want)
		}
		for _, k := range []struct {
			name            string
			distinct, plain func(a, b []string) float64
		}{
			{"Jaccard", JaccardDistinct, Jaccard},
			{"Dice", DiceDistinct, Dice},
			{"Cosine", CosineDistinct, Cosine},
		} {
			// Both kernels run the same float expression: bit-identical.
			if got, want := k.distinct(a, b), k.plain(a, b); got != want {
				t.Fatalf("%sDistinct(%v, %v) = %g, %s = %g", k.name, a, b, got, k.name, want)
			}
		}
	}
}

// TestVerificationKernelsAllocationFree pins the allocation-free entry points
// that rule verification runs on.
func TestVerificationKernelsAllocationFree(t *testing.T) {
	a := []string{"nan tang", "xu chu", "ihab f. ilyas", "paolo papotti"}
	b := []string{"xu chu", "nan tang", "mourad ouzzani"}
	title := "NADEEF: A Commodity Data Cleaning System, SIGMOD 2013" // ASCII, 52 bytes
	other := "NADEEF: a commodity data cleaning system (SIGMOD'13)"
	for name, fn := range map[string]func(){
		"OverlapDistinct":     func() { OverlapDistinct(a, b) },
		"JaccardDistinct":     func() { JaccardDistinct(a, b) },
		"DiceDistinct":        func() { DiceDistinct(a, b) },
		"CosineDistinct":      func() { CosineDistinct(a, b) },
		"EditDistanceBounded": func() { EditDistanceBounded(title, other, 12) },
		"EditWithin":          func() { EditWithin(title, other, 64) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", name, n)
		}
	}
}
