package sim

import "testing"

// FuzzEditDistance cross-checks the three edit-distance entry points against
// each other and against the Levenshtein metric axioms. The banded verifier
// (EditDistanceBounded) reimplements the DP with early exits and band
// bookkeeping, so agreement with the plain two-row DP is the property most
// worth fuzzing; its allocation-free ASCII path must in turn agree with the
// rune DP it shortcuts.
func FuzzEditDistance(f *testing.F) {
	f.Add("", "", 0)
	f.Add("kitten", "sitting", 3)
	f.Add("VLDB", "Very Large Data Bases", 5)
	f.Add("sigmod", "sigmod", 1)
	f.Add("a", "abcdefgh", 2)
	f.Add("héllo", "hello", 1) // multi-byte runes
	f.Add("日本語", "日本", 1)
	f.Add("ICDE 2018", "ICDE2018", 0)
	f.Add("Proceedings of the VLDB Endowment, Volume 11, Issue 4, 2017-2018",
		"Proceedings of the VLDB Endowment Volume 11 Issue 4 2017-2018", 5) // 64 bytes
	f.Add("Proceedings of the VLDB Endowment, Volume 11, Issue 4, 2017-2018!",
		"Proceedings of the VLDB Endowment, Volume 11, Issue 4, 2017-2018", 1) // 65 bytes
	f.Fuzz(func(t *testing.T, a, b string, bound int) {
		const maxLen = 256
		if len(a) > maxLen || len(b) > maxLen {
			return // keep the O(|a|·|b|) DP cheap
		}
		bound %= 16
		if bound < 0 {
			bound = -bound
		}

		d := EditDistance(a, b)
		la, lb := len([]rune(a)), len([]rune(b))
		longest, diff := la, la-lb
		if lb > longest {
			longest = lb
		}
		if diff < 0 {
			diff = -diff
		}

		// Metric axioms.
		if d < diff || d > longest {
			t.Fatalf("EditDistance(%q, %q) = %d outside [%d, %d]", a, b, d, diff, longest)
		}
		// Identity is over the rune decoding: invalid UTF-8 collapses to
		// U+FFFD, so compare the decoded forms, not the raw bytes.
		if (d == 0) != (string([]rune(a)) == string([]rune(b))) {
			t.Fatalf("EditDistance(%q, %q) = %d; zero iff rune-equal violated", a, b, d)
		}
		if rev := EditDistance(b, a); rev != d {
			t.Fatalf("EditDistance not symmetric: %d vs %d for %q, %q", d, rev, a, b)
		}

		// The banded verifier must agree with the exact DP on both sides of
		// the bound.
		bd, ok := EditDistanceBounded(a, b, bound)
		if ok {
			if bd != d {
				t.Fatalf("EditDistanceBounded(%q, %q, %d) = %d, exact DP says %d", a, b, bound, bd, d)
			}
			if d > bound {
				t.Fatalf("EditDistanceBounded(%q, %q, %d) reported ok but distance is %d", a, b, bound, d)
			}
		} else {
			if d <= bound {
				t.Fatalf("EditDistanceBounded(%q, %q, %d) gave up but distance is %d", a, b, bound, d)
			}
			if bd != bound+1 {
				t.Fatalf("EditDistanceBounded(%q, %q, %d) = %d on failure, want bound+1", a, b, bound, bd)
			}
		}
		if fd, fok, done := editBoundedASCII(a, b, bound); done {
			ra, rb := []rune(a), []rune(b)
			rows := make([]int, 2*(min(len(ra), len(rb))+1))
			if rd, rok := banded(ra, rb, bound, rows); fd != rd || fok != rok {
				t.Fatalf("ASCII path (%q, %q, %d) = (%d, %v), rune DP = (%d, %v)", a, b, bound, fd, fok, rd, rok)
			}
		}
		if within := EditWithin(a, b, bound); within != (d <= bound) {
			t.Fatalf("EditWithin(%q, %q, %d) = %v, distance is %d", a, b, bound, within, d)
		}

		// Normalized similarity stays in [0, 1] and matches its definition.
		s := EditSimilarity(a, b)
		if !AtLeast(s, 0) || !AtMost(s, 1) {
			t.Fatalf("EditSimilarity(%q, %q) = %g outside [0, 1]", a, b, s)
		}
		if longest > 0 {
			want := 1 - float64(d)/float64(longest)
			if !Eq(s, want) {
				t.Fatalf("EditSimilarity(%q, %q) = %g, want %g", a, b, s, want)
			}
		}
	})
}
