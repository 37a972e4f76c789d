package sim

import "unicode/utf8"

// asciiMax is the longest input EditDistanceBounded handles on its
// allocation-free path: when both strings are ASCII and at most this many
// bytes, the DP indexes bytes and keeps its symbols and rows in stack arrays.
const asciiMax = 64

// EditDistance returns the Levenshtein distance between a and b, computed
// over runes with the classic two-row dynamic program in O(|a|·|b|) time and
// O(min(|a|,|b|)) space. Inputs are compared by their rune decoding, so
// invalid UTF-8 sequences collapse to U+FFFD before comparison (distinct
// invalid byte sequences are therefore equal).
func EditDistance(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) > len(rb) {
		ra, rb = rb, ra
	}
	if len(ra) == 0 {
		return len(rb)
	}
	prev := make([]int, len(ra)+1)
	cur := make([]int, len(ra)+1)
	for i := range prev {
		prev[i] = i
	}
	for j := 1; j <= len(rb); j++ {
		cur[0] = j
		for i := 1; i <= len(ra); i++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[i] = min3(prev[i]+1, cur[i-1]+1, prev[i-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(ra)]
}

// EditWithin reports whether EditDistance(a, b) ≤ θ, using the banded dynamic
// program that the paper's cost model describes: O(θ·min(|a|,|b|)) time. It
// is the verification routine for character-based predicates. θ < 0 always
// reports false.
func EditWithin(a, b string, theta int) bool {
	d, ok := EditDistanceBounded(a, b, theta)
	return ok && d <= theta
}

// EditDistanceBounded computes the edit distance if it is ≤ bound, returning
// (distance, true); otherwise it returns (bound+1, false), or (0, false) for
// a negative bound. The band around the diagonal has width 2·bound+1. Like
// EditDistance it compares rune decodings; ASCII inputs of up to 64 bytes
// take a byte-indexed path that does not allocate.
func EditDistanceBounded(a, b string, bound int) (int, bool) {
	if bound < 0 {
		return 0, false
	}
	if d, ok, done := editBoundedASCII(a, b, bound); done {
		return d, ok
	}
	ra, rb := []rune(a), []rune(b)
	return banded(ra, rb, bound, make([]int, 2*(min(len(ra), len(rb))+1)))
}

// editBoundedASCII is EditDistanceBounded's allocation-free path. done is
// false, and nothing is computed, unless both inputs are ASCII and at most
// asciiMax bytes long; for ASCII the bytes are the rune decoding.
func editBoundedASCII(a, b string, bound int) (d int, ok, done bool) {
	if len(a) > asciiMax || len(b) > asciiMax || !isASCII(a) || !isASCII(b) {
		return 0, false, false
	}
	var sa, sb [asciiMax]byte
	var rows [2 * (asciiMax + 1)]int
	d, ok = banded(sa[:copy(sa[:], a)], sb[:copy(sb[:], b)], bound, rows[:])
	return d, ok, true
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// banded is the banded DP behind EditDistanceBounded over two symbol
// sequences and a bound ≥ 0. rows is scratch for the two DP rows and must
// hold at least 2·(min(|a|,|b|)+1) ints.
func banded[S byte | rune](ra, rb []S, bound int, rows []int) (int, bool) {
	if len(ra) > len(rb) {
		ra, rb = rb, ra
	}
	if len(rb)-len(ra) > bound {
		return bound + 1, false
	}
	if len(ra) == 0 {
		return len(rb), true
	}
	const inf = int(^uint(0) >> 2)
	n := len(ra)
	prev, cur := rows[:n+1], rows[n+1:2*(n+1)]
	for i := 0; i <= n; i++ {
		if i <= bound {
			prev[i] = i
		} else {
			prev[i] = inf
		}
	}
	for j := 1; j <= len(rb); j++ {
		lo := j - bound
		if lo < 1 {
			lo = 1
		}
		hi := j + bound
		if hi > n {
			hi = n
		}
		if lo > hi {
			return bound + 1, false
		}
		if lo == 1 {
			if j <= bound {
				cur[0] = j
			} else {
				cur[0] = inf
			}
		}
		if lo > 1 {
			cur[lo-1] = inf
		}
		rowMin := inf
		for i := lo; i <= hi; i++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			up := inf
			if i <= j+bound-1 { // prev[i] inside band of row j-1
				up = prev[i]
			}
			diag := prev[i-1]
			left := cur[i-1]
			v := diag + cost
			if up+1 < v {
				v = up + 1
			}
			if left+1 < v {
				v = left + 1
			}
			cur[i] = v
			if v < rowMin {
				rowMin = v
			}
		}
		if hi < n {
			cur[hi+1] = inf
		}
		if rowMin > bound {
			return bound + 1, false
		}
		prev, cur = cur, prev
	}
	if prev[n] > bound {
		return bound + 1, false
	}
	return prev[n], true
}

// EditSimilarity returns the normalized edit similarity
// 1 − ED(a, b) / max(|a|, |b|), a value in [0, 1]. Two empty strings have
// similarity 1.
func EditSimilarity(a, b string) float64 {
	m := max(utf8.RuneCountInString(a), utf8.RuneCountInString(b))
	if m == 0 {
		return 1
	}
	return 1 - float64(EditDistance(a, b))/float64(m)
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
