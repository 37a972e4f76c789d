// Package sim implements the similarity functions DIME rules are built from:
// set-based (overlap, Jaccard, dice, cosine), character-based (edit distance
// and normalized edit similarity), and hooks for ontology-based similarity
// (implemented in internal/ontology and plugged in through internal/rules).
//
// All functions are pure; the verification-cost models from Section IV-C of
// the paper live next to the functions they describe. The entry points rule
// verification runs on are allocation-free on its common inputs:
//   - OverlapDistinct, JaccardDistinct, DiceDistinct and CosineDistinct, for
//     duplicate-free token lists of up to 16 and 32 tokens (longer lists
//     fall back to Overlap's map);
//   - EditDistanceBounded and EditWithin, for ASCII strings of up to 64 bytes;
//   - Eq, AtLeast and AtMost.
//
// Overlap, Jaccard, Dice and Cosine accept lists with duplicates and allocate
// only past the same sizes; EditDistance and EditSimilarity always decode
// their inputs to runes and allocate.
package sim

import "math"

// Overlap returns |a ∩ b| treating the slices as sets (duplicates in either
// input count once).
func Overlap(a, b []string) int {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	small, large := a, b
	if len(small) > len(large) {
		small, large = large, small
	}
	// Small inputs: direct scans beat map allocation by a wide margin, and
	// attribute token lists are usually short.
	if len(small) <= 16 && len(large) <= 32 {
		n := 0
		for bi, t := range large {
			if indexOf(large[:bi], t) >= 0 {
				continue // duplicate in large: count each common token once
			}
			if indexOf(small, t) >= 0 {
				n++
			}
		}
		return n
	}
	set := make(map[string]struct{}, len(small))
	for _, t := range small {
		set[t] = struct{}{}
	}
	n := 0
	for _, t := range large {
		if _, ok := set[t]; ok {
			n++
			delete(set, t) // count each common token once
		}
	}
	return n
}

// OverlapDistinct returns |a ∩ b| for duplicate-free a and b with one
// membership scan of the shorter list against the longer. It equals Overlap
// on such inputs and allocates nothing while the lists fit Overlap's scan
// sizes; on inputs with duplicates it may overcount.
func OverlapDistinct(a, b []string) int {
	small, large := a, b
	if len(small) > len(large) {
		small, large = large, small
	}
	if len(small) > 16 || len(large) > 32 {
		return Overlap(a, b)
	}
	n := 0
	for _, t := range small {
		if indexOf(large, t) >= 0 {
			n++
		}
	}
	return n
}

// Jaccard returns |a ∩ b| / |a ∪ b| over the token sets. Two empty sets have
// similarity 1; one empty set against a non-empty one has similarity 0.
func Jaccard(a, b []string) float64 {
	return jaccard(Overlap(a, b), dedupCount(a), dedupCount(b))
}

// JaccardDistinct is Jaccard for duplicate-free inputs: OverlapDistinct and
// the list lengths as set sizes.
func JaccardDistinct(a, b []string) float64 {
	return jaccard(OverlapDistinct(a, b), len(a), len(b))
}

func jaccard(ov, da, db int) float64 {
	if da == 0 && db == 0 {
		return 1
	}
	union := da + db - ov
	if union == 0 {
		return 1
	}
	return float64(ov) / float64(union)
}

// Dice returns 2|a ∩ b| / (|a| + |b|) over the token sets.
func Dice(a, b []string) float64 {
	return dice(Overlap(a, b), dedupCount(a), dedupCount(b))
}

// DiceDistinct is Dice for duplicate-free inputs.
func DiceDistinct(a, b []string) float64 {
	return dice(OverlapDistinct(a, b), len(a), len(b))
}

func dice(ov, da, db int) float64 {
	if da+db == 0 {
		return 1
	}
	return 2 * float64(ov) / float64(da+db)
}

// Cosine returns |a ∩ b| / sqrt(|a|·|b|) over the token sets.
func Cosine(a, b []string) float64 {
	return cosine(Overlap(a, b), dedupCount(a), dedupCount(b))
}

// CosineDistinct is Cosine for duplicate-free inputs.
func CosineDistinct(a, b []string) float64 {
	return cosine(OverlapDistinct(a, b), len(a), len(b))
}

func cosine(ov, da, db int) float64 {
	if da == 0 && db == 0 {
		return 1
	}
	if da == 0 || db == 0 {
		return 0
	}
	return float64(ov) / sqrtProduct(da, db)
}

func dedupCount(a []string) int {
	if len(a) < 2 {
		return len(a)
	}
	if len(a) <= 16 {
		n := 0
		for i, t := range a {
			if indexOf(a[:i], t) < 0 {
				n++
			}
		}
		return n
	}
	set := make(map[string]struct{}, len(a))
	for _, t := range a {
		set[t] = struct{}{}
	}
	return len(set)
}

// indexOf returns the position of t in xs or -1.
func indexOf(xs []string, t string) int {
	for i, x := range xs {
		if x == t {
			return i
		}
	}
	return -1
}

func sqrtProduct(a, b int) float64 {
	return math.Sqrt(float64(a) * float64(b))
}
