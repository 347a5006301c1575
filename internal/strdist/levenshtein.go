// Package strdist provides string edit distance (Levenshtein [21]) and the
// tag-path simplification THOR uses when comparing subtree paths
// (Section 3.2.1): each tag name is mapped to a fixed-length identifier so
// that long tag names do not perversely dominate the distance.
package strdist

// Levenshtein returns the edit distance between a and b: the minimum number
// of single-character insertions, deletions, and substitutions that
// transform one into the other. It operates on bytes, which is exact for
// the ASCII identifiers produced by Simplify.
func Levenshtein(a, b string) int {
	if a == b {
		return 0
	}
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	// Keep the inner loop over the shorter string.
	if len(b) > len(a) {
		a, b = b, a
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		ca := a[i-1]
		for j := 1; j <= len(b); j++ {
			cost := 1
			if ca == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// Normalized returns the edit distance between a and b divided by the
// length of the longer string, yielding a value in [0,1]. Two empty strings
// have distance 0.
func Normalized(a, b string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	d := Levenshtein(a, b)
	m := len(a)
	if len(b) > m {
		m = len(b)
	}
	return float64(d) / float64(m)
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
