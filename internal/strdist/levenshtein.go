// Package strdist provides string edit distance (Levenshtein [21]) and the
// tag-path simplification THOR uses when comparing subtree paths
// (Section 3.2.1): each tag name is mapped to a fixed-length identifier so
// that long tag names do not perversely dominate the distance.
package strdist

// LevScratch holds the reusable tables of the edit-distance kernel, so a
// caller computing many distances (the phase-two matcher, the pooled
// apply path) allocates nothing per call. The zero value is ready to use;
// the tables grow to the longest pattern seen and stay. A scratch
// belongs to one goroutine at a time.
type LevScratch struct {
	// peq[b][c] has bit i set when byte 64b+i of the pattern is c. It is
	// all zero while no pattern is prepared: Release clears exactly the
	// bits Prepare set.
	peq [][256]uint64
	// pv and mv are the pattern's vertical +1 and −1 delta bits, one
	// word per 64 pattern bytes.
	pv, mv []uint64
	// m is the pattern's length.
	m int
	// pat is the pattern Prepare set, kept so Release knows which bits
	// to clear.
	pat string
}

// Levenshtein returns the edit distance between a and b: the minimum number
// of single-character insertions, deletions, and substitutions that
// transform one into the other. It operates on bytes, which is exact for
// the ASCII identifiers produced by Simplify. It allocates a scratch per
// call; a caller computing many distances reuses one through Distance.
func Levenshtein(a, b string) int {
	var s LevScratch
	return Distance(a, b, &s)
}

// Normalized returns the edit distance between a and b divided by the
// length of the longer string, yielding a value in [0,1]. Two empty strings
// have distance 0.
func Normalized(a, b string) float64 {
	var s LevScratch
	return NormalizedBytes(a, []byte(b), &s)
}

// NormalizedBytes is Normalized with the second operand as a byte slice
// and the kernel's tables in s. The distance is an integer, exact in any
// evaluation order, and the final division is the same two operands in
// the same order, so the result is bit-identical to Normalized(a,
// string(b)).
func NormalizedBytes(a string, b []byte, s *LevScratch) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	d := Distance(a, b, s)
	m := len(a)
	if len(b) > m {
		m = len(b)
	}
	return float64(d) / float64(m)
}

// Distance returns the edit distance between a and b, each a string or a
// byte slice read byte by byte, using s's tables: the shorter operand's
// bits are set as the pattern, the longer one is run against it, and
// the bits are cleared. A caller comparing one string with many prepares
// it once and runs each of the others (Prepare, Run, Release); either
// way the one kernel, run, computes every distance.
func Distance[A, B ~string | ~[]byte](a A, b B, s *LevScratch) int {
	var d int
	if len(a) <= len(b) {
		setPattern(s, a)
		d = run(s, b)
		clearPattern(s, a)
	} else {
		setPattern(s, b)
		d = run(s, a)
		clearPattern(s, b)
	}
	return d
}

// Prepare makes p the pattern of s's following Run calls: its bits are
// set in the per-byte match table, where they stay until Release. A
// prepared scratch must be released before Distance or another Prepare
// uses it.
func (s *LevScratch) Prepare(p string) {
	setPattern(s, p)
	s.pat = p
}

// Run returns the edit distance between the prepared pattern and t.
func (s *LevScratch) Run(t []byte) int { return run(s, t) }

// Release clears the bits Prepare set, leaving the table all zero for
// the next pattern.
func (s *LevScratch) Release() {
	clearPattern(s, s.pat)
	s.pat = ""
}

// NormalizedRun is NormalizedBytes of the prepared pattern and t: Run's
// distance divided by the longer operand's length, 0 when both are
// empty. The distance does not depend on which operand is the pattern,
// so the result is bit-identical to NormalizedBytes in either order.
func (s *LevScratch) NormalizedRun(t []byte) float64 {
	if s.m == 0 && len(t) == 0 {
		return 0
	}
	return float64(run(s, t)) / float64(max(s.m, len(t)))
}

// setPattern sets p's bits in the match table and makes it the pattern
// run reads.
func setPattern[P ~string | ~[]byte](s *LevScratch, p P) {
	m := len(p)
	w := (m + 63) >> 6
	if len(s.peq) < w {
		s.peq = make([][256]uint64, w)
		s.pv = make([]uint64, w)
		s.mv = make([]uint64, w)
	}
	for i := 0; i < m; i++ {
		s.peq[i>>6][p[i]] |= 1 << (i & 63)
	}
	s.m = m
}

// clearPattern clears the bits setPattern(s, p) set.
func clearPattern[P ~string | ~[]byte](s *LevScratch, p P) {
	for i := 0; i < len(p); i++ {
		s.peq[i>>6][p[i]] = 0
	}
	s.m = 0
}

// run returns the edit distance between the pattern whose bits are set
// and the text t: Myers' bit-parallel algorithm (Myers 1999) in Hyyrö's global
// form, blocked over 64-bit words so that operands of any length take
// the same path. Column j of the DP matrix D (D[i][0] = i, D[0][j] = j)
// is held as the bits Pv/Mv of its vertical deltas D[i][j]−D[i−1][j] ∈
// {+1, −1}, zero where neither is set; score tracks D[m][j]. Each text
// byte advances every block from the top in a few word operations,
// passing the horizontal delta of the block's last row down to the next
// block as hp/hm, in place of one DP cell per byte pair. Row 0 rises by
// one per column, so the first block always receives +1. Bits above the
// pattern's end in the last block are never read: carries and shifts
// only move information toward higher bits. Nothing bounds the pattern
// by the text: a pattern longer than the text costs more blocks per
// text byte, not a different answer. Edit distance is an integer, so
// the result is exactly the DP's.
func run[T ~string | ~[]byte](s *LevScratch, t T) int {
	m := s.m
	if m == 0 {
		return len(t)
	}
	w := (m + 63) >> 6
	peq, pv, mv := s.peq[:w], s.pv[:w], s.mv[:w]
	for b := range pv {
		pv[b], mv[b] = ^uint64(0), 0
	}
	lastTop := uint(m-1) & 63 // the pattern's last row within its block
	score := m
	for j := 0; j < len(t); j++ {
		c := t[j]
		hp, hm := uint64(1), uint64(0)
		for b := 0; b < w; b++ {
			top := uint(63)
			if b == w-1 {
				top = lastTop
			}
			eq, v, mvb := peq[b][c], pv[b], mv[b]
			xv := eq | mvb
			eq |= hm
			xh := (((eq & v) + v) ^ v) | eq
			ph := mvb | ^(xh | v)
			mh := v & xh
			hpOut, hmOut := ph>>top&1, mh>>top&1
			ph = ph<<1 | hp
			mh = mh<<1 | hm
			pv[b] = mh | ^(xv | ph)
			mv[b] = ph & xv
			hp, hm = hpOut, hmOut
		}
		score += int(hp) - int(hm)
	}
	return score
}
