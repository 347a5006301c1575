package strdist

import "strings"

// Simplifier maps tag names to unique fixed-length identifiers of q letters
// each, as prescribed for path comparison in Section 3.2.1 of the paper:
// "we first simplify each tag name to a unique identifier of fixed length of
// q letters. This ensures that comparing longer tags with shorter tags will
// not perversely affect the distance metric."
//
// With q=1 the paper's example maps html→h, head→e, and so on; identifiers
// are assigned on first sight, preferring a letter of the tag itself when
// available so simplified paths stay readable. Since identifiers depend on
// the order tags are first seen, a caller that must answer the same way
// for the same input keeps a base simplifier that it never changes and
// Resets a working copy from it for each input.
//
// A Simplifier is not safe for concurrent use, except that any number of
// goroutines may Reset their own simplifiers from one shared base that
// nobody changes.
type Simplifier struct {
	q int
	// assigned maps tag name -> identifier.
	assigned map[string]string
	// used tracks identifiers already handed out.
	used map[string]bool
	// next is the counter used to mint fresh identifiers when all
	// preferred letters are taken.
	next int
}

// NewSimplifier returns a Simplifier producing identifiers of q letters.
// q must be at least 1.
func NewSimplifier(q int) *Simplifier {
	if q < 1 {
		q = 1
	}
	return &Simplifier{
		q:        q,
		assigned: make(map[string]string),
		used:     make(map[string]bool),
	}
}

// maxKeptTags bounds the maps Reset keeps for reuse: bigger ones, left by
// an input of unusually many distinct tag names, are dropped instead, so
// that clearing them stays cheap.
const maxKeptTags = 256

// Reset makes s a copy of base — the same identifier length, the same
// identifiers, the same next fresh one — reusing s's own maps unless they
// grew past maxKeptTags, so a simplifier reset once per input allocates
// nothing in the steady state. base is only read. The maps are emptied
// before anything is looked up in them, so their keys may be views of
// text that has since been overwritten.
func (s *Simplifier) Reset(base *Simplifier) {
	if s.assigned == nil || len(s.assigned) > maxKeptTags {
		s.assigned = make(map[string]string, len(base.assigned))
		s.used = make(map[string]bool, len(base.used))
	} else {
		clear(s.assigned)
		clear(s.used)
	}
	//thorlint:allow no-map-range-order a copy: every entry lands in s, whatever the order
	for tag, id := range base.assigned {
		s.assigned[tag] = id
	}
	//thorlint:allow no-map-range-order a copy: every entry lands in s, whatever the order
	for id := range base.used {
		s.used[id] = true
	}
	s.q, s.next = base.q, base.next
}

// ID returns the identifier for tag, assigning a new one on first use.
func (s *Simplifier) ID(tag string) string {
	if id, ok := s.assigned[tag]; ok {
		return id
	}
	id := s.mint(tag)
	s.assigned[tag] = id
	s.used[id] = true
	return id
}

// mint produces a fresh identifier, preferring prefixes/letters of the tag.
func (s *Simplifier) mint(tag string) string {
	// Try each letter of the tag padded/truncated to length q.
	for i := 0; i < len(tag); i++ {
		cand := pad(tag[i:], s.q)
		if !s.used[cand] {
			return cand
		}
	}
	// Fall back to a counter rendered in base 26.
	for {
		cand := counterID(s.next, s.q)
		s.next++
		if !s.used[cand] {
			return cand
		}
	}
}

func pad(src string, q int) string {
	if len(src) >= q {
		return src[:q]
	}
	return src + strings.Repeat("z", q-len(src))
}

func counterID(n, q int) string {
	// Base-26 rendering with minimum width q. Once the 26^q fixed-width
	// identifiers are exhausted the width grows, trading the fixed-length
	// guarantee for uniqueness — HTML's real tag inventory fits well
	// within 26^q identifiers for any q, so growth only matters for
	// adversarial input.
	digits := make([]byte, 0, 16) // on the stack: a one-letter identifier then costs no allocation
	for n > 0 {
		digits = append(digits, byte('a'+n%26))
		n /= 26
	}
	for len(digits) < q {
		digits = append(digits, 'a')
	}
	for i, j := 0, len(digits)-1; i < j; i, j = i+1, j-1 {
		digits[i], digits[j] = digits[j], digits[i]
	}
	return string(digits)
}

// SimplifyPath rewrites a '/'-separated tag path into its simplified form
// with no separators, e.g. with q=1: "html/head/title" → "het". Positional
// indexes like "[3]" (the paper's html/body/table[3] notation) are kept as
// digits appended to the step's identifier, so two same-named siblings at
// different positions — say a navigation div and a results div — remain
// distinguishable to the edit distance while costing only one edit.
func (s *Simplifier) SimplifyPath(path string) string {
	return string(s.AppendPath(nil, path))
}

// AppendPath appends the simplified form of path (what SimplifyPath
// returns) to dst and returns the extended slice: the scratch form a
// caller simplifying many paths uses to build them into one reused
// buffer. Identifiers are resolved step by step in path order, so a
// first-seen tag gets the same identifier either way.
func (s *Simplifier) AppendPath(dst []byte, path string) []byte {
	for len(path) > 0 {
		step := path
		if i := strings.IndexByte(path, '/'); i >= 0 {
			step, path = path[:i], path[i+1:]
		} else {
			path = ""
		}
		if step == "" {
			continue
		}
		idx := ""
		if i := strings.IndexByte(step, '['); i >= 0 {
			idx = strings.TrimSuffix(step[i+1:], "]")
			step = step[:i]
		}
		dst = append(dst, s.ID(step)...)
		dst = append(dst, idx...)
	}
	return dst
}

// PathDistance returns the normalized edit distance between two simplified
// tag paths: EditDist(P_i, P_j) / max(len(P_i), len(P_j)), the first term of
// THOR's subtree distance function.
func (s *Simplifier) PathDistance(pathA, pathB string) float64 {
	return Normalized(s.SimplifyPath(pathA), s.SimplifyPath(pathB))
}
