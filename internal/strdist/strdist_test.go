package strdist

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestLevenshteinKnown(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"abc", "abc", 0},
		{"kitten", "sitting", 3},
		// The paper's own example (Section 3.2.1): cat → cake is two
		// edits — change 't' to 'k' and add an 'e'.
		{"cat", "cake", 2},
		{"he", "het", 1}, // the paper's simplified-path example
		{"flaw", "lawn", 2},
		{"intention", "execution", 5},
		{"ab", "ba", 2},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := Levenshtein(c.b, c.a); got != c.want {
			t.Errorf("Levenshtein(%q, %q) = %d, want %d (symmetry)", c.b, c.a, got, c.want)
		}
	}
}

func TestLevenshteinMetricProperties(t *testing.T) {
	// Identity, symmetry, triangle inequality on random short strings.
	type triple struct{ A, B, C string }
	property := func(tr triple) bool {
		ab := Levenshtein(tr.A, tr.B)
		ba := Levenshtein(tr.B, tr.A)
		if ab != ba {
			return false
		}
		if Levenshtein(tr.A, tr.A) != 0 {
			return false
		}
		ac := Levenshtein(tr.A, tr.C)
		cb := Levenshtein(tr.C, tr.B)
		return ab <= ac+cb
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNormalizedBounds(t *testing.T) {
	if got := Normalized("", ""); got != 0 {
		t.Errorf("Normalized empty = %v", got)
	}
	if got := Normalized("abc", "abc"); got != 0 {
		t.Errorf("Normalized equal = %v", got)
	}
	if got := Normalized("abc", "xyz"); got != 1 {
		t.Errorf("Normalized disjoint same-length = %v, want 1", got)
	}
	// The paper's example: paths "he" vs "het" → 1 edit / 3 = 1/3.
	if got := Normalized("he", "het"); got < 0.333 || got > 0.334 {
		t.Errorf("Normalized(he, het) = %v, want 1/3", got)
	}
	property := func(a, b string) bool {
		n := Normalized(a, b)
		return n >= 0 && n <= 1
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSimplifierPaperExample(t *testing.T) {
	// Section 3.2.1: with q=1, html→h, head→e (h is taken), title→t, so
	// html/head → "he" and html/head/title → "het"; their distance is 1,
	// scaled to 1/3.
	s := NewSimplifier(1)
	if got := s.SimplifyPath("html/head"); got != "he" {
		t.Errorf("SimplifyPath(html/head) = %q, want he", got)
	}
	if got := s.SimplifyPath("html/head/title"); got != "het" {
		t.Errorf("SimplifyPath(html/head/title) = %q, want het", got)
	}
	if got := s.PathDistance("html/head", "html/head/title"); got < 0.333 || got > 0.334 {
		t.Errorf("PathDistance = %v, want 1/3", got)
	}
}

func TestSimplifierUniqueIDs(t *testing.T) {
	s := NewSimplifier(1)
	// 24 distinct tags fit within the 26 single-letter identifiers.
	tags := []string{"html", "head", "body", "table", "tr", "td", "th",
		"title", "thead", "tbody", "tfoot", "b", "h1", "h2", "hr", "br",
		"div", "dl", "dt", "dd", "data", "em", "time", "base"}
	seen := make(map[string]string)
	for _, tag := range tags {
		id := s.ID(tag)
		if len(id) != 1 {
			t.Errorf("ID(%q) = %q, want length 1", tag, id)
		}
		if prev, dup := seen[id]; dup {
			t.Errorf("ID collision: %q and %q both map to %q", prev, tag, id)
		}
		seen[id] = tag
	}
	// Stable across calls.
	for _, tag := range tags {
		if s.ID(tag) != func() string { return seen2(seen, tag) }() {
			t.Errorf("ID(%q) changed between calls", tag)
		}
	}
}

func seen2(seen map[string]string, tag string) string {
	for id, tg := range seen {
		if tg == tag {
			return id
		}
	}
	return ""
}

func TestSimplifierLongerQ(t *testing.T) {
	s := NewSimplifier(3)
	id := s.ID("table")
	if len(id) != 3 {
		t.Errorf("q=3 ID length = %d", len(id))
	}
	// Short tags are padded to length q.
	if got := s.ID("b"); len(got) != 3 {
		t.Errorf("padded ID = %q, want length 3", got)
	}
}

func TestSimplifyPathKeepsIndexDigits(t *testing.T) {
	s := NewSimplifier(1)
	a := s.SimplifyPath("html/body/table[3]")
	b := s.SimplifyPath("html/body/table[1]")
	if a == b {
		t.Errorf("positional indexes lost: %q == %q", a, b)
	}
	if Levenshtein(a, b) != 1 {
		t.Errorf("index difference should cost one edit: %q vs %q", a, b)
	}
	// Non-indexed and indexed steps differ only by the digits.
	c := s.SimplifyPath("html/body/table")
	if Levenshtein(a, c) != 1 {
		t.Errorf("dropping an index should cost one edit: %q vs %q", a, c)
	}
}

// simplifyPathRef is SimplifyPath as it was written before AppendPath:
// strings.Split over the path, identifiers and index digits joined in a
// strings.Builder.
func simplifyPathRef(s *Simplifier, path string) string {
	var b strings.Builder
	for _, stepStr := range strings.Split(path, "/") {
		if stepStr == "" {
			continue
		}
		idx := ""
		if i := strings.IndexByte(stepStr, '['); i >= 0 {
			idx = strings.TrimSuffix(stepStr[i+1:], "]")
			stepStr = stepStr[:i]
		}
		b.WriteString(s.ID(stepStr))
		b.WriteString(idx)
	}
	return b.String()
}

// TestAppendPathMatchesSplitReference pins AppendPath (and SimplifyPath
// over it) to the split-based form, on the same paths in the same order
// so first-sight identifiers are assigned alike — empty steps, leading
// and trailing separators, bracketed indexes and heading tags included.
func TestAppendPathMatchesSplitReference(t *testing.T) {
	paths := []string{
		"html/head/title", "html/body/h1", "html/body/div[2]/h2[1]", "",
		"/html//body/", "html/body/table[3]/tr[10]/td", "h3/h4[2]", "a[", "b]", "x/[4]",
	}
	for _, q := range []int{1, 2} {
		got, want := NewSimplifier(q), NewSimplifier(q)
		var buf []byte
		for _, p := range paths {
			buf = got.AppendPath(buf[:0], p)
			if ref := simplifyPathRef(want, p); string(buf) != ref {
				t.Fatalf("q=%d AppendPath(%q) = %q, reference %q", q, p, buf, ref)
			}
			if s, ref := got.SimplifyPath(p), simplifyPathRef(want, p); s != ref {
				t.Fatalf("q=%d SimplifyPath(%q) = %q, reference %q", q, p, s, ref)
			}
		}
	}
}

// TestSimplifierConcurrentUse: goroutines Reset their own simplifiers
// from one shared base and mint the same identifiers, and the base is
// left as it was. Run it under -race.
func TestSimplifierConcurrentUse(t *testing.T) {
	base := NewSimplifier(1)
	base.SimplifyPath("html/body/table")
	var want Simplifier
	want.Reset(base)
	done := make(chan map[string]string, 8)
	tags := []string{"html", "head", "body", "table", "tr", "td", "div", "span"}
	for g := 0; g < 8; g++ {
		go func() {
			var s Simplifier
			s.Reset(base)
			m := make(map[string]string)
			for _, tag := range tags {
				m[tag] = s.ID(tag)
			}
			done <- m
		}()
	}
	first := <-done
	for g := 1; g < 8; g++ {
		m := <-done
		for tag, id := range m {
			if first[tag] != id {
				t.Errorf("concurrent ID(%q) disagreement: %q vs %q", tag, first[tag], id)
			}
		}
	}
	if len(base.assigned) != 3 || !reflect.DeepEqual(base, &want) {
		t.Errorf("the shared base changed: %+v", base.assigned)
	}
}

// TestSimplifierResetStartsFromBase: a simplifier Reset from a base
// assigns exactly what the base would assign next, whatever it held
// before, and past maxKeptTags it starts from fresh maps.
func TestSimplifierResetStartsFromBase(t *testing.T) {
	base := NewSimplifier(1)
	base.SimplifyPath("html/body/section")
	var s Simplifier
	for round, junk := range []int{0, 30, maxKeptTags + 1} {
		for i := 0; i < junk; i++ {
			s.ID(fmt.Sprintf("junk%d", i))
		}
		s.Reset(base)
		fresh := NewSimplifier(1)
		fresh.SimplifyPath("html/body/section")
		for _, tag := range []string{"section", "div", "span", "sub", "b"} {
			if got, want := s.ID(tag), fresh.ID(tag); got != want {
				t.Fatalf("round %d: ID(%q) = %q after Reset, %q on a fresh copy", round, tag, got, want)
			}
		}
	}
}

func TestCounterIDFallback(t *testing.T) {
	// More distinct tags than single-letter identifiers: the simplifier
	// must keep every ID unique (growing beyond one letter when the
	// 26-letter space is exhausted) and must not loop forever.
	s := NewSimplifier(1)
	ids := make(map[string]string)
	for i := 0; i < 60; i++ {
		tag := "tag" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		id := s.ID(tag)
		if id == "" {
			t.Fatalf("empty id for %q", tag)
		}
		if prev, dup := ids[id]; dup {
			t.Fatalf("duplicate id %q for %q and %q", id, prev, tag)
		}
		ids[id] = tag
	}
}
