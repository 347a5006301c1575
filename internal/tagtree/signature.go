package tagtree

import (
	"strings"
	"unicode"
)

// TagCounts returns the frequency of each tag name in the subtree rooted at
// n. This is the raw material of THOR's tag-tree signature: a page is
// described as a vector of (tag, weight) pairs (Section 3.1.2).
func (n *Node) TagCounts() map[string]int {
	counts := make(map[string]int)
	n.TagCountsInto(counts)
	return counts
}

// TagCountsInto accumulates the subtree's tag frequencies into counts —
// the scratch-reuse form of TagCounts for per-request paths that must not
// allocate a fresh map per page. Existing entries are added to, not
// replaced; clear the map between pages.
func (n *Node) TagCountsInto(counts map[string]int) {
	n.Walk(func(m *Node) bool {
		if m.Type == TagNode {
			counts[m.Tag]++
		}
		return true
	})
}

// DistinctTags returns the number of distinct tag names in the subtree.
func (n *Node) DistinctTags() int { return len(n.TagCounts()) }

// ContentTokens returns the lowercase word tokens of all content nodes in
// the subtree rooted at n, in document order. A token is a maximal run of
// letters or digits; everything else separates tokens. Stemming is applied
// by higher layers (see internal/stem) so the tree model stays independent
// of any particular language processing.
func (n *Node) ContentTokens() []string {
	var tokens []string
	n.Walk(func(m *Node) bool {
		if m.Type == ContentNode {
			tokens = append(tokens, Tokenize(m.Content)...)
		}
		return true
	})
	return tokens
}

// TermCounts returns the frequency of each content token in the subtree,
// after applying the supplied normalization (typically stemming). A nil
// normalize is treated as the identity. Each call starts a fresh
// TermCounter; a pass over many pages reuses one, whose memo then
// normalizes each spelling once for the whole pass.
func (n *Node) TermCounts(normalize func(string) string) map[string]int {
	return NewTermCounter(normalize).Count(n)
}

// TermCounter computes TermCounts into one reusable map, normalizing each
// distinct token spelling once instead of once per occurrence: a token's
// term is normalize of its lowercase form, which depends on the spelling
// alone, so a memo from spelling to term may outlive a page. normalize
// must be a pure function. The memo's keys and terms are copies, never
// views of a page, so a counter may serve trees whose text buffers are
// reused between calls. It holds at most maxTermMemo spellings and starts
// over when full. A counter is not safe for concurrent use.
type TermCounter struct {
	normalize func(string) string
	memo      map[string]string
	counts    map[string]int
	// count counts one raw token through the memo; built once, so the
	// token walk allocates no closure per call.
	count func(string)
}

// maxTermMemo bounds a TermCounter's memo. A full memo, with a counts
// map grown as far, measured about 660 KB. On Zipf streams past the
// bound (BenchmarkTermCounterVocabulary) the memo starts over again and
// again, yet a page still costs less than stemming every occurrence.
const maxTermMemo = 1 << 12

// NewTermCounter returns a counter for normalize (nil for the identity).
func NewTermCounter(normalize func(string) string) *TermCounter {
	c := &TermCounter{normalize: normalize, memo: make(map[string]string), counts: make(map[string]int)}
	c.count = func(raw string) {
		term, ok := c.memo[raw]
		if !ok {
			if len(c.memo) == maxTermMemo {
				clear(c.memo)
			}
			raw = strings.Clone(raw)
			if term = strings.ToLower(raw); c.normalize != nil {
				term = c.normalize(term)
			}
			c.memo[raw] = term
		}
		if term != "" {
			c.counts[term]++
		}
	}
	return c
}

// Count returns the term frequencies of the subtree rooted at n, equal to
// n.TermCounts(normalize). The map is the counter's own, valid until the
// next call.
func (c *TermCounter) Count(n *Node) map[string]int {
	clear(c.counts)
	n.Walk(func(m *Node) bool {
		if m.Type == ContentNode {
			EachRawToken(m.Content, c.count)
		}
		return true
	})
	return c.counts
}

// DistinctTerms returns the number of distinct lowercase content tokens
// in the subtree rooted at n. It implements the per-page statistic behind
// the "average distinct terms" cluster ranking criterion (Section 3.1.3).
func (n *Node) DistinctTerms() int {
	seen := make(map[string]struct{})
	n.Walk(func(m *Node) bool {
		if m.Type == ContentNode {
			EachToken(m.Content, func(tok string) { seen[tok] = struct{}{} })
		}
		return true
	})
	return len(seen)
}

// Tokenize splits text into lowercase word tokens. A token is a maximal run
// of Unicode letters or digits.
func Tokenize(text string) []string {
	var tokens []string
	EachToken(text, func(tok string) { tokens = append(tokens, tok) })
	return tokens
}

// EachToken calls fn with each lowercase word token of text in order —
// Tokenize without the token slice. When a token is already lowercase the
// string handed to fn is a substring of text (strings.ToLower's no-change
// fast path), so a pass over clean text allocates nothing.
func EachToken(text string, fn func(string)) {
	EachRawToken(text, func(tok string) { fn(strings.ToLower(tok)) })
}

// EachRawToken is EachToken without the lowercasing: each token is the
// substring of text that spells it, and strings.ToLower of it is exactly
// EachToken's token. A caller that memoizes per distinct token
// lowercases once per spelling this way, instead of allocating a
// lowercase copy for every occurrence of a capitalized word.
func EachRawToken(text string, fn func(string)) {
	start := -1
	for i, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			fn(text[start:i])
			start = -1
		}
	}
	if start >= 0 {
		fn(text[start:])
	}
}

// HasWordToken reports whether text contains at least one word token — a
// letter or digit anywhere — without materializing the tokens. It is
// exactly len(Tokenize(text)) > 0.
func HasWordToken(text string) bool {
	for _, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			return true
		}
	}
	return false
}
