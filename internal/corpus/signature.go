package corpus

import (
	"maps"
	"sync"

	"thor/internal/stem"
	"thor/internal/tagtree"
)

// SignatureScratch computes page signatures into reusable maps — the
// serve-path form of Page.TagSignature/Page.ContentSignature for trees
// that are not attached to a cached Page (arena-backed parses of request
// bodies). The map returned by either method is the scratch's own and is
// valid only until the next call; the pooled apply path consumes it before
// releasing the scratch back to its pool.
type SignatureScratch struct {
	counts map[string]int
	// terms counts content terms, stemming each spelling once across
	// calls through its bounded memo.
	terms *tagtree.TermCounter
}

// NewSignatureScratch returns a ready scratch.
func NewSignatureScratch() *SignatureScratch {
	return &SignatureScratch{counts: make(map[string]int, 64), terms: tagtree.NewTermCounter(stem.Stem)}
}

// TagCounts returns tree's tag-frequency signature, equal to
// tree.TagCounts() but computed into the reusable map.
func (s *SignatureScratch) TagCounts(tree *tagtree.Node) map[string]int {
	clear(s.counts)
	tree.TagCountsInto(s.counts)
	return s.counts
}

// TermCounts returns tree's Porter-stemmed content term signature, equal
// to tree.TermCounts(stem.Stem) but computed into the reusable map.
func (s *SignatureScratch) TermCounts(tree *tagtree.Node) map[string]int {
	return s.terms.Count(tree)
}

// termCounters lends Porter-stemming term counters, memos included, to
// TermSignature.
var termCounters = sync.Pool{New: func() any { return tagtree.NewTermCounter(stem.Stem) }}

// TermSignature returns tree's Porter-stemmed content term signature,
// equal to tree.TermCounts(stem.Stem), in a fresh map: the training form
// behind Page.ContentSignature, counted through a pooled counter so that
// a spelling is stemmed once per counter, not once per occurrence.
func TermSignature(tree *tagtree.Node) map[string]int {
	c := termCounters.Get().(*tagtree.TermCounter)
	defer termCounters.Put(c)
	return maps.Clone(c.Count(tree))
}
