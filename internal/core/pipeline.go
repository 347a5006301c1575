package core

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"unsafe"

	"thor/internal/corpus"
	"thor/internal/htmlx"
	"thor/internal/strdist"
	"thor/internal/tagtree"
	"thor/internal/vector"
)

// applyScratch bundles every reusable buffer of the pooled apply pipeline:
// the arena-backed parser (the page's entire tag tree lives in its arena
// and is released wholesale when the scratch returns to the pool), the
// signature scratch that replaces the per-request count map, the interning
// scratch the page vector is weighted into, and the candidate-scoring
// buffers of the wrapper pass. One scratch
// serves one request at a time; concurrent requests each Get their own.
type applyScratch struct {
	parser *htmlx.Parser
	sig    *corpus.SignatureScratch
	intern vector.InternScratch
	lev    strdist.LevScratch
	// walk is the wrapper's candidate walk; it renders each candidate's
	// simplified path, the second operand of the edit distance.
	walk candidateWalk
	// chain collects the winning node's ancestors (leaf→root) while its
	// indexed path is rebuilt root→leaf.
	chain []*tagtree.Node
	// path is the byte buffer the winning node's indexed path is built in
	// before the one final string materialization.
	path []byte
}

// applyPool recycles applyScratch values across requests. Steady state, a
// Get hands back a scratch whose arena slabs, maps, and buffers are warm,
// so a full ApplyHTML pass allocates only its answer.
var applyPool = sync.Pool{
	New: func() any {
		return &applyScratch{parser: htmlx.NewParser(), sig: corpus.NewSignatureScratch()}
	},
}

// applyWeighting returns (building once) the model's per-ID weighting
// tables: IDF factors and DF entries indexed by dictionary ID for the
// TFIDF approaches, or the raw-frequency marker for the raw ones. The
// tables are derived state over the persisted DF/NDocs/Dict fields, so
// models loaded from disk rebuild them here on first use.
func (m *Model) applyWeighting() vector.Weighting {
	m.weightOnce.Do(func() {
		if !m.Cfg.Approach.RawWeighted() {
			m.weighting = vector.DFWeighting(m.Dict, m.DF, m.NDocs)
		}
	})
	return m.weighting
}

// ApplyHTML extracts the QA-Pagelet path from one fresh page given its raw
// HTML — the pooled serve path. It is Apply with the page-cache layers cut
// out: the HTML is parsed into a pooled arena (no garbage-collected tree)
// and the signature is counted into pooled scratch (no fresh map); the
// weighting, the nearest-centroid assignment, and the wrapper's
// scratch-backed candidate scoring are Apply's own. Only the winning
// node's indexed path is materialized; every node and buffer behind it is
// released wholesale when the scratch returns to the pool — safe because
// the returned path is a fresh string and shares nothing with the arena.
//
// The verdict is bit-identical to Apply on a page holding the same HTML:
// same assigned cluster, same candidate distances, and a byte-identical
// path (or the same "no pagelet" answer, found=false). The contract tests
// pin this across every approach and worker count.
func (m *Model) ApplyHTML(ctx context.Context, html string) (path string, found bool, err error) {
	path, found, _, err = m.applyHTML(ctx, html)
	return path, found, err
}

// ApplyStats is the assignment-space observation a successful apply call
// makes as a byproduct: which cluster the page landed in and how far from
// that cluster's centroid it sat. A lifecycle observer folds these into
// its drift window; the struct is returned by value so the stats variant
// of the pooled pipeline stays allocation-free.
type ApplyStats struct {
	// Cluster is the index of the assigned centroid.
	Cluster int
	// Distance is the page's cosine distance to the assigned centroid,
	// 1 − similarity (negative similarities map above 1; drift bucketing
	// clamps them).
	Distance float64
}

// ApplyHTMLBytes is ApplyHTML over a caller-owned byte slice — the form a
// network handler holds a request body in — without the string(body) copy
// (up to the request size limit, so megabytes per call). The pipeline
// reads the bytes through an unsafe string view, which is sound under two
// conditions the pooled pipeline already guarantees for the string form:
// the HTML is only ever read (never written) during the call, and nothing
// reachable after return aliases it — the parse tree and every derived
// view live in pooled scratch released before return, and the answer path
// is materialized as a fresh string. The caller must not mutate html
// until the call returns (a handler that owns the body buffer trivially
// satisfies this); afterwards the buffer is free to reuse.
func (m *Model) ApplyHTMLBytes(ctx context.Context, html []byte) (path string, found bool, err error) {
	path, found, _, err = m.ApplyHTMLBytesStats(ctx, html)
	return path, found, err
}

// ApplyHTMLBytesStats is ApplyHTMLBytes reporting its assignment-space
// observation alongside the verdict — the form a drift-observing serving
// layer calls, at the same zero steady-state allocation cost. The stats
// are meaningful only when err is nil.
func (m *Model) ApplyHTMLBytesStats(ctx context.Context, html []byte) (path string, found bool, stats ApplyStats, err error) {
	if len(html) == 0 {
		return m.applyHTML(ctx, "")
	}
	return m.applyHTML(ctx, unsafe.String(unsafe.SliceData(html), len(html)))
}

// applyHTML is the shared implementation behind ApplyHTML,
// ApplyHTMLBytes, and ApplyHTMLBytesStats.
func (m *Model) applyHTML(ctx context.Context, html string) (path string, found bool, stats ApplyStats, err error) {
	if err := ctx.Err(); err != nil {
		return "", false, ApplyStats{}, err
	}
	if len(m.Centroids) == 0 {
		return "", false, ApplyStats{}, fmt.Errorf("core: model has no clusters to assign to")
	}
	s := applyPool.Get().(*applyScratch)
	defer applyPool.Put(s)
	defer s.parser.Release()

	tree := s.parser.Parse(html)
	a := m.Cfg.Approach
	var counts map[string]int
	if a.IsVector() && a.ContentBased() {
		counts = s.sig.TermCounts(tree)
	} else {
		counts = s.sig.TagCounts(tree)
	}
	v := m.Dict.InternCounts(counts, m.applyWeighting(), &s.intern)
	best, sim := vector.AssignNearest(v, m.Centroids)
	stats = ApplyStats{Cluster: best, Distance: 1 - sim}
	w := m.Wrappers[best]
	if w == nil {
		return "", false, stats, nil
	}
	path, found, err = w.extractPath(tree, s)
	return path, found, stats, err
}

// pathString materializes n's indexed path — byte-identical to n.Path() —
// with the steps built in the scratch's byte buffer and one final string
// allocation for the answer that outlives the scratch.
func (s *applyScratch) pathString(n *tagtree.Node) string {
	s.chain = s.chain[:0]
	for m := n; m != nil; m = m.Parent {
		s.chain = append(s.chain, m)
	}
	s.path = s.path[:0]
	for i := len(s.chain) - 1; i >= 0; i-- {
		m := s.chain[i]
		if i < len(s.chain)-1 {
			s.path = append(s.path, '/')
		}
		s.path = append(s.path, m.Tag...)
		if m.Parent != nil {
			if idx, total := m.StepIndex(); total > 1 {
				s.path = append(s.path, '[')
				s.path = strconv.AppendInt(s.path, int64(idx), 10)
				s.path = append(s.path, ']')
			}
		}
	}
	return string(s.path)
}
