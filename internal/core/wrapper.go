package core

import (
	"fmt"
	"math"
	"sync"

	"thor/internal/strdist"
	"thor/internal/tagtree"
)

// Wrapper is a compiled, site-specific extraction rule distilled from a
// phase-two result: the shape profile of the selected QA-Pagelet region.
// Once THOR has analyzed a site's sample pages, the wrapper extracts the
// QA-Pagelet from *new* pages of the same site in a single pass — no
// clustering, no cross-page analysis — which is how a deep web search
// engine would keep indexing a source after the up-front analysis
// (Section 1's vision). Because the rule is a shape profile rather than an
// absolute path, it tolerates the positional jitter and result-count
// variation that break brittle XPath wrappers.
type Wrapper struct {
	// Paths holds the indexed paths observed for the pagelet across the
	// analyzed pages (most common first); new candidates are compared
	// against the most common one by simplified-path edit distance.
	Paths []string
	// Fanout, Depth, Nodes are the average shape metrics of the selected
	// set's members.
	Fanout float64
	Depth  float64
	Nodes  float64
	// Weights are the shape-distance weights the wrapper scores with.
	Weights ShapeWeights
	// MaxDistance rejects pages whose best candidate is too unlike the
	// profile (no extraction rather than a wrong one).
	MaxDistance float64

	simp *strdist.Simplifier
	q    int

	// topOnce/topSimplified cache the simplified form of Paths[0], the
	// reference operand of every candidate comparison. Resolving it first
	// also pins the simplifier's first-sight ID assignments to the exact
	// order the uncached code had (it always simplified Paths[0] before
	// the candidate path).
	topOnce       sync.Once
	topSimplified string
}

// topPath returns (resolving once) the simplified form of Paths[0].
func (w *Wrapper) topPath() string {
	w.topOnce.Do(func() {
		if len(w.Paths) > 0 {
			w.topSimplified = w.simp.SimplifyPath(w.Paths[0])
		}
	})
	return w.topSimplified
}

// BuildWrapper compiles a wrapper from a phase-two result. It returns an
// error when the result selected nothing.
func (e *Extractor) BuildWrapper(res *Phase2Result) (*Wrapper, error) {
	if res == nil || res.Selected == nil || len(res.Selected.Members) == 0 {
		return nil, fmt.Errorf("core: no QA-Pagelet region selected; cannot build wrapper")
	}
	w := &Wrapper{
		Weights:     e.cfg.ShapeWeights,
		MaxDistance: 0.35,
		simp:        strdist.NewSimplifier(e.cfg.PathSimplifyQ),
		q:           e.cfg.PathSimplifyQ,
	}
	counts := make(map[string]int)
	for _, m := range res.Selected.Members {
		path := m.Node.Path()
		counts[path]++
		w.Fanout += float64(m.Fanout)
		w.Depth += float64(m.Depth)
		w.Nodes += float64(m.Nodes)
	}
	n := float64(len(res.Selected.Members))
	w.Fanout /= n
	w.Depth /= n
	w.Nodes /= n
	// Order observed paths by frequency (most common first).
	for len(counts) > 0 {
		best, bestN := "", 0
		for p, c := range counts {
			if c > bestN || (c == bestN && p < best) {
				best, bestN = p, c
			}
		}
		w.Paths = append(w.Paths, best)
		delete(counts, best)
	}
	return w, nil
}

// Extract locates the QA-Pagelet in a new page of the wrapper's site. It
// returns the best-matching candidate subtree and its distance from the
// profile, or nil when no candidate comes close enough (e.g. the page is a
// no-match or error page).
func (w *Wrapper) Extract(tree *tagtree.Node) (*tagtree.Node, float64) {
	s := applyPool.Get().(*applyScratch)
	defer applyPool.Put(s)
	return w.match(tree, s)
}

// extractPath is Extract for the pooled apply pipeline: only the winning
// node's indexed path is materialized, as a string that outlives the
// arena-backed tree.
func (w *Wrapper) extractPath(tree *tagtree.Node, s *applyScratch) (string, bool, error) {
	n, _ := w.match(tree, s)
	if n == nil {
		return "", false, nil
	}
	return s.pathString(n), true, nil
}

// match runs single-page analysis' candidate walk over the page (the
// walk SinglePageCandidates runs), scores each candidate against the
// profile, and returns the first strict-less minimum in document order
// and its distance. The node is nil when there is no candidate or the
// best one is farther than MaxDistance.
//
// The score is the paper's four-term shape distance with averaged
// reference values: the edit distance between the cached simplified
// profile path and the candidate's simplified path, which the walk
// renders into scratch bytes by extending the chain its ancestors left,
// then the three shape terms the walk counts. The walk yields candidates
// in post-order, so an equal distance wins when its candidate comes
// earlier in document order. The profile path is simplified before the
// first candidate's path, and the walk presents tags in the order the
// candidates' root-to-leaf paths first meet them, so the simplifier
// assigns every identifier as a per-candidate path walk in document order
// would.
func (w *Wrapper) match(tree *tagtree.Node, s *applyScratch) (*tagtree.Node, float64) {
	best, bestD, bestRank := (*tagtree.Node)(nil), math.Inf(1), 0
	pathTerm := w.Weights[0] != 0 && len(w.Paths) > 0 //thorlint:allow no-float-eq zero weight is an exact "term disabled" sentinel
	s.walk.start(tree, w.simp)
	for s.walk.next() {
		c := &s.walk.cur
		var d float64
		if pathTerm {
			d += w.Weights[0] * strdist.NormalizedBytes(w.topPath(), s.walk.curPath(), &s.lev)
		}
		if w.Weights[1] != 0 { //thorlint:allow no-float-eq zero weight is an exact "term disabled" sentinel
			d += w.Weights[1] * ratioDiffF(w.Fanout, float64(len(c.n.Children)))
		}
		if w.Weights[2] != 0 { //thorlint:allow no-float-eq zero weight is an exact "term disabled" sentinel
			d += w.Weights[2] * ratioDiffF(w.Depth, float64(s.walk.curDepth()))
		}
		if w.Weights[3] != 0 { //thorlint:allow no-float-eq zero weight is an exact "term disabled" sentinel
			d += w.Weights[3] * ratioDiffF(w.Nodes, float64(c.nodes))
		}
		if d < bestD || d == bestD && c.rank < bestRank { //thorlint:allow no-float-eq an exact tie falls to document order
			best, bestD, bestRank = c.n, d, c.rank
		}
	}
	if best == nil || bestD > w.MaxDistance {
		return nil, bestD
	}
	return best, bestD
}

func ratioDiffF(a, b float64) float64 {
	if a == b { //thorlint:allow no-float-eq fast path; equal inputs give an exact zero ratio
		return 0
	}
	m := math.Max(a, b)
	if m == 0 { //thorlint:allow no-float-eq exact-zero guard against dividing by zero
		return 0
	}
	return math.Abs(a-b) / m
}

// String summarizes the wrapper profile.
func (w *Wrapper) String() string {
	top := "?"
	if len(w.Paths) > 0 {
		top = w.Paths[0]
	}
	return fmt.Sprintf("wrapper{path %s, fanout %.1f, depth %.1f, nodes %.0f}",
		top, w.Fanout, w.Depth, w.Nodes)
}
