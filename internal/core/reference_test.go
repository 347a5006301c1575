package core

import (
	"math"

	"thor/internal/corpus"
	"thor/internal/strdist"
	"thor/internal/tagtree"
	"thor/internal/vector"
)

// This file keeps the string-keyed apply path the pooled one replaced,
// as the reference the apply contract tests compare production against:
// a fresh page vectorized through string-keyed maps, assigned by the
// plain cosine loop, and scored by a wrapper over SinglePageCandidates
// with the string edit distance. None of it shares code with
// InternCounts, AssignNearest, or Wrapper.match.

// vectorizeRef maps a page into the model's assignment space: the
// approach's signature weighted with the training document frequencies.
// Terms never seen in training carry no weight under TFIDF; raw
// weighting keeps every term of the page and never consults the DF
// table.
func vectorizeRef(m *Model, page *corpus.Page) vector.Sparse {
	counts := signatureOf(page, m.Cfg.Approach)
	if m.Cfg.Approach.RawWeighted() {
		return vector.FromCounts(counts).Normalize()
	}
	weighted := make(map[string]float64, len(counts))
	for term, tf := range counts {
		df := m.DF[term]
		if df == 0 {
			continue
		}
		weighted[term] = vector.TFIDFWeight(tf, m.NDocs, df)
	}
	return vector.FromMap(weighted).Normalize()
}

// distanceRef scores a candidate against the wrapper profile with the
// paper's four-term shape distance, over the candidate's string path.
func distanceRef(w *Wrapper, c *Candidate) float64 {
	var d float64
	if w.Weights[0] != 0 && len(w.Paths) > 0 { //thorlint:allow no-float-eq zero weight is an exact "term disabled" sentinel
		d += w.Weights[0] * strdist.Normalized(w.topPath(), w.simp.SimplifyPath(c.Path))
	}
	if w.Weights[1] != 0 { //thorlint:allow no-float-eq zero weight is an exact "term disabled" sentinel
		d += w.Weights[1] * ratioDiffF(w.Fanout, float64(c.Fanout))
	}
	if w.Weights[2] != 0 { //thorlint:allow no-float-eq zero weight is an exact "term disabled" sentinel
		d += w.Weights[2] * ratioDiffF(w.Depth, float64(c.Depth))
	}
	if w.Weights[3] != 0 { //thorlint:allow no-float-eq zero weight is an exact "term disabled" sentinel
		d += w.Weights[3] * ratioDiffF(w.Nodes, float64(c.Nodes))
	}
	return d
}

// extractRef is the wrapper's extraction over SinglePageCandidates: the
// best-scoring candidate (first strict-less minimum) and its distance, or
// nil when it is farther than MaxDistance.
func extractRef(w *Wrapper, tree *tagtree.Node) (*tagtree.Node, float64) {
	best, bestD := (*tagtree.Node)(nil), math.Inf(1)
	for _, cand := range SinglePageCandidates(tree, 0) {
		if d := distanceRef(w, cand); d < bestD {
			best, bestD = cand.Node, d
		}
	}
	if best == nil || bestD > w.MaxDistance {
		return nil, bestD
	}
	return best, bestD
}

// applyRef is Model.Apply on the reference path: vectorizeRef interned
// into the training dictionary, the plain cosine loop over the centroids
// (lowest cluster id on ties), and extractRef on the chosen wrapper.
func applyRef(m *Model, page *corpus.Page) []*Pagelet {
	v := m.Dict.Intern(vectorizeRef(m, page))
	best, bestSim := 0, -1.0
	for c, ctr := range m.Centroids {
		if sim := v.Cosine(ctr); sim > bestSim {
			best, bestSim = c, sim
		}
	}
	w := m.Wrappers[best]
	if w == nil {
		return nil
	}
	node, _ := extractRef(w, page.Tree())
	if node == nil {
		return nil
	}
	return []*Pagelet{{Page: page, Node: node, Path: node.Path()}}
}
