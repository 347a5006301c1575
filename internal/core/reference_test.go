package core

import (
	"math"
	"math/rand"
	"sort"
	"strconv"

	"thor/internal/corpus"
	"thor/internal/stem"
	"thor/internal/strdist"
	"thor/internal/tagtree"
	"thor/internal/vector"
	"thor/internal/vector/vectorref"
)

// This file keeps the string-keyed apply path the pooled one replaced,
// as the reference the apply contract tests compare production against:
// a fresh page vectorized through string-keyed maps, assigned by the
// plain cosine loop in string space, and scored by a wrapper over
// SinglePageCandidates with the string edit distance. None of it shares
// code with InternCounts, AssignNearest, the IDVec kernels, or
// Wrapper.match; matchRef keeps the per-node walk Wrapper.match replaced.
//
// It also keeps phase two's per-node candidate walk, per-pair subtree
// matcher and memo-free set similarity, the references the phase-two
// contract tests compare SinglePageCandidates, FindCommonSubtreeSets and
// RankSubtreeSets against.

// vectorizeRef maps a page into the model's assignment space: the
// approach's signature weighted with the training document frequencies.
// Terms never seen in training carry no weight under TFIDF; raw
// weighting keeps every term of the page and never consults the DF
// table.
func vectorizeRef(m *Model, page *corpus.Page) vectorref.Sparse {
	counts := signatureOf(page, m.Cfg.Approach)
	if m.Cfg.Approach.RawWeighted() {
		return vectorref.FromCounts(counts).Normalize()
	}
	weighted := make(map[string]float64, len(counts))
	for term, tf := range counts {
		df := m.DF[term]
		if df == 0 {
			continue
		}
		weighted[term] = vectorref.TFIDFWeight(tf, m.NDocs, df)
	}
	return vectorref.FromMap(weighted).Normalize()
}

// nearestRef is the plain cosine loop in string space: v against each
// centroid converted back to terms through d, the lowest cluster id
// winning ties. A term of v outside d matches no centroid term yet
// still counts in v's norm, so this is the interned assignment's exact
// reference.
func nearestRef(d *vector.Dict, v vectorref.Sparse, centroids []vector.IDVec) (best int, bestSim float64) {
	best, bestSim = 0, -1.0
	for c, ctr := range centroids {
		if sim := vectorref.Cosine(v, vectorref.FromIDs(d, ctr.IDs, ctr.Weights)); sim > bestSim {
			best, bestSim = c, sim
		}
	}
	return best, bestSim
}

// pageSimplifier returns a simplifier for one page served by w: its
// identifiers start from the profile's, the per-page rule of match.
func pageSimplifier(w *Wrapper) *strdist.Simplifier {
	var simp strdist.Simplifier
	simp.Reset(w.profile)
	return &simp
}

// distanceRef scores a candidate against the wrapper profile with the
// paper's four-term shape distance, over the candidate's string path
// simplified through the page's simplifier.
func distanceRef(w *Wrapper, simp *strdist.Simplifier, c *Candidate) float64 {
	var d float64
	if w.Weights[0] != 0 && len(w.Paths) > 0 { //thorlint:allow no-float-eq zero weight is an exact "term disabled" sentinel
		d += w.Weights[0] * strdist.Normalized(w.profilePath, simp.SimplifyPath(c.Path))
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
	simp := pageSimplifier(w)
	for _, cand := range SinglePageCandidates(tree, 0) {
		if d := distanceRef(w, simp, cand); d < bestD {
			best, bestD = cand.Node, d
		}
	}
	if best == nil || bestD > w.MaxDistance {
		return nil, bestD
	}
	return best, bestD
}

// applyRef is Model.Apply on the reference path: vectorizeRef assigned
// by nearestRef to one of the model's centroids, and extractRef on the
// chosen wrapper.
func applyRef(m *Model, page *corpus.Page) []*Pagelet {
	best, _ := nearestRef(m.Dict, vectorizeRef(m, page), m.Centroids)
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

// matchRef is Wrapper.match as it ran before the shared candidate walk:
// a preorder Walk that re-walks each tag node's subtree for a word token
// (hasToken) and its children's subtrees for text (isMinimal), and scores
// each candidate with nodeDistance, which rebuilds the candidate's
// simplified path ancestor by ancestor and reads Depth and NodeCount off
// the node. The first strict-less minimum wins. simp is the page's
// simplifier (pageSimplifier).
func matchRef(w *Wrapper, simp *strdist.Simplifier, tree *tagtree.Node) (*tagtree.Node, float64) {
	best, bestD := (*tagtree.Node)(nil), math.Inf(1)
	tree.Walk(func(n *tagtree.Node) bool {
		if n.Type != tagtree.TagNode {
			return false
		}
		if !hasToken(n) {
			return false
		}
		if !isMinimal(n) {
			return true
		}
		if d := w.nodeDistance(simp, n); d < bestD {
			best, bestD = n, d
		}
		return true
	})
	if best == nil || bestD > w.MaxDistance {
		return nil, bestD
	}
	return best, bestD
}

// hasToken reports whether the subtree contains at least one word token.
func hasToken(n *tagtree.Node) bool {
	found := false
	n.Walk(func(m *tagtree.Node) bool {
		if found {
			return false
		}
		if m.Type == tagtree.ContentNode && tagtree.HasWordToken(m.Content) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isMinimal reports whether n's content is not entirely contained in a
// single tag-node child.
func isMinimal(n *tagtree.Node) bool {
	var textChildren int
	var only *tagtree.Node
	for _, c := range n.Children {
		if c.HasText() {
			textChildren++
			only = c
		}
	}
	if textChildren == 1 && only.Type == tagtree.TagNode {
		return false
	}
	return true
}

// nodeDistance scores one node against the wrapper profile, reading its
// simplified path (through the page's simplifier), fanout, depth and
// size off the node itself.
func (w *Wrapper) nodeDistance(simp *strdist.Simplifier, n *tagtree.Node) float64 {
	var d float64
	if w.Weights[0] != 0 && len(w.Paths) > 0 { //thorlint:allow no-float-eq zero weight is an exact "term disabled" sentinel
		var lev strdist.LevScratch
		d += w.Weights[0] * strdist.NormalizedBytes(w.profilePath, simplifiedPathRef(n, simp), &lev)
	}
	if w.Weights[1] != 0 { //thorlint:allow no-float-eq zero weight is an exact "term disabled" sentinel
		d += w.Weights[1] * ratioDiffF(w.Fanout, float64(n.Fanout()))
	}
	if w.Weights[2] != 0 { //thorlint:allow no-float-eq zero weight is an exact "term disabled" sentinel
		d += w.Weights[2] * ratioDiffF(w.Depth, float64(n.Depth()))
	}
	if w.Weights[3] != 0 { //thorlint:allow no-float-eq zero weight is an exact "term disabled" sentinel
		d += w.Weights[3] * ratioDiffF(w.Nodes, float64(n.NodeCount()))
	}
	return d
}

// simplifiedPathRef builds n's simplified indexed path (what
// simp.SimplifyPath(n.Path()) returns) ancestor by ancestor, root first,
// with each step's index from StepIndex.
func simplifiedPathRef(n *tagtree.Node, simp *strdist.Simplifier) []byte {
	var chain []*tagtree.Node
	for m := n; m != nil; m = m.Parent {
		chain = append(chain, m)
	}
	var out []byte
	for i := len(chain) - 1; i >= 0; i-- {
		m := chain[i]
		out = append(out, simp.ID(m.Tag)...)
		if m.Parent != nil {
			if idx, total := m.StepIndex(); total > 1 {
				out = strconv.AppendInt(out, int64(idx), 10)
			}
		}
	}
	return out
}

// singlePageCandidatesRef is SinglePageCandidates as it ran before the
// single walk: a preorder Walk that re-walks each tag node's subtree for
// a word token (hasToken) and its children's subtrees for text
// (isMinimal), and reads Path, Depth and NodeCount off each candidate
// node, each its own walk over the ancestors or the subtree.
func singlePageCandidatesRef(tree *tagtree.Node, pageIdx int) []*Candidate {
	var out []*Candidate
	tree.Walk(func(n *tagtree.Node) bool {
		if n.Type != tagtree.TagNode {
			return false
		}
		if !hasToken(n) {
			return false
		}
		if !isMinimal(n) {
			return true
		}
		out = append(out, &Candidate{
			Node:    n,
			PageIdx: pageIdx,
			Path:    n.Path(),
			Fanout:  n.Fanout(),
			Depth:   n.Depth(),
			Nodes:   n.NodeCount(),
		})
		return true
	})
	return out
}

// findCommonSubtreeSetsRef is FindCommonSubtreeSets as it ran before the
// per-call path memo: every prototype×candidate pair scored by
// ShapeDistance (both paths re-simplified per pair), the pairs ordered by
// sort.Slice on (dist, set, cand), then the same greedy one-to-one pass.
func findCommonSubtreeSetsRef(perPage [][]*Candidate, cfg Config, rng *rand.Rand, simp *strdist.Simplifier) []*SubtreeSet {
	if len(perPage) == 0 {
		return nil
	}
	maxCands := 0
	for _, cands := range perPage {
		if len(cands) > maxCands {
			maxCands = len(cands)
		}
	}
	var richest []int
	for i, cands := range perPage {
		if len(cands) == maxCands {
			richest = append(richest, i)
		}
	}
	protoIdx := richest[rng.Intn(len(richest))]
	protos := perPage[protoIdx]
	sets := make([]*SubtreeSet, len(protos))
	for i, proto := range protos {
		sets[i] = &SubtreeSet{Proto: proto, Members: []*Candidate{proto}}
	}
	type pairing struct {
		set  int
		cand int
		dist float64
	}
	for l, cands := range perPage {
		if l == protoIdx || len(cands) == 0 {
			continue
		}
		pairs := make([]pairing, 0, len(protos)*len(cands))
		for si, proto := range protos {
			for ci, c := range cands {
				d := ShapeDistance(proto, c, cfg.ShapeWeights, simp)
				if d <= cfg.MaxMatchDistance {
					pairs = append(pairs, pairing{set: si, cand: ci, dist: d})
				}
			}
		}
		sort.Slice(pairs, func(i, j int) bool {
			//thorlint:allow no-float-eq deterministic sort tie-break on equal distances
			if pairs[i].dist != pairs[j].dist {
				return pairs[i].dist < pairs[j].dist
			}
			if pairs[i].set != pairs[j].set {
				return pairs[i].set < pairs[j].set
			}
			return pairs[i].cand < pairs[j].cand
		})
		setTaken := make([]bool, len(protos))
		candTaken := make([]bool, len(cands))
		assigned := 0
		for _, p := range pairs {
			if setTaken[p.set] || candTaken[p.cand] {
				continue
			}
			setTaken[p.set] = true
			candTaken[p.cand] = true
			sets[p.set].Members = append(sets[p.set].Members, cands[p.cand])
			if assigned++; assigned == len(protos) || assigned == len(cands) {
				break
			}
		}
	}
	return sets
}

// intraSimRef is intraSetSimilarity as it ran before ID-space counting:
// every member's lowercase tokens stemmed afresh by stem.Stem into a
// string-keyed count map, weighted by the batch TFIDFInterned (or
// RawFrequencyInterned) and compared by the same cosine.
func intraSimRef(s *SubtreeSet, cfg Config) float64 {
	n := len(s.Members)
	if n < 2 {
		return 1
	}
	docs := make([]map[string]int, n)
	empty := true
	for i, m := range s.Members {
		docs[i] = m.Node.TermCounts(stem.Stem)
		if len(docs[i]) > 0 {
			empty = false
		}
	}
	if empty {
		return 1
	}
	var iv vector.Interned
	if cfg.RawContentVectors {
		iv = vector.RawFrequencyInterned(docs)
	} else {
		iv = vector.TFIDFInterned(docs)
	}
	var sum float64
	pairs := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sum += iv.Vecs[i].Cosine(iv.Vecs[j])
			pairs++
		}
	}
	return sum / float64(pairs)
}
