package core

import (
	"math"
	"math/rand"
	"sort"

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
// Wrapper.match.
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
