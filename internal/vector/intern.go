package vector

import (
	"cmp"
	"math"
	"slices"
	"strings"
)

// Weighting selects how InternCounts weights a term-count stream, carrying
// the per-ID tables that let the serve path skip every per-request string
// map. The zero value selects raw-frequency weighting; DFWeighting builds
// the TFIDF form from a model's document-frequency table.
type Weighting struct {
	// IDF holds the precomputed log((n+1)/df) factor per dictionary ID.
	// nil selects raw-frequency weighting.
	IDF []float64
	// DF holds the document frequency per dictionary ID. An entry of 0
	// marks a term that must be dropped before weighting (the DF-miss rule
	// of the TFIDF apply path); it can only arise from a corrupt model,
	// because a dictionary built over a DF table has df ≥ 1 everywhere.
	DF []int32
}

// Raw reports whether the weighting is raw-frequency.
func (w Weighting) Raw() bool { return w.IDF == nil }

// DFWeighting precomputes the TFIDF weighting tables for d against a
// document-frequency table of nDocs documents: each ID's IDF factor, the
// one training weighted with, so weights built from these tables are
// bit-identical to the string-keyed reference.
func DFWeighting(d *Dict, df map[string]int, nDocs int) Weighting {
	idf := make([]float64, d.Len())
	dfs := make([]int32, d.Len())
	for id, term := range d.terms {
		n := df[term]
		dfs[id] = int32(n)
		if n > 0 {
			idf[id] = IDF(nDocs, n)
		}
	}
	return Weighting{IDF: idf, DF: dfs}
}

// InternScratch holds the reusable buffers of InternCounts. The IDVec an
// InternCounts call returns aliases the scratch's ids/weights buffers, so
// it is valid only until the next call with the same scratch — exactly the
// lifetime of one pooled apply pass.
type InternScratch struct {
	pairs []idCount
	raw   []rawTerm
	ids   []int32
	ws    []float64
}

// idCount is one in-dictionary (id, count) pair of the TFIDF branch.
type idCount struct {
	id int32
	tf int32
}

// rawTerm is one (term, count) pair of the raw branch, which must keep
// out-of-vocabulary terms around for the norm.
type rawTerm struct {
	term   string
	tf     int
	id     int32
	inDict bool
}

// InternCounts weights one page's term counts in a trained model's space
// and builds the IDVec straight in ID space: no intermediate weight map,
// no string-keyed vector. Against the string-keyed reference
// (vectorref) it is the composition
//
//	TFIDF:  FromMap(tfidf-weighted counts).Normalize()
//	raw:    FromCounts(counts).Normalize()
//
// projected onto the dictionary, and is bit-identical to it: terms are
// weighted and summed in ascending-term order (≡ ascending-ID order for
// dictionary hits), the normalization divides in the same order, and the
// cached norm is the norm of the whole reference vector — with
// out-of-vocabulary terms kept in the norm under raw weighting (they were
// dropped before weighting ever happened under TFIDF's DF-miss rule, so
// there they contribute nothing).
func (d *Dict) InternCounts(counts map[string]int, w Weighting, s *InternScratch) IDVec {
	if w.Raw() {
		return d.internRawCounts(counts, s)
	}
	s.pairs = s.pairs[:0]
	for term, tf := range counts {
		if id, ok := d.ids[term]; ok && w.DF[id] > 0 {
			s.pairs = append(s.pairs, idCount{id: id, tf: int32(tf)})
		}
	}
	slices.SortFunc(s.pairs, func(a, b idCount) int { return cmp.Compare(a.id, b.id) })
	s.ids, s.ws = s.ids[:0], s.ws[:0]
	for _, p := range s.pairs {
		s.ids = append(s.ids, p.id)
		s.ws = append(s.ws, float64(p.tf))
	}
	return Vector(s.ids, s.ws, w.IDF)
}

// internRawCounts is the raw-frequency branch: every term — in or out of
// the dictionary — participates in the normalization and the cached norm,
// in ascending-term order, so the result matches the string path on pages
// with unseen vocabulary.
func (d *Dict) internRawCounts(counts map[string]int, s *InternScratch) IDVec {
	s.raw = s.raw[:0]
	for term, tf := range counts {
		id, ok := d.ids[term]
		s.raw = append(s.raw, rawTerm{term: term, tf: tf, id: id, inDict: ok})
	}
	slices.SortFunc(s.raw, func(a, b rawTerm) int { return strings.Compare(a.term, b.term) })
	var sum float64
	for _, p := range s.raw {
		wt := float64(p.tf)
		sum += wt * wt
	}
	norm := math.Sqrt(sum)
	s.ids, s.ws = s.ids[:0], s.ws[:0]
	var sum2 float64
	for _, p := range s.raw {
		wt := float64(p.tf)
		if norm != 0 { //thorlint:allow no-float-eq the zero vector has an exactly zero norm
			wt /= norm
		}
		sum2 += wt * wt
		if p.inDict {
			s.ids = append(s.ids, p.id)
			s.ws = append(s.ws, wt)
		}
	}
	return IDVec{IDs: s.ids, Weights: s.ws, norm: math.Sqrt(sum2)}
}

// AssignNearest returns the index of the centroid most cosine-similar to v
// and that winning similarity, with the lowest index winning ties —
// exactly the verbatim loop
//
//	for c, ctr := range centroids { if sim := v.Cosine(ctr); sim > bestSim { ... } }
//
// bit for bit. Pairs whose cached norms are both exactly 1.0 take the
// division-free CosineUnit kernel, which is bit-identical there because
// dividing by 1.0·1.0 is the identity in IEEE arithmetic; all other pairs
// (normalized vectors carry norms of 1±ulp, centroids of averaged vectors
// are shorter than unit) pay Cosine's division to preserve exactness.
// An empty centroid slice returns (0, -1).
func AssignNearest(v IDVec, centroids []IDVec) (best int, bestSim float64) {
	best, bestSim = 0, -1
	vUnit := v.norm == 1 //thorlint:allow no-float-eq exactly-1.0 cached norm is the provably-exact CosineUnit precondition
	for c := range centroids {
		ctr := &centroids[c]
		var sim float64
		if vUnit && ctr.norm == 1 { //thorlint:allow no-float-eq exactly-1.0 cached norm is the provably-exact CosineUnit precondition
			sim = v.CosineUnit(*ctr)
		} else {
			sim = v.Cosine(*ctr)
		}
		if sim > bestSim {
			best, bestSim = c, sim
		}
	}
	return best, bestSim
}
