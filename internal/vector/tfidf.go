// Package vector implements the sparse vector-space model in an
// interned ID space: a corpus Dict maps each term to a dense int32 ID,
// documents become IDVecs weighted with the paper's TFIDF variant (or raw
// frequencies) and L2-normalized, and cosine similarity, centroids and
// nearest-centroid assignment run as integer merge-joins and dense
// scatter/gather. These are the building blocks of THOR's tag-tree
// signature clustering (Section 3.1.2) and of the subtree content
// analysis in phase two (Section 3.2.1). The string-keyed form of the
// same space lives in the test-only package vectorref, the reference
// these kernels are checked against bit for bit.
package vector

import (
	"math"
	"slices"
)

// TFIDFInterned converts a collection of per-document term counts into
// normalized TFIDF-weighted vectors using the paper's variant (Section
// 3.1.2):
//
//	w_ik = log(tf_ik + 1) · log((n + 1) / n_k)
//
// where tf_ik is the frequency of term k in document i, n is the number
// of documents, and n_k is the number of documents containing term k.
// Because of the +1 in the numerator, even a term occurring in every
// document keeps a non-zero weight when its frequency varies between
// documents — the property the paper calls out for tags like <table>.
//
// It builds one Dict over the collection vocabulary, precomputes each
// ID's IDF once, and emits each document as an L2-normalized IDVec with
// its norm cached. The weights are bit-identical to the string-keyed
// reference (vectorref.TFIDF): the IDF quotient, the log(tf+1)
// multiply, and the normalization use the same arithmetic in the same
// (ascending-term ≡ ascending-ID) order.
func TFIDFInterned(docs []map[string]int) Interned {
	df := DocumentFrequencies(docs)
	d := DictFromDF(df)
	n := float64(len(docs))
	idf := make([]float64, d.Len())
	for id, term := range d.terms {
		idf[id] = math.Log((n + 1) / float64(df[term]))
	}
	vecs := make([]IDVec, len(docs))
	for i, counts := range docs {
		ids := docIDs(d, counts)
		weights := make([]float64, len(ids))
		for j, id := range ids {
			tf := counts[d.terms[id]]
			weights[j] = math.Log(float64(tf)+1) * idf[id]
		}
		normalizeWeights(weights)
		vecs[i] = NewIDVec(ids, weights)
	}
	return Interned{Dict: d, Vecs: vecs}
}

// RawFrequencyInterned converts per-document term counts into
// normalized vectors whose weights are the raw term frequencies, against
// one shared Dict — the "raw tags" / "raw content" baseline the paper
// compares against in Figures 4, 5, and 10. The weights are
// bit-identical to vectorref.RawFrequency's.
func RawFrequencyInterned(docs []map[string]int) Interned {
	d := DictFromDF(DocumentFrequencies(docs))
	vecs := make([]IDVec, len(docs))
	for i, counts := range docs {
		ids := docIDs(d, counts)
		weights := make([]float64, len(ids))
		for j, id := range ids {
			weights[j] = float64(counts[d.terms[id]])
		}
		normalizeWeights(weights)
		vecs[i] = NewIDVec(ids, weights)
	}
	return Interned{Dict: d, Vecs: vecs}
}

// docIDs interns one document's terms as a sorted ID list. Every term is
// in the dictionary by construction (the Dict covers the collection's DF
// table).
func docIDs(d *Dict, counts map[string]int) []int32 {
	ids := make([]int32, 0, len(counts))
	for term := range counts {
		if id, ok := d.ids[term]; ok {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// normalizeWeights scales weights to unit L2 norm in place, matching
// vectorref.Sparse.Normalize bit for bit (same summation and division
// order; all zeros are left unchanged).
func normalizeWeights(weights []float64) {
	var s float64
	for _, w := range weights {
		s += w * w
	}
	n := math.Sqrt(s)
	if n == 0 { //thorlint:allow no-float-eq the zero vector has an exactly zero norm
		return
	}
	for i, w := range weights {
		weights[i] = w / n
	}
}

// DocumentFrequencies returns, for every term appearing in docs, the number
// of documents that contain it.
func DocumentFrequencies(docs []map[string]int) map[string]int {
	df := make(map[string]int)
	for _, counts := range docs {
		for term := range counts {
			df[term]++
		}
	}
	return df
}
