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

import "math"

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
// It is the batch form of the streaming Accumulator: the documents are
// added in order and finished in one call, so the dictionary and every
// weight are the accumulator's, bit-identical to the string-keyed
// reference (vectorref.TFIDF).
func TFIDFInterned(docs []map[string]int) Interned { return accumulate(docs, false) }

// RawFrequencyInterned converts per-document term counts into
// normalized vectors whose weights are the raw term frequencies, against
// one shared Dict — the "raw tags" / "raw content" baseline the paper
// compares against in Figures 4, 5, and 10. It is the Accumulator's raw
// mode in one call, bit-identical to vectorref.RawFrequency.
func RawFrequencyInterned(docs []map[string]int) Interned { return accumulate(docs, true) }

// accumulate adds docs to a fresh accumulator and finishes it.
func accumulate(docs []map[string]int, raw bool) Interned {
	acc := NewAccumulator(raw)
	for _, counts := range docs {
		acc.Add(counts)
	}
	return acc.FinishInterned()
}

// IDF is the paper's inverse document frequency, log((n+1)/df), of a
// term that df of a collection's n documents hold (Section 3.1.2).
func IDF(n, df int) float64 {
	return math.Log((float64(n) + 1) / float64(df))
}

// Vector weights one document into a normalized vector: ids are its
// distinct term IDs in ascending order, counts[j] is how often ids[j]
// occurs, and idf, indexed by ID, holds each term's IDF — nil for raw
// frequencies. A weight is log(count+1)·idf (the count itself when idf
// is nil), and the weights are L2-normalized in ID order, so over the
// same ascending-term IDs the result is bit-identical to the string-keyed
// reference's vector. The counts are weighted in place, and the result
// keeps both slices. It is the one place the TFIDF weight and the
// normalization are computed.
func Vector(ids []int32, counts []float64, idf []float64) IDVec {
	if idf != nil {
		for j, id := range ids {
			counts[j] = logCount(counts[j]) * idf[id]
		}
	}
	normalizeWeights(counts)
	return NewIDVec(ids, counts)
}

// logCounts[c] is math.Log(c+1) for the whole counts c below its length,
// the counts nearly every term of a page has.
var logCounts = func() (t [1024]float64) {
	for c := range t {
		t[c] = math.Log(float64(c) + 1)
	}
	return t
}()

// logCount returns math.Log(c+1): from logCounts when c is a whole count
// it holds, which is the same call on the same operand, so the same
// bits; from math.Log otherwise.
func logCount(c float64) float64 {
	if c >= 0 && c < float64(len(logCounts)) {
		if i := int(c); float64(i) == c { //thorlint:allow no-float-eq an exactly whole count is the table's precondition
			return logCounts[i]
		}
	}
	return math.Log(c + 1)
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
