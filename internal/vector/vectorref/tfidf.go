package vectorref

import "math"

// TFIDF converts a collection of per-document term counts into normalized
// TFIDF-weighted vectors using the paper's variant (Section 3.1.2):
//
//	w_ik = log(tf_ik + 1) · log((n + 1) / n_k)
//
// where tf_ik is the frequency of term k in document i, n is the number of
// documents, and n_k is the number of documents containing term k. Because
// of the +1 in the numerator, even a term occurring in every document keeps
// a non-zero weight when its frequency varies between documents — the
// property the paper calls out for tags like <table>. Each resulting vector
// is L2-normalized.
func TFIDF(docs []map[string]int) []Sparse {
	df := documentFrequencies(docs)
	n := float64(len(docs))
	out := make([]Sparse, len(docs))
	for i, counts := range docs {
		weighted := make(map[string]float64, len(counts))
		for term, tf := range counts {
			idf := math.Log((n + 1) / float64(df[term]))
			weighted[term] = math.Log(float64(tf)+1) * idf
		}
		out[i] = FromMap(weighted).Normalize()
	}
	return out
}

// RawFrequency converts per-document term counts into normalized vectors
// whose weights are the raw term frequencies. This is the "raw tags" / "raw
// content" baseline the paper compares against in Figures 4, 5, and 10.
func RawFrequency(docs []map[string]int) []Sparse {
	out := make([]Sparse, len(docs))
	for i, counts := range docs {
		out[i] = FromCounts(counts).Normalize()
	}
	return out
}

// documentFrequencies returns, for every term appearing in docs, the
// number of documents that contain it.
func documentFrequencies(docs []map[string]int) map[string]int {
	df := make(map[string]int)
	for _, counts := range docs {
		for term := range counts {
			df[term]++
		}
	}
	return df
}

// TFIDFWeight is the paper's single-term weight formula, log(tf+1) ·
// log((n+1)/df), the reference the per-ID weighting tables
// (vector.DFWeighting) are checked against. A term with no occurrences
// or no document frequency weighs 0.
func TFIDFWeight(tf, n, df int) float64 {
	if tf <= 0 || df <= 0 {
		return 0
	}
	return math.Log(float64(tf)+1) * math.Log(float64(n+1)/float64(df))
}
