// Package vectorref is the string-keyed vector space the production
// kernels of internal/vector and internal/cluster are checked against:
// Sparse vectors keyed by term, the paper's TFIDF weighting, cosine
// similarity, centroids, and Simple K-Means with restarts chosen by
// internal similarity (Sections 3.1.2-3.1.4). It is a test oracle only.
// It shares no code with the interned IDVec kernels, so a contract test
// that finds both bit-identical checks two independent implementations.
// No non-test file of the module may import it (TestNoProductionImports).
//
// The package imports only the standard library and internal/parallel
// (for the restart seed derivation), never vector or cluster, so the
// in-package tests of those packages can import it without a cycle.
package vectorref

import (
	"math"
	"sort"
	"strings"
)

// Sparse is a sparse term-weight vector with terms held in ascending order.
// The zero value is an empty vector.
type Sparse struct {
	Terms   []string
	Weights []float64
}

// FromCounts builds a sparse vector whose weights are the raw counts.
func FromCounts(counts map[string]int) Sparse {
	terms := make([]string, 0, len(counts))
	for t := range counts {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	weights := make([]float64, len(terms))
	for i, t := range terms {
		weights[i] = float64(counts[t])
	}
	return Sparse{Terms: terms, Weights: weights}
}

// FromMap builds a sparse vector from a term→weight map.
func FromMap(m map[string]float64) Sparse {
	terms := make([]string, 0, len(m))
	for t := range m {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	weights := make([]float64, len(terms))
	for i, t := range terms {
		weights[i] = m[t]
	}
	return Sparse{Terms: terms, Weights: weights}
}

// Len returns the number of non-zero entries.
func (v Sparse) Len() int { return len(v.Terms) }

// Weight returns the weight of term, or 0 when absent.
func (v Sparse) Weight(term string) float64 {
	i := sort.SearchStrings(v.Terms, term)
	if i < len(v.Terms) && v.Terms[i] == term {
		return v.Weights[i]
	}
	return 0
}

// Norm returns the Euclidean (L2) norm.
func (v Sparse) Norm() float64 {
	var s float64
	for _, w := range v.Weights {
		s += w * w
	}
	return math.Sqrt(s)
}

// Normalize returns v scaled to unit L2 norm. The zero vector is returned
// unchanged.
func (v Sparse) Normalize() Sparse {
	n := v.Norm()
	if n == 0 { //thorlint:allow no-float-eq the zero vector has an exactly zero norm
		return v
	}
	out := Sparse{Terms: v.Terms, Weights: make([]float64, len(v.Weights))}
	for i, w := range v.Weights {
		out.Weights[i] = w / n
	}
	return out
}

// Dot returns the inner product of a and b using a linear merge over the
// sorted term lists.
func Dot(a, b Sparse) float64 {
	var s float64
	i, j := 0, 0
	for i < len(a.Terms) && j < len(b.Terms) {
		switch strings.Compare(a.Terms[i], b.Terms[j]) {
		case 0:
			s += a.Weights[i] * b.Weights[j]
			i++
			j++
		case -1:
			i++
		default:
			j++
		}
	}
	return s
}

// Cosine returns the cosine similarity of a and b:
//
//	sim(a,b) = Σ a_k·b_k / (‖a‖·‖b‖)
//
// Orthogonal vectors score 0.0 and identical (non-zero) vectors score 1.0.
// If either vector is zero the similarity is 0.
func Cosine(a, b Sparse) float64 {
	na, nb := a.Norm(), b.Norm()
	if na == 0 || nb == 0 { //thorlint:allow no-float-eq the zero vector has an exactly zero norm
		return 0
	}
	sim := Dot(a, b) / (na * nb)
	// Clamp tiny floating-point excursions outside [0,1] for non-negative
	// weight vectors.
	if sim > 1 {
		sim = 1
	}
	if sim < -1 {
		sim = -1
	}
	return sim
}

// Add returns the element-wise sum a+b.
func Add(a, b Sparse) Sparse {
	terms := make([]string, 0, len(a.Terms)+len(b.Terms))
	weights := make([]float64, 0, len(a.Terms)+len(b.Terms))
	i, j := 0, 0
	for i < len(a.Terms) || j < len(b.Terms) {
		switch {
		case j >= len(b.Terms) || (i < len(a.Terms) && a.Terms[i] < b.Terms[j]):
			terms = append(terms, a.Terms[i])
			weights = append(weights, a.Weights[i])
			i++
		case i >= len(a.Terms) || b.Terms[j] < a.Terms[i]:
			terms = append(terms, b.Terms[j])
			weights = append(weights, b.Weights[j])
			j++
		default:
			terms = append(terms, a.Terms[i])
			weights = append(weights, a.Weights[i]+b.Weights[j])
			i++
			j++
		}
	}
	return Sparse{Terms: terms, Weights: weights}
}

// Scale returns v with every weight multiplied by f.
func (v Sparse) Scale(f float64) Sparse {
	out := Sparse{Terms: v.Terms, Weights: make([]float64, len(v.Weights))}
	for i, w := range v.Weights {
		out.Weights[i] = w * f
	}
	return out
}

// Centroid returns the centroid of vs: the vector whose weight for each
// term is the average of that term's weight over all vectors, exactly the
// cluster-centroid definition in Section 3.1.2. The centroid of an empty
// slice is the zero vector.
func Centroid(vs []Sparse) Sparse {
	if len(vs) == 0 {
		return Sparse{}
	}
	sum := vs[0]
	for _, v := range vs[1:] {
		sum = Add(sum, v)
	}
	return sum.Scale(1 / float64(len(vs)))
}

// Vocab is the dictionary surface the conversions need: *vector.Dict
// satisfies it.
type Vocab interface {
	ID(term string) (int32, bool)
	Term(id int32) string
}

// FromIDs converts an interned vector, given as its parallel ID and
// weight slices, back to string-keyed form through the dictionary.
func FromIDs(d Vocab, ids []int32, weights []float64) Sparse {
	terms := make([]string, len(ids))
	for i, id := range ids {
		terms[i] = d.Term(id)
	}
	return Sparse{Terms: terms, Weights: append(make([]float64, 0, len(weights)), weights...)}
}

// Project returns v's entries whose terms the dictionary holds: what
// interning v keeps. Interning drops the other terms (a DF miss) but
// still counts them in the cached norm, so an interned vector matches v
// when its entries equal v.Project(d) and its norm equals v.Norm().
func (v Sparse) Project(d Vocab) Sparse {
	var out Sparse
	for i, t := range v.Terms {
		if _, ok := d.ID(t); ok {
			out.Terms = append(out.Terms, t)
			out.Weights = append(out.Weights, v.Weights[i])
		}
	}
	return out
}

// Equal reports whether a and b have identical terms and weights.
func Equal(a, b Sparse) bool {
	if len(a.Terms) != len(b.Terms) {
		return false
	}
	for i := range a.Terms {
		//thorlint:allow no-float-eq Equal is documented as exact identity, not numeric closeness
		if a.Terms[i] != b.Terms[i] || a.Weights[i] != b.Weights[i] {
			return false
		}
	}
	return true
}
