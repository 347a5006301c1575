package vector

import (
	"math"
	"sort"
)

// Dict is a corpus-level term-interning dictionary: every term of a
// collection is mapped once to a dense int32 ID, and all similarity work
// thereafter runs on integer IDs instead of strings. IDs are assigned in
// ascending term order, so ascending-ID order and ascending-term order
// coincide — the property that makes the integer merge-join kernels of
// IDVec visit term pairs in exactly the order the string-keyed reference
// kernels (vectorref) do, and hence produce bit-identical floating-point
// sums.
//
// A Dict is immutable after construction and safe for concurrent use.
type Dict struct {
	terms []string
	ids   map[string]int32
}

// NewDict builds a dictionary over the given terms (duplicates are
// collapsed; the input slice is not retained).
func NewDict(terms []string) *Dict {
	sorted := append([]string(nil), terms...)
	sort.Strings(sorted)
	uniq := sorted[:0]
	for i, t := range sorted {
		if i == 0 || t != sorted[i-1] {
			uniq = append(uniq, t)
		}
	}
	d := &Dict{terms: uniq, ids: make(map[string]int32, len(uniq))}
	for i, t := range uniq {
		d.ids[t] = int32(i)
	}
	return d
}

// Len returns the vocabulary size — one more than the largest assigned
// ID. A nil dictionary has size 0.
func (d *Dict) Len() int {
	if d == nil {
		return 0
	}
	return len(d.terms)
}

// ID returns the ID of term and whether the term is in the dictionary.
func (d *Dict) ID(term string) (int32, bool) {
	id, ok := d.ids[term]
	return id, ok
}

// Term returns the term of an ID, or "" when the ID is out of range.
func (d *Dict) Term(id int32) string {
	if id < 0 || int(id) >= len(d.terms) {
		return ""
	}
	return d.terms[id]
}

// Terms returns a copy of the vocabulary in ID (= ascending term) order
// (nil for a nil dictionary).
func (d *Dict) Terms() []string {
	if d == nil {
		return nil
	}
	return append([]string(nil), d.terms...)
}

// IDVec is a sparse term-weight vector in a Dict's ID space: IDs are held
// in ascending order (equivalently, ascending term order) and the L2 norm
// is cached at construction, so Cosine never recomputes it. The zero
// value is an empty vector with norm 0.
//
// IDVecs from different dictionaries must never be mixed; the type
// carries no dictionary reference precisely so the hot loops stay lean.
type IDVec struct {
	IDs     []int32
	Weights []float64
	norm    float64
}

// NewIDVec builds an IDVec over an ascending ID list, caching the norm.
// The slices are retained, not copied; the caller must not mutate them
// afterwards (the cached norm would go stale).
func NewIDVec(ids []int32, weights []float64) IDVec {
	var s float64
	for _, w := range weights {
		s += w * w
	}
	return IDVec{IDs: ids, Weights: weights, norm: math.Sqrt(s)}
}

// Clone returns a copy of v that owns its storage, cached norm included
// — how a vector InternCounts built in scratch outlives the scratch's
// next use.
func (v IDVec) Clone() IDVec {
	return IDVec{IDs: append([]int32(nil), v.IDs...), Weights: append([]float64(nil), v.Weights...), norm: v.norm}
}

// Len returns the number of non-zero entries.
func (v IDVec) Len() int { return len(v.IDs) }

// Norm returns the cached Euclidean (L2) norm.
func (v IDVec) Norm() float64 { return v.norm }

// Dot returns the inner product of v and b using an integer merge over
// the sorted ID lists — the same merge vectorref.Dot performs, with
// int32 comparisons in place of strings.Compare, so the products are
// accumulated in the identical order and the sum is bit-identical.
func (v IDVec) Dot(b IDVec) float64 {
	var s float64
	i, j := 0, 0
	for i < len(v.IDs) && j < len(b.IDs) {
		switch vi, bj := v.IDs[i], b.IDs[j]; {
		case vi == bj:
			s += v.Weights[i] * b.Weights[j]
			i++
			j++
		case vi < bj:
			i++
		default:
			j++
		}
	}
	return s
}

// Cosine returns the cosine similarity of v and b using the cached norms:
// bit-identical to vectorref.Cosine (same dot, same norm bits, same
// clamp), at the cost of one merge-join instead of a merge-join plus two
// norm recomputations.
func (v IDVec) Cosine(b IDVec) float64 {
	if v.norm == 0 || b.norm == 0 { //thorlint:allow no-float-eq the zero vector has an exactly zero norm
		return 0
	}
	sim := v.Dot(b) / (v.norm * b.norm)
	if sim > 1 {
		sim = 1
	}
	if sim < -1 {
		sim = -1
	}
	return sim
}

// Scatter writes v's weights into row at v's IDs, making row a dense
// copy of v for CosineRow. row must cover v's IDs and hold zero at every
// other ID a partner may read; Unscatter restores the zeros.
func (v IDVec) Scatter(row []float64) {
	w := v.Weights[:len(v.IDs)]
	for i, id := range v.IDs {
		row[id] = w[i]
	}
}

// Unscatter zeroes the cells of row that Scatter(row) wrote.
func (v IDVec) Unscatter(row []float64) {
	for _, id := range v.IDs {
		row[id] = 0
	}
}

// CosineRow returns v.Cosine(u) for the vector u scattered into row
// (Scatter) whose cached norm is norm: one pass over v's IDs, each
// multiplied by u's dense cell, in place of a merge-join. A caller
// comparing one vector with many scatters it once and gathers each
// partner against it. With finite weights the result is bit-identical to
// the merge-join:
//
//   - an ID both vectors hold adds the same product, in the same
//     ascending-ID order (IEEE multiplication is commutative);
//   - an ID only v holds adds 0·w = ±0, which leaves the running sum
//     unchanged, since a sum that starts at +0 is never −0 (under
//     round-to-nearest, x+y is −0 only when both are −0);
//   - an ID only u holds is never read, as the merge never pairs it;
//   - the norm product and the clamp are Cosine's own.
//
// TestCosineRowMatchesCosine pins the bits.
func (v IDVec) CosineRow(row []float64, norm float64) float64 {
	if v.norm == 0 || norm == 0 { //thorlint:allow no-float-eq the zero vector has an exactly zero norm
		return 0
	}
	var dot float64
	w := v.Weights[:len(v.IDs)]
	for i, id := range v.IDs {
		dot += row[id] * w[i]
	}
	sim := dot / (v.norm * norm)
	if sim > 1 {
		sim = 1
	}
	if sim < -1 {
		sim = -1
	}
	return sim
}

// CosineUnit returns the cosine similarity assuming both vectors have
// unit norm: the dot product, clamped to [-1, 1]. It skips the division
// entirely, so it is *not* bit-identical to Cosine on normalized vectors
// (their cached norms are 1±ulp and the division by ~1 perturbs the last
// bit); use it only where exact parity with the string path is not
// required.
func (v IDVec) CosineUnit(b IDVec) float64 {
	sim := v.Dot(b)
	if sim > 1 {
		sim = 1
	}
	if sim < -1 {
		sim = -1
	}
	return sim
}

// Interned bundles a dictionary with the vectors interned against it —
// what Accumulator.FinishInterned (and its batch form, TFIDFInterned or
// RawFrequencyInterned) hands to the clustering layer.
type Interned struct {
	Dict *Dict
	Vecs []IDVec
}
