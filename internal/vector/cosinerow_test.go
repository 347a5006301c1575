package vector

import (
	"math"
	"math/rand"
	"testing"
)

// TestCosineRowMatchesCosine is the scatter-gather kernel's contract: for
// every pair, scattering one vector and gathering the other against it
// gives exactly the bits of the merge-join Cosine, either way round. The
// pairs cover random overlaps with weights of both signs (so products of
// −0 reach the sum), disjoint and identical vectors, empty vectors and
// vectors of zero norm. The row is checked back to all zero after every
// Unscatter.
func TestCosineRowMatchesCosine(t *testing.T) {
	const dim = 64
	rng := rand.New(rand.NewSource(17))
	random := func(density float64, signed bool) IDVec {
		var ids []int32
		var ws []float64
		for id := int32(0); id < dim; id++ {
			if rng.Float64() < density {
				w := rng.Float64()
				if signed && rng.Intn(2) == 0 {
					w = -w
				}
				ids = append(ids, id)
				ws = append(ws, w)
			}
		}
		return NewIDVec(ids, ws)
	}
	unit := func(v IDVec) IDVec {
		ws := append([]float64(nil), v.Weights...)
		normalizeWeights(ws)
		return NewIDVec(append([]int32(nil), v.IDs...), ws)
	}
	even := NewIDVec([]int32{0, 2, 4, 6}, []float64{1, 2, 3, 4})
	odd := NewIDVec([]int32{1, 3, 5, 63}, []float64{4, -3, 2, 1})
	zeros := NewIDVec([]int32{1, 2, 3}, []float64{0, 0, 0})
	negZeros := NewIDVec([]int32{2, 9}, []float64{math.Copysign(0, -1), math.Copysign(0, -1)})
	vecs := []IDVec{even, odd, zeros, negZeros, {}, unit(even), unit(odd)}
	for i := 0; i < 40; i++ {
		v := random(rng.Float64(), i%2 == 0)
		vecs = append(vecs, v, unit(v))
	}
	row := make([]float64, dim)
	for _, u := range vecs {
		u.Scatter(row)
		for _, v := range vecs {
			got := v.CosineRow(row, u.Norm())
			for _, want := range []float64{v.Cosine(u), u.Cosine(v)} {
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("CosineRow of %v against %v = %v (%x), Cosine %v (%x)",
						v, u, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
		u.Unscatter(row)
		for id, w := range row {
			if w != 0 { //thorlint:allow no-float-eq the row must be exactly zero again
				t.Fatalf("row[%d] = %v after Unscatter of %v", id, w, u)
			}
		}
	}
}
