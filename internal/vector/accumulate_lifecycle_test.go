package vector

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"thor/internal/vector/vectorref"
)

// sparseEqual reports bit-identity of two finished vector slices, in
// string-keyed form so vectors over different dictionaries compare by
// term.
func sparseEqual(t *testing.T, label string, got, want []vectorref.Sparse) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d vectors, want %d", label, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i].Terms, want[i].Terms) {
			t.Fatalf("%s doc %d: terms %v, want %v", label, i, got[i].Terms, want[i].Terms)
		}
		for j := range got[i].Weights {
			if got[i].Weights[j] != want[i].Weights[j] { //thorlint:allow no-float-eq bit-identity is the contract under test
				t.Fatalf("%s doc %d term %q: weight %v, want %v",
					label, i, got[i].Terms[j], got[i].Weights[j], want[i].Weights[j])
			}
		}
	}
}

// TestBlendIDVec checks the weighted-merge kernel: disjoint, overlapping,
// and empty operands, plus the centroid-absorption identity — blending an
// N-member centroid with an n-member batch mean at weights N/(N+n) and
// n/(N+n) equals the centroid over the combined membership to float
// tolerance.
func TestBlendIDVec(t *testing.T) {
	a := NewIDVec([]int32{0, 2, 5}, []float64{1, 2, 3})
	b := NewIDVec([]int32{2, 3}, []float64{10, 20})
	got := BlendIDVec(a, 0.5, b, 0.25)
	wantIDs := []int32{0, 2, 3, 5}
	wantW := []float64{0.5, 0.5*2 + 0.25*10, 0.25 * 20, 1.5}
	if !reflect.DeepEqual(got.IDs, wantIDs) {
		t.Fatalf("IDs = %v, want %v", got.IDs, wantIDs)
	}
	for i := range wantW {
		if got.Weights[i] != wantW[i] { //thorlint:allow no-float-eq exact arithmetic on small integers
			t.Fatalf("weight[%d] = %v, want %v", i, got.Weights[i], wantW[i])
		}
	}
	var norm float64
	for _, w := range wantW {
		norm += w * w
	}
	if math.Abs(got.Norm()-math.Sqrt(norm)) > 1e-15 {
		t.Fatalf("norm = %v, want %v", got.Norm(), math.Sqrt(norm))
	}

	if z := BlendIDVec(IDVec{}, 1, IDVec{}, 1); z.Len() != 0 || z.Norm() != 0 { //thorlint:allow no-float-eq empty blend has exactly zero norm
		t.Fatalf("empty blend = %v entries, norm %v", z.Len(), z.Norm())
	}

	// Centroid-absorption identity over random members.
	rng := rand.New(rand.NewSource(7))
	mk := func() IDVec {
		n := 1 + rng.Intn(6)
		ids := make([]int32, 0, n)
		ws := make([]float64, 0, n)
		for id := int32(0); id < 12 && len(ids) < n; id++ {
			if rng.Intn(2) == 0 {
				ids = append(ids, id)
				ws = append(ws, rng.Float64())
			}
		}
		return NewIDVec(ids, ws)
	}
	old := make([]IDVec, 5)
	batch := make([]IDVec, 3)
	for i := range old {
		old[i] = mk()
	}
	for i := range batch {
		batch[i] = mk()
	}
	oldC := centroidOnce(old, 12)
	batchC := centroidOnce(batch, 12)
	n, m := float64(len(old)), float64(len(batch))
	blended := BlendIDVec(oldC, n/(n+m), batchC, m/(n+m))
	combined := centroidOnce(append(append([]IDVec{}, old...), batch...), 12)
	if !reflect.DeepEqual(blended.IDs, combined.IDs) {
		t.Fatalf("blended IDs %v, combined %v", blended.IDs, combined.IDs)
	}
	for i := range blended.Weights {
		if math.Abs(blended.Weights[i]-combined.Weights[i]) > 1e-12 {
			t.Fatalf("weight[%d]: blended %v, combined %v", i, blended.Weights[i], combined.Weights[i])
		}
	}
}
