package vector

import (
	"fmt"
	"math/rand"
	"testing"

	"thor/internal/vector/vectorref"
)

// randomCounts draws a term-count map mixing dictionary terms with
// out-of-vocabulary ones, the shape a fresh page's signature has.
func randomCounts(rng *rand.Rand, vocab []string) map[string]int {
	counts := make(map[string]int)
	for _, term := range vocab {
		if rng.Intn(2) == 0 {
			counts[term] = 1 + rng.Intn(9)
		}
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		counts[fmt.Sprintf("oov%d", rng.Intn(8))] = 1 + rng.Intn(9)
	}
	return counts
}

// TestInternCountsMatchesComposition pins InternCounts against the exact
// composition it fuses, bit for bit, on randomized inputs with unseen
// vocabulary — for both weighting branches, reusing one scratch
// throughout so buffer-aliasing bugs would surface as cross-trial
// corruption.
func TestInternCountsMatchesComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const nDocs = 12
	vocab := make([]string, 30)
	df := make(map[string]int, len(vocab))
	for i := range vocab {
		vocab[i] = fmt.Sprintf("term%02d", i)
		df[vocab[i]] = 1 + rng.Intn(nDocs)
	}
	d := NewDict(vocab)
	w := DFWeighting(d, df, nDocs)
	var s InternScratch
	for trial := 0; trial < 200; trial++ {
		counts := randomCounts(rng, vocab)

		// TFIDF branch: weight dictionary hits with the paper's formula,
		// normalize in string space, project onto the dictionary.
		weighted := make(map[string]float64, len(counts))
		for term, tf := range counts {
			if _, ok := d.ID(term); ok && df[term] > 0 {
				weighted[term] = vectorref.TFIDFWeight(tf, nDocs, df[term])
			}
		}
		want := vectorref.FromMap(weighted).Normalize()
		got := d.InternCounts(counts, w, &s)
		if !internsAs(got, d, want) {
			t.Fatalf("trial %d TFIDF: InternCounts = %+v, composition = %+v", trial, got, want)
		}

		// Raw branch: out-of-vocabulary terms stay in the normalization.
		want = vectorref.FromCounts(counts).Normalize()
		got = d.InternCounts(counts, Weighting{}, &s)
		if !internsAs(got, d, want) {
			t.Fatalf("trial %d raw: InternCounts = %+v, composition = %+v", trial, got, want)
		}
	}
}

// TestInternCountsDFMissRule: a term the dictionary knows but the DF
// table does not (df = 0) is dropped before weighting under TFIDF,
// mirroring the string path's weighted-map skip.
func TestInternCountsDFMissRule(t *testing.T) {
	d := NewDict([]string{"a", "ghost", "b"})
	df := map[string]int{"a": 2, "b": 1}
	w := DFWeighting(d, df, 4)
	var s InternScratch
	got := d.InternCounts(map[string]int{"a": 3, "ghost": 5, "b": 1}, w, &s)
	for i, id := range got.IDs {
		if d.Term(id) == "ghost" {
			t.Errorf("df-less term interned with weight %v", got.Weights[i])
		}
	}
	if got.Len() != 2 {
		t.Errorf("interned %d terms, want 2", got.Len())
	}
}

// TestAssignNearestMatchesNaiveLoop pins AssignNearest — including its
// CosineUnit fast path — to the verbatim Cosine loop on randomized
// vectors and realistically non-unit centroids (averages are shorter
// than unit), checking winner and similarity bits.
func TestAssignNearestMatchesNaiveLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vocab := make([]string, 20)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("term%02d", i)
	}
	// Vocabulary order is ID order, so each draw's IDs come out sorted.
	randVec := func(scale float64) IDVec {
		var ids []int32
		var weights []float64
		for id := range vocab {
			if rng.Intn(2) == 0 {
				ids = append(ids, int32(id))
				weights = append(weights, rng.Float64())
			}
		}
		normalizeWeights(weights)
		for i := range weights {
			weights[i] *= scale
		}
		return NewIDVec(ids, weights)
	}
	for trial := 0; trial < 100; trial++ {
		v := randVec(1)
		centroids := make([]IDVec, 1+rng.Intn(6))
		for i := range centroids {
			scale := 1.0
			if rng.Intn(2) == 0 {
				scale = 0.3 + 0.6*rng.Float64()
			}
			centroids[i] = randVec(scale)
		}
		wantBest, wantSim := 0, -1.0
		for c, ctr := range centroids {
			if sim := v.Cosine(ctr); sim > wantSim {
				wantBest, wantSim = c, sim
			}
		}
		gotBest, gotSim := AssignNearest(v, centroids)
		if gotBest != wantBest || gotSim != wantSim {
			t.Fatalf("trial %d: AssignNearest = (%d, %x), loop = (%d, %x)",
				trial, gotBest, gotSim, wantBest, wantSim)
		}
	}
}

// TestCosineUnitExactOnUnitNorms verifies the fast path's precondition
// reasoning with vectors whose cached norm is exactly 1.0 (four weights
// of 0.5 square-sum to exactly 1): dividing by 1.0·1.0 is the identity,
// so CosineUnit and Cosine agree bit for bit.
func TestCosineUnitExactOnUnitNorms(t *testing.T) {
	u1 := NewIDVec([]int32{0, 1, 2, 3}, []float64{0.5, 0.5, 0.5, 0.5})
	u2 := NewIDVec([]int32{1, 2, 3, 4}, []float64{0.5, 0.5, 0.5, 0.5})
	if u1.Norm() != 1.0 || u2.Norm() != 1.0 {
		t.Fatalf("norms %v, %v — construction should be exactly unit", u1.Norm(), u2.Norm())
	}
	if cu, c := u1.CosineUnit(u2), u1.Cosine(u2); cu != c {
		t.Errorf("CosineUnit = %x, Cosine = %x on exactly-unit vectors", cu, c)
	}
	best, sim := AssignNearest(u1, []IDVec{u2, u1})
	if best != 1 || sim != 1.0 {
		t.Errorf("AssignNearest self-match = (%d, %v), want (1, 1)", best, sim)
	}
}
