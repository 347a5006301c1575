package vector

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"thor/internal/vector/vectorref"
)

func TestDictBasics(t *testing.T) {
	d := NewDict([]string{"m", "a", "z", "a", "m"})
	if d.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (duplicates collapsed)", d.Len())
	}
	if got := d.Terms(); !reflect.DeepEqual(got, []string{"a", "m", "z"}) {
		t.Fatalf("Terms = %v", got)
	}
	for i, term := range []string{"a", "m", "z"} {
		id, ok := d.ID(term)
		if !ok || id != int32(i) {
			t.Errorf("ID(%q) = %d,%v, want %d,true (IDs in ascending term order)", term, id, ok, i)
		}
		if d.Term(int32(i)) != term {
			t.Errorf("Term(%d) = %q, want %q", i, d.Term(int32(i)), term)
		}
	}
	if _, ok := d.ID("missing"); ok {
		t.Error("ID of unknown term reported present")
	}
	if d.Term(-1) != "" || d.Term(3) != "" {
		t.Error("out-of-range Term not empty")
	}
	// The Terms copy must not alias the dictionary's own table.
	terms := d.Terms()
	terms[0] = "mutated"
	if d.Term(0) != "a" {
		t.Error("Terms() exposed internal storage")
	}
}

// toRef converts an interned vector to the reference's string-keyed
// form.
func toRef(d *Dict, v IDVec) vectorref.Sparse {
	return vectorref.FromIDs(d, v.IDs, v.Weights)
}

// refs converts every vector of iv to the reference's form.
func refs(iv Interned) []vectorref.Sparse {
	out := make([]vectorref.Sparse, len(iv.Vecs))
	for i, v := range iv.Vecs {
		out[i] = toRef(iv.Dict, v)
	}
	return out
}

// internsAs reports whether v is the reference vector ref interned into
// d: ref's in-dictionary entries bit for bit, and a cached norm carrying
// the bits of ref's full norm, dropped terms included.
func internsAs(v IDVec, d *Dict, ref vectorref.Sparse) bool {
	return math.Float64bits(v.Norm()) == math.Float64bits(ref.Norm()) &&
		vectorref.Equal(toRef(d, v), ref.Project(d))
}

// TestInternDropsUnknownKeepsNorm pins the DF-miss rule of interning a
// fresh page: terms outside the dictionary vanish from the ID list but
// stay in the cached norm, so cosine against any interned vector matches
// the string-keyed reference on the un-interned vector exactly.
func TestInternDropsUnknownKeepsNorm(t *testing.T) {
	d := NewDict([]string{"a", "b"})
	counts := map[string]int{"a": 1, "b": 2, "unseen": 3}
	v := vectorref.FromCounts(counts).Normalize()
	var s InternScratch
	iv := d.InternCounts(counts, Weighting{}, &s).Clone()
	if iv.Len() != 2 {
		t.Fatalf("interned Len = %d, want 2 (unseen dropped)", iv.Len())
	}
	if iv.Norm() != v.Norm() { //thorlint:allow no-float-eq the full-vector norm is the contract under test
		t.Fatalf("interned norm %v, want the full-vector norm %v", iv.Norm(), v.Norm())
	}
	if !internsAs(iv, d, v) {
		t.Fatalf("interned %+v, want the reference %+v projected", iv, v)
	}
	otherCounts := map[string]int{"a": 5, "b": 1}
	other := d.InternCounts(otherCounts, Weighting{}, &s)
	want := vectorref.Cosine(v, vectorref.FromCounts(otherCounts).Normalize())
	if got := iv.Cosine(other); got != want { //thorlint:allow no-float-eq bit-identity is the contract under test
		t.Fatalf("interned Cosine = %v, string Cosine = %v", got, want)
	}
}

// TestInternNilDict: a nil dictionary is the empty vocabulary, and
// interning against an empty one drops every term yet keeps the full
// norm.
func TestInternNilDict(t *testing.T) {
	var nilDict *Dict
	if nilDict.Len() != 0 || nilDict.Terms() != nil {
		t.Error("nil dict Len/Terms not empty")
	}
	d := NewDict(nil)
	counts := map[string]int{"x": 3, "y": 4}
	var s InternScratch
	iv := d.InternCounts(counts, Weighting{}, &s)
	if iv.Len() != 0 {
		t.Fatalf("empty-dict intern kept %d entries", iv.Len())
	}
	if want := vectorref.FromCounts(counts).Normalize(); !internsAs(iv, d, want) {
		t.Fatalf("empty-dict intern norm = %v, want %v", iv.Norm(), want.Norm())
	}
}

func TestIDVecZeroValue(t *testing.T) {
	var zero IDVec
	if zero.Len() != 0 || zero.Norm() != 0 {
		t.Fatalf("zero IDVec: Len=%d Norm=%v", zero.Len(), zero.Norm())
	}
	v := NewIDVec([]int32{0}, []float64{1})
	if got := v.Cosine(zero); got != 0 {
		t.Fatalf("Cosine with zero vector = %v, want 0", got)
	}
	if got := zero.Dot(v); got != 0 {
		t.Fatalf("Dot with zero vector = %v, want 0", got)
	}
}

func TestCosineUnitNearCosine(t *testing.T) {
	iv := TFIDFInterned(randomDocs(rand.New(rand.NewSource(3)), 8))
	for i := range iv.Vecs {
		for j := range iv.Vecs {
			a, b := iv.Vecs[i], iv.Vecs[j]
			if diff := a.CosineUnit(b) - a.Cosine(b); diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("CosineUnit and Cosine diverge on unit vectors: %v", diff)
			}
		}
	}
}

// TestInternedPipelineMatchesStringPipeline is the property test of the
// interned tentpole: over random corpora, every stage of the ID pipeline
// — TFIDFInterned / RawFrequencyInterned construction, Dot, Cosine, and
// the dense-accumulator centroid — is exact-float identical to the
// string-keyed reference pipeline (vectorref).
func TestInternedPipelineMatchesStringPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		docs := randomDocs(rng, rng.Intn(15))
		for _, raw := range []bool{false, true} {
			var want []vectorref.Sparse
			var iv Interned
			if raw {
				want = vectorref.RawFrequency(docs)
				iv = RawFrequencyInterned(docs)
			} else {
				want = vectorref.TFIDF(docs)
				iv = TFIDFInterned(docs)
			}
			if len(iv.Vecs) != len(want) {
				t.Fatalf("trial %d raw=%v: %d vectors, want %d", trial, raw, len(iv.Vecs), len(want))
			}
			if !sort.StringsAreSorted(iv.Dict.Terms()) {
				t.Fatalf("trial %d raw=%v: dictionary not sorted", trial, raw)
			}
			// Construction: the ID vectors project back to the exact string
			// vectors, with cached norms matching the recomputed ones.
			back := refs(iv)
			for i := range want {
				if !reflect.DeepEqual(back[i], want[i]) {
					t.Fatalf("trial %d raw=%v doc %d: interned %+v, want %+v", trial, raw, i, back[i], want[i])
				}
				if iv.Vecs[i].Norm() != want[i].Norm() { //thorlint:allow no-float-eq bit-identity is the contract under test
					t.Fatalf("trial %d raw=%v doc %d: cached norm %v, recomputed %v",
						trial, raw, i, iv.Vecs[i].Norm(), want[i].Norm())
				}
			}
			// Kernels: every pairwise dot and cosine bit-identical.
			for i := range want {
				for j := range want {
					if got, w := iv.Vecs[i].Dot(iv.Vecs[j]), vectorref.Dot(want[i], want[j]); got != w { //thorlint:allow no-float-eq bit-identity is the contract under test
						t.Fatalf("trial %d raw=%v Dot(%d,%d) = %v, want %v", trial, raw, i, j, got, w)
					}
					if got, w := iv.Vecs[i].Cosine(iv.Vecs[j]), vectorref.Cosine(want[i], want[j]); got != w { //thorlint:allow no-float-eq bit-identity is the contract under test
						t.Fatalf("trial %d raw=%v Cosine(%d,%d) = %v, want %v", trial, raw, i, j, got, w)
					}
				}
			}
			// Centroid: the dense scatter/gather kernel equals the
			// reference's Add-fold, on random member subsets, with the scratch reused
			// across groups.
			scratch := NewCentroidScratch(iv.Dict.Len())
			for rep := 0; rep < 4; rep++ {
				var members []int
				for i := range want {
					if rng.Intn(2) == 0 {
						members = append(members, i)
					}
				}
				group := make([]vectorref.Sparse, len(members))
				igroup := make([]IDVec, len(members))
				for gi, m := range members {
					group[gi] = want[m]
					igroup[gi] = iv.Vecs[m]
				}
				wantC := vectorref.Centroid(group)
				gotC := scratch.Centroid(igroup)
				// Equal, not DeepEqual: the reference's empty centroid is
				// nil-backed while FromIDs yields empty non-nil slices.
				if !vectorref.Equal(toRef(iv.Dict, gotC), wantC) {
					t.Fatalf("trial %d raw=%v rep %d: centroid %+v, want %+v",
						trial, raw, rep, toRef(iv.Dict, gotC), wantC)
				}
				if gotC.Norm() != wantC.Norm() { //thorlint:allow no-float-eq bit-identity is the contract under test
					t.Fatalf("trial %d raw=%v rep %d: centroid norm %v, want %v",
						trial, raw, rep, gotC.Norm(), wantC.Norm())
				}
			}
		}
	}
}

// TestCentroidScratchGrowsAndResets exercises the scratch beyond its
// pre-sized dimension and across reuse: a second Centroid over different
// members must see clean buffers.
func TestCentroidScratchGrowsAndResets(t *testing.T) {
	scratch := NewCentroidScratch(1) // deliberately undersized
	a := NewIDVec([]int32{0, 7}, []float64{1, 2})
	b := NewIDVec([]int32{3}, []float64{4})
	got := scratch.Centroid([]IDVec{a, b})
	wantIDs := []int32{0, 3, 7}
	wantWeights := []float64{0.5, 2, 1}
	if !reflect.DeepEqual(got.IDs, wantIDs) || !reflect.DeepEqual(got.Weights, wantWeights) {
		t.Fatalf("centroid = %v %v, want %v %v", got.IDs, got.Weights, wantIDs, wantWeights)
	}
	// Reuse: stale accumulator state from the first call must not leak.
	second := scratch.Centroid([]IDVec{b})
	if !reflect.DeepEqual(second.IDs, []int32{3}) || !reflect.DeepEqual(second.Weights, []float64{4}) {
		t.Fatalf("reused scratch centroid = %v %v", second.IDs, second.Weights)
	}
	if empty := scratch.Centroid(nil); empty.Len() != 0 || empty.Norm() != 0 {
		t.Fatalf("empty centroid = %v", empty)
	}
	one := centroidOnce([]IDVec{a}, 8)
	if !reflect.DeepEqual(one, a) {
		t.Fatalf("singleton centroid changed vector: %+v vs %+v", one, a)
	}
}

// centroidOnce is the centroid of vs over a fresh scratch.
func centroidOnce(vs []IDVec, dim int) IDVec {
	return NewCentroidScratch(dim).Centroid(vs)
}
