package vector

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"thor/internal/vector/vectorref"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// weightOf returns the weight of term in document doc of iv, or 0 when
// the document does not hold it.
func weightOf(iv Interned, doc int, term string) float64 {
	id, ok := iv.Dict.ID(term)
	if !ok {
		return 0
	}
	v := iv.Vecs[doc]
	for i, x := range v.IDs {
		if x == id {
			return v.Weights[i]
		}
	}
	return 0
}

// The string-keyed primitives of the reference (FromCounts, FromMap,
// Add, Equal) have no interned counterpart; they are checked here,
// beside the contract tests that lean on them.

func TestFromCountsSorted(t *testing.T) {
	v := vectorref.FromCounts(map[string]int{"z": 3, "a": 1, "m": 2})
	if !sort.StringsAreSorted(v.Terms) {
		t.Errorf("terms not sorted: %v", v.Terms)
	}
	if v.Len() != 3 {
		t.Errorf("Len = %d", v.Len())
	}
	if v.Weight("z") != 3 || v.Weight("a") != 1 || v.Weight("missing") != 0 {
		t.Errorf("weights wrong: %v / %v", v.Terms, v.Weights)
	}
}

func TestFromMap(t *testing.T) {
	v := vectorref.FromMap(map[string]float64{"b": 0.5, "a": 1.5})
	if v.Terms[0] != "a" || !almost(v.Weights[0], 1.5) {
		t.Errorf("FromMap = %v %v", v.Terms, v.Weights)
	}
}

func TestNormAndNormalize(t *testing.T) {
	v := NewIDVec([]int32{0, 1}, []float64{3, 4})
	if !almost(v.Norm(), 5) {
		t.Errorf("Norm = %v, want 5", v.Norm())
	}
	weights := []float64{3, 4}
	normalizeWeights(weights)
	if n := NewIDVec([]int32{0, 1}, weights); !almost(n.Norm(), 1) {
		t.Errorf("normalized Norm = %v", n.Norm())
	}
	zero := []float64{0, 0}
	if normalizeWeights(zero); zero[0] != 0 || zero[1] != 0 {
		t.Errorf("zero vector normalized to %v", zero)
	}
}

func TestDot(t *testing.T) {
	// IDs 0, 1, 2 stand for terms x, y, z.
	a := NewIDVec([]int32{0, 1}, []float64{2, 3})
	b := NewIDVec([]int32{1, 2}, []float64{4, 5})
	if !almost(a.Dot(b), 12) {
		t.Errorf("Dot = %v, want 12", a.Dot(b))
	}
	if !almost(a.Dot(IDVec{}), 0) {
		t.Errorf("Dot with empty = %v", a.Dot(IDVec{}))
	}
}

func TestCosine(t *testing.T) {
	a := NewIDVec([]int32{0}, []float64{1})
	b := NewIDVec([]int32{1}, []float64{1})
	if got := a.Cosine(b); got != 0 {
		t.Errorf("orthogonal Cosine = %v, want 0", got)
	}
	if got := a.Cosine(a); !almost(got, 1) {
		t.Errorf("identical Cosine = %v, want 1", got)
	}
	scaled := NewIDVec([]int32{0}, []float64{7})
	if got := a.Cosine(scaled); !almost(got, 1) {
		t.Errorf("scaled Cosine = %v, want 1 (scale invariance)", got)
	}
	if got := a.Cosine(IDVec{}); got != 0 {
		t.Errorf("Cosine with zero vector = %v, want 0", got)
	}
}

func TestCosineBoundsProperty(t *testing.T) {
	property := func(am, bm map[string]uint8) bool {
		ai := make(map[string]int, len(am))
		bi := make(map[string]int, len(bm))
		for k, v := range am {
			ai[k] = int(v)
		}
		for k, v := range bm {
			bi[k] = int(v)
		}
		iv := RawFrequencyInterned([]map[string]int{ai, bi})
		c := iv.Vecs[0].Cosine(iv.Vecs[1])
		return c >= 0 && c <= 1
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAdd(t *testing.T) {
	a := vectorref.FromMap(map[string]float64{"x": 1, "y": 2})
	b := vectorref.FromMap(map[string]float64{"y": 3, "z": 4})
	sum := vectorref.Add(a, b)
	if sum.Weight("x") != 1 || sum.Weight("y") != 5 || sum.Weight("z") != 4 {
		t.Errorf("Add = %v %v", sum.Terms, sum.Weights)
	}
	if got := vectorref.Add(vectorref.Sparse{}, a); !vectorref.Equal(got, a) {
		t.Errorf("Add with empty lost data")
	}
}

func TestCentroid(t *testing.T) {
	// IDs 0 and 1 stand for terms x and y.
	a := NewIDVec([]int32{0}, []float64{1})
	b := NewIDVec([]int32{0, 1}, []float64{3, 2})
	c := centroidOnce([]IDVec{a, b}, 2)
	if !reflect.DeepEqual(c.IDs, []int32{0, 1}) || !almost(c.Weights[0], 2) || !almost(c.Weights[1], 1) {
		t.Errorf("Centroid = %v %v", c.IDs, c.Weights)
	}
	if got := centroidOnce(nil, 2); got.Len() != 0 {
		t.Errorf("empty Centroid = %v", got)
	}
	if one := centroidOnce([]IDVec{a}, 2); !reflect.DeepEqual(one, a) {
		t.Errorf("singleton Centroid changed vector")
	}
}

func TestEqual(t *testing.T) {
	a := vectorref.FromMap(map[string]float64{"x": 1})
	b := vectorref.FromMap(map[string]float64{"x": 1})
	c := vectorref.FromMap(map[string]float64{"x": 2})
	d := vectorref.FromMap(map[string]float64{"y": 1})
	if !vectorref.Equal(a, b) || vectorref.Equal(a, c) || vectorref.Equal(a, d) {
		t.Errorf("Equal misbehaves")
	}
}

func TestTFIDFFormula(t *testing.T) {
	// Two documents; term "shared" in both, term "rare" only in doc 0.
	docs := []map[string]int{
		{"shared": 4, "rare": 1},
		{"shared": 2},
	}
	iv := TFIDFInterned(docs)
	// Pre-normalization weights per the paper's formula
	//   w = log(tf+1) · log((n+1)/df)
	wShared0 := math.Log(5) * math.Log(3.0/2.0)
	wRare0 := math.Log(2) * math.Log(3.0/1.0)
	norm := math.Sqrt(wShared0*wShared0 + wRare0*wRare0)
	if got := weightOf(iv, 0, "shared"); !almost(got, wShared0/norm) {
		t.Errorf("shared weight = %v, want %v", got, wShared0/norm)
	}
	if got := weightOf(iv, 0, "rare"); !almost(got, wRare0/norm) {
		t.Errorf("rare weight = %v, want %v", got, wRare0/norm)
	}
	// Normalized.
	if !almost(iv.Vecs[0].Norm(), 1) || !almost(iv.Vecs[1].Norm(), 1) {
		t.Errorf("TFIDF vectors not normalized")
	}
}

// TestTFIDFUbiquitousTermKeepsWeight verifies the property the paper calls
// out: because of the +1 in the idf numerator, a term occurring in every
// document (like <table> in every page) still has non-zero weight, so
// varying frequencies still separate pages.
func TestTFIDFUbiquitousTermKeepsWeight(t *testing.T) {
	docs := []map[string]int{
		{"table": 20},
		{"table": 2},
		{"table": 2},
	}
	iv := TFIDFInterned(docs)
	for i := range iv.Vecs {
		if w := weightOf(iv, i, "table"); w <= 0 {
			t.Errorf("doc %d: ubiquitous term weight = %v, want > 0", i, w)
		}
	}
}

func TestRawFrequency(t *testing.T) {
	iv := RawFrequencyInterned([]map[string]int{{"a": 3, "b": 4}})
	if !almost(iv.Vecs[0].Norm(), 1) {
		t.Errorf("RawFrequency not normalized")
	}
	if !almost(weightOf(iv, 0, "a"), 0.6) || !almost(weightOf(iv, 0, "b"), 0.8) {
		t.Errorf("RawFrequency weights = %v", iv.Vecs[0].Weights)
	}
}

// TestDocumentFrequencies: the accumulator's DF table counts the
// documents holding each term, not the term's occurrences.
func TestDocumentFrequencies(t *testing.T) {
	acc := NewAccumulator(false)
	for _, counts := range []map[string]int{
		{"a": 1, "b": 5},
		{"b": 1},
		{"b": 2, "c": 1},
	} {
		acc.Add(counts)
	}
	if df := acc.DF(); len(df) != 3 || df["a"] != 1 || df["b"] != 3 || df["c"] != 1 {
		t.Errorf("DF = %v", df)
	}
}

// TestTFIDFWeightEdgeCases checks the reference single-term weight the
// DF-weighting tests build their expectations from.
func TestTFIDFWeightEdgeCases(t *testing.T) {
	if vectorref.TFIDFWeight(0, 10, 5) != 0 {
		t.Errorf("zero tf should give zero weight")
	}
	if vectorref.TFIDFWeight(3, 10, 0) != 0 {
		t.Errorf("zero df should give zero weight")
	}
	want := math.Log(4) * math.Log(11.0/5.0)
	if got := vectorref.TFIDFWeight(3, 10, 5); !almost(got, want) {
		t.Errorf("TFIDFWeight = %v, want %v", got, want)
	}
}

// TestTFIDFSeparatesClasses reproduces in miniature the <b>-tag example of
// Section 3.1.2: two classes of pages share the same tag profile except
// one low-frequency discriminating tag; after TFIDF, cross-class cosine
// must be lower than within-class cosine.
func TestTFIDFSeparatesClasses(t *testing.T) {
	docs := []map[string]int{
		{"html": 1, "body": 1, "table": 5, "b": 1}, // single-result pages
		{"html": 1, "body": 1, "table": 5, "b": 1},
		{"html": 1, "body": 1, "table": 5}, // no-result pages
		{"html": 1, "body": 1, "table": 5},
	}
	iv := TFIDFInterned(docs)
	within := iv.Vecs[0].Cosine(iv.Vecs[1])
	cross := iv.Vecs[0].Cosine(iv.Vecs[2])
	if within <= cross {
		t.Errorf("TFIDF failed to separate classes: within=%v cross=%v", within, cross)
	}
}

// TestLogCountsMatchMathLog checks every entry of the whole-count log
// table against math.Log, and that logCount falls back to math.Log past
// the table, between whole counts and below zero.
func TestLogCountsMatchMathLog(t *testing.T) {
	for c := range logCounts {
		if got, want := logCounts[c], math.Log(float64(c)+1); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("logCounts[%d] = %x, math.Log %x", c, math.Float64bits(got), math.Float64bits(want))
		}
	}
	for _, c := range []float64{0, 1, 2.5, 1023, 1024, 1e6, 0.25, -0.5} {
		if got, want := logCount(c), math.Log(c+1); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("logCount(%v) = %x, math.Log %x", c, math.Float64bits(got), math.Float64bits(want))
		}
	}
}
