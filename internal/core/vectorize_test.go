package core

import (
	"math"
	"reflect"
	"testing"

	"thor/internal/corpus"
	"thor/internal/vector"
	"thor/internal/vector/vectorref"
)

// vectorizeModel builds a tiny model directly — trained vocabulary {a: p,
// table, td} — so a page with unseen tags exercises the
// out-of-vocabulary rules of both weighting branches deterministically.
func vectorizeModel(a Approach, df map[string]int) *Model {
	cfg := DefaultConfig()
	cfg.Approach = a
	return &Model{
		Cfg:   cfg,
		NDocs: 4,
		DF:    df,
		Dict:  vector.NewDict([]string{"p", "table", "td"}),
	}
}

// trainedDF is the tiny model's training document frequencies.
func trainedDF() map[string]int { return map[string]int{"p": 4, "table": 2, "td": 1} }

// oovPage holds trained tags (p, table, td) alongside tags no training
// page had (blink, marquee).
func oovPage() *corpus.Page {
	return &corpus.Page{HTML: `<html><body>
		<p>x</p><p>y</p><table><tr><td>z</td></tr></table>
		<blink>new</blink><marquee>tags</marquee>
	</body></html>`}
}

// applyVector is the page vector the apply path assigns: the page's
// signature weighted in the model's training space.
func applyVector(m *Model, page *corpus.Page) vector.IDVec {
	var s vector.InternScratch
	return m.Dict.InternCounts(signatureOf(page, m.Cfg.Approach), m.applyWeighting(), &s).Clone()
}

// sameIDVec reports whether two interned vectors agree bit for bit:
// IDs, weights, and cached norm.
func sameIDVec(a, b vector.IDVec) bool {
	return a.Norm() == b.Norm() && reflect.DeepEqual(a.IDs, b.IDs) && reflect.DeepEqual(a.Weights, b.Weights) //thorlint:allow no-float-eq bit-identity is the contract under test
}

// internsAs reports whether v is the reference vector ref interned into
// d: ref's in-dictionary terms and weights bit for bit, and ref's full
// norm, dropped terms included.
func internsAs(v vector.IDVec, d *vector.Dict, ref vectorref.Sparse) bool {
	return v.Norm() == ref.Norm() && //thorlint:allow no-float-eq bit-identity is the contract under test
		vectorref.Equal(vectorref.FromIDs(d, v.IDs, v.Weights), ref.Project(d))
}

// TestVectorizeRawKeepsOOVTerms: the raw branch of the apply path's
// vectorization must normalize over every term of the page — unseen
// vocabulary included — exactly as FromCounts().Normalize() does, and
// never consult the DF table.
func TestVectorizeRawKeepsOOVTerms(t *testing.T) {
	m := vectorizeModel(RawTags, trainedDF())
	page := oovPage()
	got := applyVector(m, page)
	want := vectorref.FromCounts(page.TagSignature()).Normalize()
	if !internsAs(got, m.Dict, want) {
		t.Fatalf("raw vector = %+v, want FromCounts.Normalize interned = %+v", got, want)
	}
	// Out-of-vocabulary terms leave the ID list but stay in the norm.
	var inDict float64
	for _, w := range got.Weights {
		inDict += w * w
	}
	if math.Sqrt(inDict) >= got.Norm() {
		t.Errorf("raw branch dropped out-of-vocabulary terms from the norm: %v ≥ %v", math.Sqrt(inDict), got.Norm())
	}
	// DF must not influence raw weighting: same page, emptied DF table.
	if !sameIDVec(applyVector(vectorizeModel(RawTags, map[string]int{}), page), got) {
		t.Error("raw branch consulted the DF table")
	}
}

// TestVectorizeTFIDFDropsDFMisses: the TFIDF branch of the apply path's
// vectorization drops terms with no document frequency before weighting
// and normalizes over the survivors, matching the per-term TFIDFWeight
// composition.
func TestVectorizeTFIDFDropsDFMisses(t *testing.T) {
	m := vectorizeModel(TFIDFTags, trainedDF())
	page := oovPage()
	got := applyVector(m, page)
	weighted := make(map[string]float64)
	for term, tf := range page.TagSignature() {
		if df := m.DF[term]; df > 0 {
			weighted[term] = vectorref.TFIDFWeight(tf, m.NDocs, df)
		}
	}
	want := vectorref.FromMap(weighted).Normalize()
	if !internsAs(got, m.Dict, want) {
		t.Fatalf("TFIDF vector = %+v, want weighted composition = %+v", got, want)
	}
	if math.Abs(got.Norm()-1) > 1e-12 {
		t.Errorf("TFIDF branch kept df-less terms in the norm: %v", got.Norm())
	}
}
