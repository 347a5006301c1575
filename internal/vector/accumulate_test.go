package vector

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"thor/internal/vector/vectorref"
)

// randomDocs fabricates per-document term-count maps with overlapping
// vocabulary, including empty documents.
func randomDocs(rng *rand.Rand, n int) []map[string]int {
	docs := make([]map[string]int, n)
	for i := range docs {
		docs[i] = make(map[string]int)
		for t := rng.Intn(8); t > 0; t-- {
			term := fmt.Sprintf("t%d", rng.Intn(12))
			docs[i][term] = 1 + rng.Intn(9)
		}
	}
	return docs
}

// TestAccumulatorMatchesBatch is the streaming-TFIDF contract: feeding
// documents one at a time through the accumulator yields vectors
// bit-identical to the batch string-keyed reference TFIDF (and, in raw
// mode, RawFrequency) over the same documents — every term and every
// weight exactly equal.
func TestAccumulatorMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		docs := randomDocs(rng, rng.Intn(15))

		for _, raw := range []bool{false, true} {
			want := vectorref.TFIDF(docs)
			if raw {
				want = vectorref.RawFrequency(docs)
			}
			acc := NewAccumulator(raw)
			for _, d := range docs {
				acc.Add(d)
			}
			if acc.Len() != len(docs) {
				t.Fatalf("trial %d raw=%v: Len = %d, want %d", trial, raw, acc.Len(), len(docs))
			}
			sparseEqual(t, fmt.Sprintf("trial %d raw=%v", trial, raw), refs(acc.FinishInterned()), want)
			df := map[string]int{}
			for _, d := range docs {
				for term := range d {
					df[term]++
				}
			}
			if !reflect.DeepEqual(acc.DF(), df) {
				t.Fatalf("trial %d raw=%v: DF %v, want %v", trial, raw, acc.DF(), df)
			}
		}
	}
}

func TestAccumulatorDoesNotRetainCounts(t *testing.T) {
	acc := NewAccumulator(false)
	counts := map[string]int{"a": 2, "b": 1}
	acc.Add(counts)
	counts["a"] = 99 // mutate after Add: the accumulator must not see it
	delete(counts, "b")
	vecs := refs(acc.FinishInterned())
	if len(vecs) != 1 || len(vecs[0].Terms) != 2 {
		t.Fatalf("vectors = %v", vecs)
	}
	want := vectorref.TFIDF([]map[string]int{{"a": 2, "b": 1}})
	if !reflect.DeepEqual(vecs[0], want[0]) {
		t.Fatalf("vector = %v, want %v", vecs[0], want[0])
	}
}

// TestAccumulatorDFIsACopy is the mutation-safety regression for DF:
// the returned table is a snapshot, so a caller scribbling on it
// mid-stream cannot corrupt the document frequencies the second pass
// weights with.
func TestAccumulatorDFIsACopy(t *testing.T) {
	docs := []map[string]int{{"a": 2, "b": 1}, {"a": 1}}
	acc := NewAccumulator(false)
	acc.Add(docs[0])
	df := acc.DF()
	df["a"] = 999 // mutate the snapshot between Adds
	delete(df, "b")
	acc.Add(docs[1])
	got := refs(acc.FinishInterned())
	want := vectorref.TFIDF(docs)
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("doc %d: vector %+v, want %+v (DF snapshot mutation leaked into the accumulator)",
				i, got[i], want[i])
		}
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	if got := NewAccumulator(false).FinishInterned(); len(got.Vecs) != 0 || got.Dict.Len() != 0 {
		t.Fatalf("empty FinishInterned = %+v", got)
	}
}
