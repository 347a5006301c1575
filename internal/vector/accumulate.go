package vector

import (
	"cmp"
	"slices"
)

// Accumulator builds the weighted document vectors of a collection
// incrementally, one document at a time; TFIDFInterned and
// RawFrequencyInterned are its batch form. A streaming pipeline feeds each
// page's count signature to Add and may then discard the page; the
// accumulator keeps only the compact (term ID, count) entries and the
// running document-frequency table, so peak residency is O(vectors) rather than
// O(pages + count maps + vectors).
//
// TFIDF weighting needs the whole collection's document frequencies, so
// it is necessarily two-pass: Add records the raw term counts (pass 1)
// and FinishInterned applies the DF weighting and normalization
// (pass 2). The finished vectors are bit-identical to the string-keyed
// reference vectorref.TFIDF(docs) — same term order, same per-term
// arithmetic, same normalization order — and, in raw mode, to
// vectorref.RawFrequency(docs); the equivalence is pinned by
// TestAccumulatorMatchesBatch.
type Accumulator struct {
	raw bool
	// ids maps each term seen so far to its first-sight local ID; terms
	// and df are indexed by local ID.
	ids   map[string]int32
	terms []string
	df    []int
	// docs holds each added document's (local ID, count) entries, in no
	// particular order until the finishing pass sorts them.
	docs [][]termCount
}

// termCount is one term of an added document and how often it occurs
// there: 8 bytes, half what an int count pads the pair to. A count is the
// number of times a term occurs in one page, and each occurrence takes at
// least one byte of the page, so int32 holds the count of any page under
// 2 GiB; Add's counts must fit in it.
type termCount struct {
	id int32
	tf int32
}

// NewAccumulator returns an empty accumulator. In raw mode the vectors
// are normalized raw frequencies (RawFrequencyInterned); otherwise they
// receive the paper's TFIDF weighting at FinishInterned. Document
// frequencies are tallied in both modes.
func NewAccumulator(raw bool) *Accumulator {
	return &Accumulator{raw: raw, ids: make(map[string]int32)}
}

// Add appends one document's term counts, counted straight into the
// accumulator's local ID space: one map lookup per term, no string-keyed
// vector and no string sort. The counts map is read, never retained: the
// caller may reuse or drop it immediately.
func (a *Accumulator) Add(counts map[string]int) {
	doc := make([]termCount, 0, len(counts))
	//thorlint:allow no-map-range-order entries are sorted into term order at finish; local IDs never reach an output
	for term, tf := range counts {
		id := a.intern(term)
		a.df[id]++
		doc = append(doc, termCount{id: id, tf: int32(tf)})
	}
	a.docs = append(a.docs, doc)
}

// intern returns term's local ID, assigning the next one (with a zero
// document frequency) on first sight. Local IDs run densely from 0 in
// first-sight order.
func (a *Accumulator) intern(term string) int32 {
	id, ok := a.ids[term]
	if !ok {
		id = int32(len(a.terms))
		a.ids[term] = id
		a.terms = append(a.terms, term)
		a.df = append(a.df, 0)
	}
	return id
}

// Len returns how many documents have been added.
func (a *Accumulator) Len() int { return len(a.docs) }

// DF returns a copy of the document-frequency table accumulated so far —
// after FinishInterned, how many of the added documents hold each term.
// Returning a copy keeps the accumulator's own table safe: a caller
// mutating the result mid-stream can no longer corrupt the weighting of
// documents still to be finished.
func (a *Accumulator) DF() map[string]int {
	out := make(map[string]int, len(a.terms))
	for id, term := range a.terms {
		out[term] = a.df[id]
	}
	return out
}

// FinishInterned is the second pass into ID space. The dictionary is
// built over the accumulated vocabulary in ascending term order, each
// local ID is remapped to its dictionary ID once, and every document's
// entries are sorted by dictionary ID — ascending-term order — before
// Vector weights and normalizes them, so the arithmetic and its order
// are the string-keyed reference's. It spends the accumulator; the DF
// table stays readable.
func (a *Accumulator) FinishInterned() Interned {
	d := NewDict(a.terms)
	remap := make([]int32, len(a.terms))
	var idf []float64
	if !a.raw {
		idf = make([]float64, len(a.terms))
	}
	for local, term := range a.terms {
		id := d.ids[term]
		remap[local] = id
		if idf != nil {
			idf[id] = IDF(len(a.docs), a.df[local])
		}
	}
	vecs := make([]IDVec, len(a.docs))
	for i, doc := range a.docs {
		for j := range doc {
			doc[j].id = remap[doc[j].id]
		}
		slices.SortFunc(doc, func(x, y termCount) int { return cmp.Compare(x.id, y.id) })
		ids := make([]int32, len(doc))
		counts := make([]float64, len(doc))
		for j, e := range doc {
			ids[j] = e.id
			counts[j] = float64(e.tf)
		}
		vecs[i] = Vector(ids, counts, idf)
		a.docs[i] = nil // drop the count entries as we go
	}
	a.docs = nil
	return Interned{Dict: d, Vecs: vecs}
}
