package vector

import "math"

// Accumulator builds the weighted document vectors of a collection
// incrementally, one document at a time — the streaming counterpart of
// TFIDF and RawFrequency. A streaming pipeline feeds each page's count
// signature to Add and may then discard the page; the accumulator keeps
// only the compact sparse vector and the running document-frequency
// table, so peak residency is O(vectors) rather than O(pages + count
// maps + vectors).
//
// TFIDF weighting needs the whole collection's document frequencies, so
// it is necessarily two-pass: Add records the raw term-count vector
// (pass 1) and Finish applies the DF weighting and normalization in
// place (pass 2). The finished vectors are bit-identical to
// TFIDF(docs) — same term order, same per-term arithmetic, same
// normalization order — and, in raw mode, to RawFrequency(docs); the
// equivalence is pinned by TestAccumulatorMatchesBatch.
//
// An accumulator is resumable: Reset returns a finished (spent)
// accumulator to its empty state so one allocation serves a stream of
// mini-batches, and Merge folds another accumulator's documents in, so
// shards accumulated independently can be combined before the finishing
// pass.
type Accumulator struct {
	raw  bool
	vecs []Sparse
	df   map[string]int
}

// NewAccumulator returns an empty accumulator. In raw mode the vectors
// are normalized raw frequencies (RawFrequency); otherwise they receive
// the paper's TFIDF weighting at Finish. Document frequencies are
// tallied in both modes.
func NewAccumulator(raw bool) *Accumulator {
	return &Accumulator{raw: raw, df: make(map[string]int)}
}

// Add appends one document's term counts. The counts map is read, never
// retained: the caller may reuse or drop it immediately.
func (a *Accumulator) Add(counts map[string]int) {
	v := FromCounts(counts)
	if a.raw {
		v = v.Normalize()
	}
	a.vecs = append(a.vecs, v)
	for term := range counts {
		a.df[term]++
	}
}

// Len returns how many documents have been added.
func (a *Accumulator) Len() int { return len(a.vecs) }

// DF returns a copy of the document-frequency table accumulated so far —
// after Finish, exactly DocumentFrequencies over the added documents.
// Returning a copy keeps the accumulator's own table safe: a caller
// mutating the result mid-stream can no longer corrupt the weighting of
// documents still to be finished.
func (a *Accumulator) DF() map[string]int {
	out := make(map[string]int, len(a.df))
	for term, n := range a.df {
		out[term] = n
	}
	return out
}

// Reset returns the accumulator to its empty state — no documents, an
// empty DF table, the same weighting mode — so it can accumulate a fresh
// batch after a finishing call spent it. The previously returned vectors
// are unaffected: Reset drops the accumulator's references instead of
// recycling their storage.
func (a *Accumulator) Reset() {
	a.vecs = nil
	a.df = make(map[string]int)
}

// Merge folds b's accumulated documents into a: b's vectors are appended
// in their Add order after a's, and the DF tables are summed. Both
// accumulators must be unfinished and share the same weighting mode; b
// is spent by the merge (a takes ownership of its vectors) and must be
// Reset before reuse. Merging two accumulators and finishing is
// bit-identical to adding both streams to one accumulator in
// concatenation order (pinned by TestAccumulatorMergeMatchesConcat).
func (a *Accumulator) Merge(b *Accumulator) {
	a.vecs = append(a.vecs, b.vecs...)
	for term, n := range b.df {
		a.df[term] += n
	}
	b.vecs = nil
}

// Finish applies the second pass — TFIDF weighting and L2 normalization
// in place — and returns the finished vectors. In raw mode the vectors
// are already normalized and are returned as they stand. The accumulator
// is spent afterwards: call Reset before adding again, or the already
// weighted vectors would be weighted a second time.
func (a *Accumulator) Finish() []Sparse {
	if a.raw {
		return a.vecs
	}
	n := float64(len(a.vecs))
	for i := range a.vecs {
		v := &a.vecs[i]
		for j, term := range v.Terms {
			// Identical arithmetic to TFIDF: idf computed from the
			// quotient, then multiplied by log(tf+1).
			idf := math.Log((n + 1) / float64(a.df[term]))
			v.Weights[j] = math.Log(v.Weights[j]+1) * idf
		}
		normalizeInPlace(v)
	}
	return a.vecs
}

// FinishInterned is Finish into ID space: the second pass runs as usual,
// then every finished vector is interned against a dictionary built over
// the accumulated DF table and the string-keyed form is released. The
// interned weights are bit-identical to Finish's (interning only renames
// terms to IDs; no term of a training vector can miss the dictionary,
// since both grew from the same Adds). Like Finish, it spends the
// accumulator until Reset.
func (a *Accumulator) FinishInterned() Interned {
	vecs := a.Finish()
	d := DictFromDF(a.df)
	out := make([]IDVec, len(vecs))
	for i := range vecs {
		out[i] = d.Intern(vecs[i])
		vecs[i] = Sparse{} // drop the string-keyed form as we go
	}
	a.vecs = nil
	return Interned{Dict: d, Vecs: out}
}

// normalizeInPlace scales v to unit L2 norm without allocating, matching
// Normalize bit for bit (same summation and division order; the zero
// vector is left unchanged).
func normalizeInPlace(v *Sparse) {
	var s float64
	for _, w := range v.Weights {
		s += w * w
	}
	n := math.Sqrt(s)
	if n == 0 { //thorlint:allow no-float-eq the zero vector has an exactly zero norm
		return
	}
	for i, w := range v.Weights {
		v.Weights[i] = w / n
	}
}
