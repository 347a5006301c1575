package core

import (
	"fmt"

	"thor/internal/corpus"
	"thor/internal/vector"
)

// This file is the model half of the lifecycle refactor: a training-time
// summary of the nearest-centroid distance distribution (the reference a
// drift detector compares live traffic against) and the two update entry
// points a lifecycle manager rebuilds with — Refine, the in-place
// mini-batch K-Means step for mild drift, and RebuildFrom, the full
// two-phase rebuild for severe drift. Both return a *new* model at the
// next revision; a Model stays immutable after construction, which is
// what lets a serving registry hot-swap it behind an atomic pointer with
// requests in flight.

// DriftBuckets is the resolution of the baseline distance histogram:
// nearest-centroid cosine distances (1 − similarity, clamped to [0, 1])
// are counted into this many equal-width buckets. Fixed so histograms
// from different model revisions are always comparable.
const DriftBuckets = 20

// DriftBaseline summarizes the training population in assignment space:
// where the training pages sat relative to their nearest centroids, and
// how many pages each cluster absorbed. A drift detector histograms live
// traffic the same way and compares distributions; the per-cluster sizes
// are the N_c weights of the mini-batch centroid update. Persisted with
// the model.
type DriftBaseline struct {
	// Hist counts training pages by nearest-centroid distance bucket
	// (DriftBuckets equal-width buckets over [0, 1]).
	Hist []int64
	// Sizes is the number of training pages assigned to each centroid,
	// indexed like Model.Centroids.
	Sizes []int64
}

// total returns the histogram mass.
func (b *DriftBaseline) total() int64 {
	var n int64
	for _, c := range b.Hist {
		n += c
	}
	return n
}

// clone deep-copies the baseline so a refined model never shares counter
// slices with its predecessor.
func (b *DriftBaseline) clone() *DriftBaseline {
	return &DriftBaseline{
		Hist:  append([]int64(nil), b.Hist...),
		Sizes: append([]int64(nil), b.Sizes...),
	}
}

// DriftBucket maps a nearest-centroid cosine distance onto its histogram
// bucket, clamping distances outside [0, 1] into the edge buckets (a
// negative-similarity page is simply "very far").
func DriftBucket(d float64) int {
	idx := int(d * DriftBuckets)
	if idx < 0 {
		return 0
	}
	if idx >= DriftBuckets {
		return DriftBuckets - 1
	}
	return idx
}

// computeBaseline assigns every vector to its nearest centroid and folds
// the distances and assignments into a fresh baseline. Integer counts of
// an order-independent fold: the result is identical at any worker count
// and for any permutation of vecs.
func computeBaseline(vecs []vector.IDVec, centroids []vector.IDVec) *DriftBaseline {
	b := &DriftBaseline{
		Hist:  make([]int64, DriftBuckets),
		Sizes: make([]int64, len(centroids)),
	}
	for _, v := range vecs {
		best, sim := vector.AssignNearest(v, centroids)
		b.Hist[DriftBucket(1-sim)]++
		b.Sizes[best]++
	}
	return b
}

// refineMaxIter bounds the anchored reassignment loop of Refine.
const refineMaxIter = 5

// Refine performs one deterministic mini-batch K-Means step over fresh
// pages and returns the refined model at the next revision — the mild
// remedy of the lifecycle policy, for drift that moved the population
// within the existing cluster structure rather than replacing it.
//
// The batch is vectorized in the model's own training space (the frozen
// DF table and dictionary, so each page lands exactly where Apply would
// place it), assigned to the nearest current centroid, and each touched
// centroid is blended with its batch mean at the historical/batch member
// ratio:
//
//	c' = (N_c·c + n_b·mean(batch_c)) / (N_c + n_b)
//
// with N_c the baseline's per-cluster training count. The step then
// re-assigns the batch against the blended centroids and re-blends from
// the *original* anchors until assignments stabilize (at most
// refineMaxIter rounds) — anchoring keeps the update a pure function of
// (model, batch) with no order dependence and no RNG, so a refinement is
// bit-reproducible anywhere.
//
// Dictionary, DF table, NDocs, and wrappers are shared with the receiver
// unchanged: a mini-batch adjusts assignment geometry only. The baseline
// absorbs the batch (histogram of final distances added in, sizes grown
// by the batch memberships), so a detector rebased on the refined model
// compares future traffic against the population the model has now seen.
func (m *Model) Refine(pages []*corpus.Page) (*Model, error) {
	if len(pages) == 0 {
		return nil, fmt.Errorf("core: Refine on an empty batch")
	}
	if m.Baseline == nil || len(m.Baseline.Sizes) != len(m.Centroids) {
		return nil, fmt.Errorf("core: Refine needs a drift baseline; rebuild the model")
	}

	// Weight the batch in the model's training space, exactly as Apply
	// weights a fresh page, copying each vector out of the scratch.
	weighting := m.applyWeighting()
	var is vector.InternScratch
	vecs := make([]vector.IDVec, len(pages))
	for i, p := range pages {
		vecs[i] = m.Dict.InternCounts(signatureOf(p, m.Cfg.Approach), weighting, &is).Clone()
	}

	// Anchored blend iterations: assignments move against the blended
	// centroids, but every re-blend starts from the original anchors, so
	// the final geometry depends only on the final assignment.
	anchors := m.Centroids
	sizes := m.Baseline.Sizes
	scratch := vector.NewCentroidScratch(m.Dict.Len())
	assign := make([]int, len(vecs))
	blended := append([]vector.IDVec(nil), anchors...)
	for i := range assign {
		assign[i] = -1
	}
	for iter := 0; iter < refineMaxIter; iter++ {
		changed := false
		for i, v := range vecs {
			best, _ := vector.AssignNearest(v, blended)
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed {
			break
		}
		groups := make([][]vector.IDVec, len(anchors))
		for i, c := range assign {
			groups[c] = append(groups[c], vecs[i])
		}
		for c := range anchors {
			if len(groups[c]) == 0 {
				blended[c] = anchors[c]
				continue
			}
			mean := scratch.Centroid(groups[c])
			histN := float64(sizes[c])
			batchN := float64(len(groups[c]))
			total := histN + batchN
			blended[c] = vector.BlendIDVec(anchors[c], histN/total, mean, batchN/total)
		}
	}

	// The refined model: new geometry and baseline, shared everything
	// else. The baseline histogram absorbs the batch at its *final*
	// distances so it describes the refined geometry's own population.
	next := &Model{
		Cfg:       m.Cfg,
		NDocs:     m.NDocs,
		DF:        m.DF,
		Dict:      m.Dict,
		Centroids: blended,
		Wrappers:  m.Wrappers,
		Baseline:  m.Baseline.clone(),
		Rev:       m.Rev + 1,
	}
	for i, v := range vecs {
		_, sim := vector.AssignNearest(v, blended)
		next.Baseline.Hist[DriftBucket(1-sim)]++
		next.Baseline.Sizes[assign[i]]++
	}
	return next, nil
}

// RebuildFrom runs the full two-phase build over pages under the
// receiver's configuration and returns the result at the next revision —
// the severe remedy of the lifecycle policy, for drift that replaced the
// site's template outright. Nothing of the old model survives except its
// configuration and its revision counter: vocabulary, DF table,
// centroids, wrappers, and baseline are all retrained from the given
// pages. The build runs serially on the calling goroutine (Workers
// pinned to 1), so a serving layer invoking it from a request path stays
// goroutine-free; the output is bit-identical to a parallel build by the
// worker-count-independence contract.
func (m *Model) RebuildFrom(pages []*corpus.Page) (*Model, error) {
	if len(pages) == 0 {
		return nil, fmt.Errorf("core: RebuildFrom on an empty batch")
	}
	cfg := m.Cfg
	cfg.Workers = 1
	next, err := NewExtractor(cfg).BuildModelFromSource(corpus.NewSliceSource(pages))
	if err != nil {
		return nil, err
	}
	next.Rev = m.Rev + 1
	return next, nil
}
