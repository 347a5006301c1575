package core

import (
	"thor/internal/cluster"
	"thor/internal/corpus"
	"thor/internal/parallel"
)

// BuildModelFromSource runs the two-phase analysis over a page stream
// with bounded derived state: pages arrive one at a time through the
// Source, and the first pass keeps only each page's raw term-count
// vector, its three ranking scalars, and the running document-frequency
// table, releasing the parsed tree and signature maps before the next
// page is drawn (Page.ReleaseDerived). The second pass DF-weights and
// normalizes the vectors in place. Peak derived residency is therefore
// O(sparse vectors) instead of O(trees + signature maps) across the
// whole sample; only the pages of the top-m ranked clusters re-parse
// their trees, when phase two examines their subtrees.
//
// The output is bit-identical to BuildModel over the collected slice:
// the streaming TFIDF pass reproduces the batch weighting exactly
// (vector.Accumulator's contract) and the ranking consumes the same
// scalars in the same order. A non-EOF error from the source aborts the
// build and is returned wrapped.
func (e *Extractor) BuildModelFromSource(src corpus.Source) (*Model, error) {
	return e.buildModel(src, true)
}

// buildModel is the shared spine of BuildModel and BuildModelFromSource.
// release controls whether each page's derived views are dropped after
// its features are extracted: the streaming path owns its pages and
// releases them; the eager path serves callers who share the slice (and
// its node identities) with later scoring, so it must not. The eager
// path's pages keep their trees, so phase one keeps each page's token
// record too and set ranking reads it; the streaming path's phase two
// records the re-parsed pages again, cluster by cluster.
func (e *Extractor) buildModel(src corpus.Source, release bool) (*Model, error) {
	cfg := e.cfg
	p1, err := phase1(src, cfg, release)
	if err != nil {
		return nil, err
	}

	// Training-set extraction, identical to the historical fused Extract:
	// run phase two over the top m ranked clusters concurrently, each
	// cluster on its own derived seed.
	res := &Result{Phase1: p1.res}
	m := cfg.TopClusters
	if m > len(res.Phase1.Ranked) {
		m = len(res.Phase1.Ranked)
	}
	res.PassedClusters = append(res.PassedClusters, res.Phase1.Ranked[:m]...)
	terms := p1.terms()
	res.PerCluster = parallel.Map(m, cfg.Workers, func(ci int) *Phase2Result {
		return phase2(res.Phase1.Ranked[ci].Pages, cfg, parallel.DeriveSeed(cfg.Seed, int64(ci)), terms)
	})
	for _, p2 := range res.PerCluster {
		res.Pagelets = append(res.Pagelets, p2.Pagelets...)
	}

	interned := p1.interned
	model := &Model{
		Cfg:       cfg,
		NDocs:     len(p1.pages),
		DF:        p1.df,
		Dict:      interned.Dict,
		Centroids: p1.cres.Centroids,
		Wrappers:  make([]*Wrapper, p1.cres.Clustering.K),
		training:  res,
	}
	if model.Centroids == nil {
		// Non-centroid clusterers (size, URL, random, tree-edit): derive
		// assignment centroids from the clustering in the shared vector
		// space.
		model.Centroids = cluster.ClusterCentroidsInterned(interned.Vecs, p1.cres.Clustering, interned.Dict.Len())
	}
	// The drift baseline is computed against the *final* assignment
	// centroids, so it describes exactly the geometry fresh pages will be
	// assigned in.
	model.Baseline = computeBaseline(interned.Vecs, model.Centroids)
	for ci, pc := range res.PassedClusters {
		w, err := e.BuildWrapper(res.PerCluster[ci])
		if err != nil {
			continue // no region selected; the cluster serves no pagelets
		}
		model.Wrappers[pc.ClusterID] = w
	}
	return model, nil
}
