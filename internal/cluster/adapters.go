package cluster

import "thor/internal/vector"

// This file adapts the package's clustering algorithms to the Clusterer
// interface and registers them. Each adapter maps the generic Config onto
// the algorithm's own knobs exactly as the pre-registry call sites did, so
// selecting an algorithm by name produces bit-identical clusterings.

func init() {
	Register(kmeansClusterer{})
	Register(bisectingClusterer{})
	Register(kmedoidsClusterer{})
	Register(randomClusterer{})
	Register(bySizeClusterer{})
	Register(byURLClusterer{})
	Register(byTreeEditClusterer{})
	Register(dbscanClusterer{})
}

// interned returns the input's interned view, or the error naming the
// vector representation a vector-space clusterer needs.
func interned(name string, in Input) (vector.Interned, error) {
	if in.Interned == nil {
		return vector.Interned{}, needErr(name, "vector")
	}
	return in.Interned(), nil
}

// centroidResult completes a vector-space clustering with its ID-space
// centroids and internal similarity.
func centroidResult(iv vector.Interned, cl Clustering) Result {
	centroids := ClusterCentroidsInterned(iv.Vecs, cl, iv.Dict.Len())
	return Result{Clustering: cl, Similarity: InternalSimilarityInterned(iv.Vecs, cl, centroids),
		Dict: iv.Dict, Centroids: centroids}
}

// kmeansClusterer is THOR's choice: Simple K-Means over sparse cosine
// space with restarts guided by internal similarity.
type kmeansClusterer struct{}

func (kmeansClusterer) Name() string { return "kmeans" }

func (c kmeansClusterer) Cluster(in Input, cfg Config) (Result, error) {
	iv, err := interned(c.Name(), in)
	if err != nil {
		return Result{}, err
	}
	res := KMeansInterned(iv.Vecs, iv.Dict.Len(), KMeansConfig{K: cfg.K, Restarts: cfg.Restarts, Seed: cfg.Seed, Workers: cfg.Workers})
	return Result{Clustering: res.Clustering, Similarity: res.Similarity,
		Dict: iv.Dict, Centroids: res.Centroids}, nil
}

// bisectingClusterer is the Steinbach et al. [29] bisecting K-Means.
type bisectingClusterer struct{}

func (bisectingClusterer) Name() string { return "bisecting" }

func (c bisectingClusterer) Cluster(in Input, cfg Config) (Result, error) {
	iv, err := interned(c.Name(), in)
	if err != nil {
		return Result{}, err
	}
	cl := BisectingKMeansInterned(iv.Vecs, iv.Dict.Len(), BisectingConfig{K: cfg.K, Seed: cfg.Seed})
	return centroidResult(iv, cl), nil
}

// kmedoidsClusterer runs K-Medoids over cosine distance between the item
// vectors — the medoid stand-in for metrics that admit no centroid,
// exposed directly so sweeps can compare it against centroid K-Means.
type kmedoidsClusterer struct{}

func (kmedoidsClusterer) Name() string { return "kmedoids" }

func (c kmedoidsClusterer) Cluster(in Input, cfg Config) (Result, error) {
	iv, err := interned(c.Name(), in)
	if err != nil {
		return Result{}, err
	}
	cl := KMedoids(len(iv.Vecs), func(i, j int) float64 {
		return 1 - iv.Vecs[i].Cosine(iv.Vecs[j])
	}, KMedoidsConfig{K: cfg.K, Restarts: cfg.Restarts, Seed: cfg.Seed})
	return centroidResult(iv, cl), nil
}

// randomClusterer is the uniform-assignment baseline of Figure 4.
type randomClusterer struct{}

func (randomClusterer) Name() string { return "random" }

func (randomClusterer) Cluster(in Input, cfg Config) (Result, error) {
	return Result{Clustering: Random(in.N, cfg.K, cfg.Seed)}, nil
}

// bySizeClusterer is the page-size baseline (1-D K-Means over bytes).
type bySizeClusterer struct{}

func (bySizeClusterer) Name() string { return "bysize" }

func (c bySizeClusterer) Cluster(in Input, cfg Config) (Result, error) {
	if in.Sizes == nil {
		return Result{}, needErr(c.Name(), "size")
	}
	return Result{Clustering: BySize(in.Sizes(), cfg.K, cfg.Seed)}, nil
}

// byURLClusterer is the URL-edit-distance baseline (K-Medoids).
type byURLClusterer struct{}

func (byURLClusterer) Name() string { return "byurl" }

func (c byURLClusterer) Cluster(in Input, cfg Config) (Result, error) {
	if in.URLs == nil {
		return Result{}, needErr(c.Name(), "URL")
	}
	return Result{Clustering: ByURL(in.URLs(), cfg.K, cfg.Seed)}, nil
}

// dbscanClusterer is the density-based alternative for corpora where k is
// unknown — a drifted site after a template change. Config.K is ignored:
// the cluster count emerges from the density structure (ε from the
// k-distance knee, minPts at the conventional 4), and noise points join
// their nearest core cluster so the assignment stays total. Cosine
// distance over the same vector space as kmeans.
type dbscanClusterer struct{}

func (dbscanClusterer) Name() string { return "dbscan" }

func (c dbscanClusterer) Cluster(in Input, cfg Config) (Result, error) {
	iv, err := interned(c.Name(), in)
	if err != nil {
		return Result{}, err
	}
	cl := DBSCAN(len(iv.Vecs), func(i, j int) float64 {
		return 1 - iv.Vecs[i].Cosine(iv.Vecs[j])
	}, DBSCANConfig{})
	return centroidResult(iv, cl), nil
}

// byTreeEditClusterer clusters by normalized tag-tree edit distance — the
// powerful but orders-of-magnitude slower alternative of Section 3.1.2.
type byTreeEditClusterer struct{}

func (byTreeEditClusterer) Name() string { return "bytreeedit" }

func (c byTreeEditClusterer) Cluster(in Input, cfg Config) (Result, error) {
	if in.Trees == nil {
		return Result{}, needErr(c.Name(), "tag-tree")
	}
	return Result{Clustering: ByTreeEdit(in.Trees(), cfg.K, cfg.Seed)}, nil
}
