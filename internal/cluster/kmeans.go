// Package cluster implements the clustering algorithms of THOR's page
// clustering phase: Simple K-Means over sparse cosine space with random
// restarts guided by internal similarity (Sections 3.1.2 and 3.1.4), plus
// the baseline page-grouping approaches the paper evaluates against
// (URL-based, size-based, and random assignment).
package cluster

import (
	"math/rand"

	"thor/internal/parallel"
	"thor/internal/vector"
)

// Clustering is an assignment of n items to k clusters. Assign[i] is the
// cluster index of item i; Clusters[c] lists the item indexes of cluster c.
// Clusters may be empty.
type Clustering struct {
	K        int
	Assign   []int
	Clusters [][]int
}

// newClustering builds the Clusters index lists from an assignment.
func newClustering(k int, assign []int) Clustering {
	clusters := make([][]int, k)
	for i, c := range assign {
		clusters[c] = append(clusters[c], i)
	}
	return Clustering{K: k, Assign: assign, Clusters: clusters}
}

// Sizes returns the number of items in each cluster.
func (c Clustering) Sizes() []int {
	sizes := make([]int, c.K)
	for i, members := range c.Clusters {
		sizes[i] = len(members)
	}
	return sizes
}

// KMeansConfig controls the Simple K-Means run.
type KMeansConfig struct {
	K        int // number of clusters (clamped to [1, n])
	Restarts int // M: independent runs with random initial centers; best by internal similarity wins
	MaxIter  int // safety bound on assign/recenter cycles per run (default 100)
	Seed     int64
	// Workers bounds how many restarts run concurrently: 1 is the serial
	// path, values below 1 select GOMAXPROCS. Each restart derives its own
	// seed from Seed, so the chosen clustering is identical for every
	// worker count.
	Workers int
}

// KMeansResult is the string-keyed reference's result: the chosen
// clustering with its centroids and internal similarity.
type KMeansResult struct {
	Clustering Clustering
	Centroids  []vector.Sparse
	// Similarity is the internal similarity of the whole clustering: the
	// size-weighted sum over clusters of Σ_j sim(page_j, centroid), the
	// quantity THOR maximizes across restarts (Section 3.1.4).
	Similarity float64
	Iterations int // total assign/recenter cycles across all restarts
}

// KMeans is the string-keyed test reference of KMeansInterned: Simple
// K-Means over vector.Sparse with vector.Cosine, the algorithm as it ran
// before term interning. Production clusters only in ID space; this
// reference exists so the contract tests in this and other packages can
// check the integer kernels against an implementation they do not share.
// It has no non-test caller.
func KMeans(vecs []vector.Sparse, cfg KMeansConfig) KMeansResult {
	n := len(vecs)
	k := cfg.K
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	restarts := cfg.Restarts
	if restarts < 1 {
		restarts = 1
	}
	maxIter := cfg.MaxIter
	if maxIter <= 0 {
		maxIter = 100
	}

	type restartResult struct {
		cl        Clustering
		centroids []vector.Sparse
		sim       float64
		iters     int
	}
	results := parallel.Map(restarts, cfg.Workers, func(r int) restartResult {
		rng := rand.New(rand.NewSource(parallel.DeriveSeed(cfg.Seed, int64(r))))
		assign, centroids, iters := kmeansOnce(vecs, k, maxIter, rng)
		cl := newClustering(k, assign)
		return restartResult{cl: cl, centroids: centroids,
			sim: InternalSimilarity(vecs, cl, centroids), iters: iters}
	})

	best := KMeansResult{Similarity: -1}
	totalIter := 0
	for _, rr := range results {
		totalIter += rr.iters
		if rr.sim > best.Similarity {
			best = KMeansResult{Clustering: rr.cl, Centroids: rr.centroids, Similarity: rr.sim}
		}
	}
	best.Iterations = totalIter
	return best
}

func kmeansOnce(vecs []vector.Sparse, k, maxIter int, rng *rand.Rand) (assign []int, centroids []vector.Sparse, iters int) {
	n := len(vecs)
	// Initialize centers from k distinct random pages.
	perm := rng.Perm(n)
	centroids = make([]vector.Sparse, k)
	for i := 0; i < k; i++ {
		centroids[i] = vecs[perm[i]]
	}
	assign = make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	for iters = 1; iters <= maxIter; iters++ {
		changed := false
		for i, v := range vecs {
			bestC, bestSim := 0, -1.0
			for c, ctr := range centroids {
				if sim := vector.Cosine(v, ctr); sim > bestSim {
					bestC, bestSim = c, sim
				}
			}
			if assign[i] != bestC {
				assign[i] = bestC
				changed = true
			}
		}
		if !changed {
			break
		}
		// Recompute centroids; re-seed empty clusters from a random page so
		// k is preserved.
		groups := make([][]vector.Sparse, k)
		for i, c := range assign {
			groups[c] = append(groups[c], vecs[i])
		}
		for c := range centroids {
			if len(groups[c]) == 0 {
				centroids[c] = vecs[rng.Intn(n)]
				continue
			}
			centroids[c] = vector.Centroid(groups[c])
		}
	}
	return assign, centroids, iters
}

// InternalSimilarity is the string-keyed test reference of
// InternalSimilarityInterned (no non-test caller). It computes the
// internal similarity of a clustering: the
// n_i/n-weighted sum over clusters of the per-cluster average similarity of
// each page to its cluster centroid (Section 3.1.4, after Steinbach et al.
// [29] and Zhao & Karypis [32], where this quantity equals the weighted sum
// of centroid lengths for unit page vectors). Equivalently, it is the mean
// page-to-own-centroid similarity over all pages. Higher is better; it is
// the internal guidance metric that picks the best of the M K-Means
// restarts.
func InternalSimilarity(vecs []vector.Sparse, cl Clustering, centroids []vector.Sparse) float64 {
	if len(vecs) == 0 {
		return 0
	}
	n := float64(len(vecs))
	var total float64
	for c, members := range cl.Clusters {
		for _, i := range members {
			total += vector.Cosine(vecs[i], centroids[c])
		}
	}
	return total / n
}

// ClusterCentroids is the string-keyed test reference of
// ClusterCentroidsInterned (no non-test caller): it recomputes centroids
// for an arbitrary clustering of the given vectors.
func ClusterCentroids(vecs []vector.Sparse, cl Clustering) []vector.Sparse {
	out := make([]vector.Sparse, cl.K)
	for c, members := range cl.Clusters {
		group := make([]vector.Sparse, 0, len(members))
		for _, i := range members {
			group = append(group, vecs[i])
		}
		out[c] = vector.Centroid(group)
	}
	return out
}
