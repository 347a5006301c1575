package cluster

import (
	"math/rand"
	"sync"

	"thor/internal/parallel"
	"thor/internal/vector"
)

// This file holds the clustering kernels every vector-space clusterer
// runs: K-Means, bisecting K-Means, and their centroid and similarity
// helpers over vector.IDVec. They mirror the string-keyed test reference
// (vectorref.KMeans, and the bisecting reference in
// bisecting_ref_test.go) step for step, and every floating-point
// operation happens in the same order — the merge-joins, and the
// assignment's gathers against scattered centroids (IDVec.CosineRow),
// visit identical term pairs (ascending-ID order is ascending-term order
// by Dict construction), the cached norms carry the same bits the string
// path recomputes per call, and the dense centroid accumulator folds
// member weights in member order — so both choose bit-identical
// clusterings from bit-identical similarities. The contract is pinned by
// TestInternedKernelsMatchStringPath. RNG consumption is mirrored
// exactly (one Perm per restart, one Intn per empty-cluster reseed, one
// Int63 per bisection trial), which is what keeps the two on the same
// random trajectory.

// KMeansInternedResult carries the chosen clustering with its centroids
// in ID space.
type KMeansInternedResult struct {
	Clustering Clustering
	Centroids  []vector.IDVec
	Similarity float64
	Iterations int // total assign/recenter cycles across all restarts
}

// KMeansInterned partitions the vectors into cfg.K clusters with Simple
// K-Means under cosine similarity. The algorithm starts from K random
// cluster centers, assigns each page to the most similar center,
// recomputes each center as its cluster's centroid, and repeats until
// assignments stabilize. It runs cfg.Restarts times — concurrently up to
// cfg.Workers, each restart on an independently derived seed — and keeps
// the clustering with the highest internal similarity (ties go to the
// lowest restart index, so the winner does not depend on scheduling).
//
// dim is the dictionary size, used to pre-size the per-worker centroid scratch buffers; the
// scratches live in a pool keyed to this call, so concurrent restarts
// never share one and sequential restarts on the same worker reuse it
// across all their iterations.
func KMeansInterned(vecs []vector.IDVec, dim int, cfg KMeansConfig) KMeansInternedResult {
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

	scratches := sync.Pool{New: func() any { return vector.NewCentroidScratch(dim) }}
	type restartResult struct {
		cl        Clustering
		centroids []vector.IDVec
		sim       float64
		iters     int
	}
	results := parallel.Map(restarts, cfg.Workers, func(r int) restartResult {
		rng := rand.New(rand.NewSource(parallel.DeriveSeed(cfg.Seed, int64(r))))
		scratch := scratches.Get().(*vector.CentroidScratch)
		assign, centroids, iters := kmeansOnceInterned(vecs, k, maxIter, rng, scratch)
		scratches.Put(scratch)
		cl := newClustering(k, assign)
		return restartResult{cl: cl, centroids: centroids,
			sim: InternalSimilarityInterned(vecs, cl, centroids), iters: iters}
	})

	best := KMeansInternedResult{Similarity: -1}
	totalIter := 0
	for _, rr := range results {
		totalIter += rr.iters
		if rr.sim > best.Similarity {
			best = KMeansInternedResult{Clustering: rr.cl, Centroids: rr.centroids, Similarity: rr.sim}
		}
	}
	best.Iterations = totalIter
	return best
}

func kmeansOnceInterned(vecs []vector.IDVec, k, maxIter int, rng *rand.Rand, scratch *vector.CentroidScratch) (assign []int, centroids []vector.IDVec, iters int) {
	n := len(vecs)
	perm := rng.Perm(n)
	centroids = make([]vector.IDVec, k)
	for i := 0; i < k; i++ {
		centroids[i] = vecs[perm[i]]
	}
	assign = make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	// Each centroid is scattered into a dense row of the scratch once per
	// iteration, and each vector's cosine with it is one gather over the
	// vector's IDs: bit-identical to v.Cosine(ctr) (IDVec.CosineRow).
	width := 0
	for _, v := range vecs {
		if l := len(v.IDs); l > 0 {
			width = max(width, int(v.IDs[l-1])+1)
		}
	}
	rows := scratch.Rows(k, width)
	row := func(c int) []float64 { return rows[c*width : (c+1)*width] }
	for c, ctr := range centroids {
		ctr.Scatter(row(c))
	}
	for iters = 1; iters <= maxIter; iters++ {
		changed := false
		for i, v := range vecs {
			bestC, bestSim := 0, -1.0
			for c, ctr := range centroids {
				if sim := v.CosineRow(row(c), ctr.Norm()); sim > bestSim {
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
		groups := make([][]vector.IDVec, k)
		for i, c := range assign {
			groups[c] = append(groups[c], vecs[i])
		}
		for c := range centroids {
			centroids[c].Unscatter(row(c))
			if len(groups[c]) == 0 {
				centroids[c] = vecs[rng.Intn(n)]
			} else {
				centroids[c] = scratch.Centroid(groups[c])
			}
			centroids[c].Scatter(row(c))
		}
	}
	for c, ctr := range centroids {
		ctr.Unscatter(row(c))
	}
	return assign, centroids, iters
}

// InternalSimilarityInterned computes the internal similarity of a
// clustering: the n_i/n-weighted sum over clusters of the per-cluster
// average similarity of each page to its cluster centroid (Section
// 3.1.4, after Steinbach et al. [29] and Zhao & Karypis [32]).
// Equivalently, it is the mean page-to-own-centroid similarity over all
// pages. Higher is better; it is the internal guidance metric that picks
// the best of the M K-Means restarts.
func InternalSimilarityInterned(vecs []vector.IDVec, cl Clustering, centroids []vector.IDVec) float64 {
	if len(vecs) == 0 {
		return 0
	}
	n := float64(len(vecs))
	var total float64
	for c, members := range cl.Clusters {
		for _, i := range members {
			total += vecs[i].Cosine(centroids[c])
		}
	}
	return total / n
}

// ClusterCentroidsInterned recomputes ID-space centroids for an
// arbitrary clustering of the given vectors.
func ClusterCentroidsInterned(vecs []vector.IDVec, cl Clustering, dim int) []vector.IDVec {
	scratch := vector.NewCentroidScratch(dim)
	out := make([]vector.IDVec, cl.K)
	for c, members := range cl.Clusters {
		group := make([]vector.IDVec, 0, len(members))
		for _, i := range members {
			group = append(group, vecs[i])
		}
		out[c] = scratch.Centroid(group)
	}
	return out
}

// BisectingKMeansInterned partitions vecs into cfg.K clusters by
// repeatedly splitting the largest cluster with 2-means (see
// BisectingConfig).
func BisectingKMeansInterned(vecs []vector.IDVec, dim int, cfg BisectingConfig) Clustering {
	n := len(vecs)
	k := cfg.K
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	trials := cfg.Trials
	if trials <= 0 {
		trials = 5
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	clusters := [][]int{indexRange(n)}
	for len(clusters) < k {
		target := -1
		for i, members := range clusters {
			if len(members) < 2 {
				continue
			}
			if target < 0 || len(members) > len(clusters[target]) {
				target = i
			}
		}
		if target < 0 {
			break // nothing splittable
		}
		left, right := bisectInterned(vecs, dim, clusters[target], trials, rng)
		clusters[target] = left
		clusters = append(clusters, right)
	}
	assign := make([]int, n)
	for c, members := range clusters {
		for _, i := range members {
			assign[i] = c
		}
	}
	for len(clusters) < k {
		clusters = append(clusters, nil)
	}
	return Clustering{K: len(clusters), Assign: assign, Clusters: clusters}
}

// bisectInterned splits members into two parts with 2-means, keeping the
// best of trials attempts by internal similarity; when every trial is
// degenerate (e.g. identical vectors) it splits evenly so progress is
// guaranteed.
func bisectInterned(vecs []vector.IDVec, dim int, members []int, trials int, rng *rand.Rand) (left, right []int) {
	sub := make([]vector.IDVec, len(members))
	for i, m := range members {
		sub[i] = vecs[m]
	}
	best := -1.0
	for t := 0; t < trials; t++ {
		res := KMeansInterned(sub, dim, KMeansConfig{K: 2, Restarts: 1, MaxIter: 50, Seed: rng.Int63()})
		if res.Similarity > best && len(res.Clustering.Clusters[0]) > 0 && len(res.Clustering.Clusters[1]) > 0 {
			best = res.Similarity
			left = left[:0]
			right = right[:0]
			for i, c := range res.Clustering.Assign {
				if c == 0 {
					left = append(left, members[i])
				} else {
					right = append(right, members[i])
				}
			}
		}
	}
	if len(left) == 0 || len(right) == 0 {
		mid := len(members) / 2
		return append([]int(nil), members[:mid]...), append([]int(nil), members[mid:]...)
	}
	return left, right
}
