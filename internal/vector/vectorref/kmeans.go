package vectorref

import (
	"math/rand"

	"thor/internal/parallel"
)

// KMeansConfig controls the reference K-Means run; its fields mean what
// cluster.KMeansConfig's do. The reference runs its restarts serially.
type KMeansConfig struct {
	K        int // number of clusters (clamped to [1, n])
	Restarts int // independent runs; best by internal similarity wins
	MaxIter  int // bound on assign/recenter cycles per run (default 100)
	Seed     int64
}

// KMeansResult is the chosen clustering: Assign[i] is item i's cluster,
// and len(Centroids) is the clamped cluster count.
type KMeansResult struct {
	Assign    []int
	Centroids []Sparse
	// Similarity is the internal similarity of the whole clustering: the
	// size-weighted sum over clusters of Σ_j sim(page_j, centroid), the
	// quantity THOR maximizes across restarts (Section 3.1.4).
	Similarity float64
	Iterations int // total assign/recenter cycles across all restarts
}

// KMeans is the reference of cluster.KMeansInterned: Simple K-Means
// over Sparse with Cosine. Restart r draws from
// parallel.DeriveSeed(cfg.Seed, r), and the first restart with the
// highest internal similarity wins, so the choice matches the
// production kernel at any worker count.
func KMeans(vecs []Sparse, cfg KMeansConfig) KMeansResult {
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

	best := KMeansResult{Similarity: -1}
	totalIter := 0
	for r := 0; r < restarts; r++ {
		rng := rand.New(rand.NewSource(parallel.DeriveSeed(cfg.Seed, int64(r))))
		assign, centroids, iters := kmeansOnce(vecs, k, maxIter, rng)
		totalIter += iters
		if sim := InternalSimilarity(vecs, assign, centroids); sim > best.Similarity {
			best = KMeansResult{Assign: assign, Centroids: centroids, Similarity: sim}
		}
	}
	best.Iterations = totalIter
	return best
}

func kmeansOnce(vecs []Sparse, k, maxIter int, rng *rand.Rand) (assign []int, centroids []Sparse, iters int) {
	n := len(vecs)
	// Initialize centers from k distinct random pages.
	perm := rng.Perm(n)
	centroids = make([]Sparse, k)
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
				if sim := Cosine(v, ctr); sim > bestSim {
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
		groups := make([][]Sparse, k)
		for i, c := range assign {
			groups[c] = append(groups[c], vecs[i])
		}
		for c := range centroids {
			if len(groups[c]) == 0 {
				centroids[c] = vecs[rng.Intn(n)]
				continue
			}
			centroids[c] = Centroid(groups[c])
		}
	}
	return assign, centroids, iters
}

// InternalSimilarity is the reference of
// cluster.InternalSimilarityInterned: the mean similarity of each page
// to its own cluster's centroid (Section 3.1.4, after Steinbach et al.
// [29]), summed cluster by cluster in member order.
func InternalSimilarity(vecs []Sparse, assign []int, centroids []Sparse) float64 {
	if len(vecs) == 0 {
		return 0
	}
	var total float64
	for c, members := range clusters(assign, len(centroids)) {
		for _, i := range members {
			total += Cosine(vecs[i], centroids[c])
		}
	}
	return total / float64(len(vecs))
}

// ClusterCentroids is the reference of cluster.ClusterCentroidsInterned:
// the centroid of each of the k clusters of an assignment.
func ClusterCentroids(vecs []Sparse, assign []int, k int) []Sparse {
	out := make([]Sparse, k)
	for c, members := range clusters(assign, k) {
		group := make([]Sparse, 0, len(members))
		for _, i := range members {
			group = append(group, vecs[i])
		}
		out[c] = Centroid(group)
	}
	return out
}

// clusters lists each of the k clusters' item indexes in ascending order.
func clusters(assign []int, k int) [][]int {
	out := make([][]int, k)
	for i, c := range assign {
		out[c] = append(out[c], i)
	}
	return out
}
