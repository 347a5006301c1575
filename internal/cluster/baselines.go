package cluster

import (
	"math"
	"math/rand"

	"thor/internal/strdist"
)

// Random assigns each of n items to one of k clusters uniformly at random —
// the baseline of Figure 4.
func Random(n, k int, seed int64) Clustering {
	if k < 1 {
		k = 1
	}
	rng := rand.New(rand.NewSource(seed))
	assign := make([]int, n)
	for i := range assign {
		assign[i] = rng.Intn(k)
	}
	return newClustering(k, assign)
}

// KMedoidsConfig controls KMedoids.
type KMedoidsConfig struct {
	K        int
	MaxIter  int
	Restarts int
	Seed     int64
}

// KMedoids partitions n items into k clusters given only a pairwise
// distance function, using the classic alternating assign/update scheme
// with medoid centers. THOR's URL-based baseline clusters pages by the
// string edit distance of their URLs (Section 4.1); edit distance admits no
// centroid, so a medoid-based K-Means stand-in is used.
func KMedoids(n int, dist func(i, j int) float64, cfg KMedoidsConfig) Clustering {
	k := cfg.K
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	maxIter := cfg.MaxIter
	if maxIter <= 0 {
		maxIter = 50
	}
	restarts := cfg.Restarts
	if restarts < 1 {
		restarts = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	bestCost := math.Inf(1)
	var bestAssign []int
	for r := 0; r < restarts; r++ {
		assign, cost := kmedoidsOnce(n, dist, k, maxIter, rng)
		if cost < bestCost {
			bestCost = cost
			bestAssign = assign
		}
	}
	return newClustering(k, bestAssign)
}

func kmedoidsOnce(n int, dist func(i, j int) float64, k, maxIter int, rng *rand.Rand) ([]int, float64) {
	perm := rng.Perm(n)
	medoids := append([]int(nil), perm[:k]...)
	assign := make([]int, n)
	var cost float64
	for iter := 0; iter < maxIter; iter++ {
		// Assign to nearest medoid.
		cost = 0
		for i := 0; i < n; i++ {
			bestC, bestD := 0, math.Inf(1)
			for c, m := range medoids {
				if d := dist(i, m); d < bestD {
					bestC, bestD = c, d
				}
			}
			assign[i] = bestC
			cost += bestD
		}
		// Update each medoid to the member minimizing intra-cluster cost.
		changed := false
		for c := range medoids {
			var members []int
			for i, a := range assign {
				if a == c {
					members = append(members, i)
				}
			}
			if len(members) == 0 {
				continue
			}
			bestM, bestSum := medoids[c], math.Inf(1)
			for _, cand := range members {
				var sum float64
				for _, other := range members {
					sum += dist(cand, other)
				}
				if sum < bestSum {
					bestM, bestSum = cand, sum
				}
			}
			if bestM != medoids[c] {
				medoids[c] = bestM
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return assign, cost
}

// ByURL clusters pages by the string edit distance between their URLs. The
// pairwise distance matrix is computed once up front since K-Medoids
// revisits pairs many times.
func ByURL(urls []string, k int, seed int64) Clustering {
	n := len(urls)
	matrix := make([][]float64, n)
	for i := range matrix {
		matrix[i] = make([]float64, n)
	}
	var lev strdist.LevScratch
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := float64(strdist.Distance(urls[i], urls[j], &lev))
			matrix[i][j], matrix[j][i] = d, d
		}
	}
	return KMedoids(n, func(i, j int) float64 {
		return matrix[i][j]
	}, KMedoidsConfig{K: k, Seed: seed, Restarts: 3})
}

// BySize clusters pages by the absolute difference of their sizes in bytes
// using one-dimensional K-Means (Section 4.1: "described each page by its
// size in bytes and measured the distance between two pages by the
// difference in bytes").
func BySize(sizes []int, k int, seed int64) Clustering {
	n := len(sizes)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	rng := rand.New(rand.NewSource(seed))
	// Initialize centers at k random distinct page sizes.
	perm := rng.Perm(n)
	centers := make([]float64, k)
	for i := 0; i < k; i++ {
		centers[i] = float64(sizes[perm[i]])
	}
	assign := make([]int, n)
	for iter := 0; iter < 100; iter++ {
		changed := false
		for i, s := range sizes {
			bestC, bestD := 0, math.Inf(1)
			for c, ctr := range centers {
				if d := math.Abs(float64(s) - ctr); d < bestD {
					bestC, bestD = c, d
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
		sums := make([]float64, k)
		counts := make([]int, k)
		for i, c := range assign {
			sums[c] += float64(sizes[i])
			counts[c]++
		}
		for c := range centers {
			if counts[c] == 0 {
				centers[c] = float64(sizes[rng.Intn(n)])
				continue
			}
			centers[c] = sums[c] / float64(counts[c])
		}
	}
	return newClustering(k, assign)
}
