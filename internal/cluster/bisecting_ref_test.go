package cluster

import (
	"math/rand"

	"thor/internal/vector/vectorref"
)

// This file keeps the string-keyed bisecting K-Means, the reference
// BisectingKMeansInterned is contract-tested against.

// BisectingKMeans is the string-keyed reference of
// BisectingKMeansInterned: it partitions vecs into cfg.K clusters.
func BisectingKMeans(vecs []vectorref.Sparse, cfg BisectingConfig) Clustering {
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
		// Pick the largest splittable cluster.
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
		left, right := bisect(vecs, clusters[target], trials, rng)
		clusters[target] = left
		clusters = append(clusters, right)
	}
	assign := make([]int, n)
	for c, members := range clusters {
		for _, i := range members {
			assign[i] = c
		}
	}
	// Pad with empty clusters if k was unreachable (degenerate inputs).
	for len(clusters) < k {
		clusters = append(clusters, nil)
	}
	return Clustering{K: len(clusters), Assign: assign, Clusters: clusters}
}

// bisect splits members into two parts with 2-means, keeping the best of
// trials attempts by internal similarity.
func bisect(vecs []vectorref.Sparse, members []int, trials int, rng *rand.Rand) (left, right []int) {
	sub := make([]vectorref.Sparse, len(members))
	for i, m := range members {
		sub[i] = vecs[m]
	}
	best := -1.0
	for t := 0; t < trials; t++ {
		res := vectorref.KMeans(sub, vectorref.KMeansConfig{K: 2, Restarts: 1, MaxIter: 50, Seed: rng.Int63()})
		sizes := newClustering(len(res.Centroids), res.Assign).Sizes()
		if res.Similarity > best && sizes[0] > 0 && sizes[1] > 0 {
			best = res.Similarity
			left = left[:0]
			right = right[:0]
			for i, c := range res.Assign {
				if c == 0 {
					left = append(left, members[i])
				} else {
					right = append(right, members[i])
				}
			}
		}
	}
	if len(left) == 0 || len(right) == 0 {
		// All trials degenerate (e.g. identical vectors): split evenly so
		// progress is guaranteed.
		mid := len(members) / 2
		return append([]int(nil), members[:mid]...), append([]int(nil), members[mid:]...)
	}
	return left, right
}
