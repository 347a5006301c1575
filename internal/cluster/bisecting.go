package cluster

// BisectingConfig configures BisectingKMeansInterned, the bisecting
// K-Means of Steinbach, Karypis & Kumar (KDD Text Mining Workshop 2000) — reference [29] of the paper and
// the source of its internal-similarity machinery. Starting from one
// cluster holding every page, the largest cluster is repeatedly split with
// 2-means (taking the best of trials bisections by internal similarity)
// until k clusters exist. It often beats plain K-Means on text because
// early splits separate the grossest structure first; THOR's evaluation
// uses plain K-Means, so this clusterer exists for the ablation harness.
type BisectingConfig struct {
	K      int
	Trials int // bisection attempts per split (default 5)
	Seed   int64
}

func indexRange(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
