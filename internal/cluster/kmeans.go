// Package cluster implements the clustering algorithms of THOR's page
// clustering phase: Simple K-Means over sparse cosine space with random
// restarts guided by internal similarity (Sections 3.1.2 and 3.1.4), plus
// the baseline page-grouping approaches the paper evaluates against
// (URL-based, size-based, and random assignment).
package cluster

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
