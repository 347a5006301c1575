package cluster

import (
	"encoding/binary"
	"math"
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
//
// A site's pages share a template, so many of them carry the same
// vector. A K-Means call finds its bit-equal vectors once
// (distinctVectors); the assignment step and the internal similarity
// compute one cosine per distinct vector and hand it to every copy,
// which is the cosine each copy would compute, bit for bit. Centroids
// are still folded member by member, in member order, and the RNG still
// draws over members, so nothing else changes.

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

	dv := distinctVectors(vecs)
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
		assign, centroids, iters := kmeansOnceInterned(vecs, dv, k, maxIter, rng, scratch)
		scratches.Put(scratch)
		cl := newClustering(k, assign)
		return restartResult{cl: cl, centroids: centroids,
			sim: internalSimilarity(vecs, dv, cl, centroids), iters: iters}
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

// distinct indexes a call's bit-equal vectors: of[i] is vector i's
// distinct vector, reps[d] the first vector that is distinct vector d.
type distinct struct {
	of   []int32
	reps []int
}

// distinctVectors finds the bit-equal vectors among vecs: equal IDs,
// equal weight bits and equal cached norms, so every kernel computes
// the same bits for each of them. A vector's key is those bits, in
// order.
func distinctVectors(vecs []vector.IDVec) distinct {
	dv := distinct{of: make([]int32, len(vecs))}
	seen := make(map[string]int32, len(vecs)) // a vector's key → its distinct vector
	var key []byte
	for i, v := range vecs {
		key = binary.LittleEndian.AppendUint64(key[:0], math.Float64bits(v.Norm()))
		for j, id := range v.IDs {
			key = binary.LittleEndian.AppendUint32(key, uint32(id))
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(v.Weights[j]))
		}
		d, ok := seen[string(key)]
		if !ok {
			d = int32(len(dv.reps))
			seen[string(key)] = d
			dv.reps = append(dv.reps, i)
		}
		dv.of[i] = d
	}
	return dv
}

func kmeansOnceInterned(vecs []vector.IDVec, dv distinct, k, maxIter int, rng *rand.Rand, scratch *vector.CentroidScratch) (assign []int, centroids []vector.IDVec, iters int) {
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
	for _, i := range dv.reps {
		if l := len(vecs[i].IDs); l > 0 {
			width = max(width, int(vecs[i].IDs[l-1])+1)
		}
	}
	nearest := make([]int, len(dv.reps)) // distinct vector d's centroid
	members := make([]vector.IDVec, n)   // the vectors grouped by cluster
	start := make([]int, k)              // cluster c's members begin at start[c]
	rows := scratch.Rows(k, width)
	row := func(c int) []float64 { return rows[c*width : (c+1)*width] }
	for c, ctr := range centroids {
		ctr.Scatter(row(c))
	}
	for iters = 1; iters <= maxIter; iters++ {
		for d, i := range dv.reps {
			bestC, bestSim := 0, -1.0
			for c, ctr := range centroids {
				if sim := vecs[i].CosineRow(row(c), ctr.Norm()); sim > bestSim {
					bestC, bestSim = c, sim
				}
			}
			nearest[d] = bestC
		}
		changed := false
		for i, d := range dv.of {
			if c := nearest[d]; assign[i] != c {
				assign[i] = c
				changed = true
			}
		}
		if !changed {
			break
		}
		// The clusters' members, cluster after cluster, each in member
		// order, the order the centroids fold them in: start[c] counts
		// up to cluster c's end, and filling from the back brings it
		// down to its beginning.
		clear(start)
		for _, c := range assign {
			start[c]++
		}
		for c := 1; c < k; c++ {
			start[c] += start[c-1]
		}
		for i := n - 1; i >= 0; i-- {
			c := assign[i]
			start[c]--
			members[start[c]] = vecs[i]
		}
		for c := range centroids {
			centroids[c].Unscatter(row(c))
			lo, hi := start[c], n
			if c+1 < k {
				hi = start[c+1]
			}
			if lo == hi {
				centroids[c] = vecs[rng.Intn(n)]
			} else {
				centroids[c] = scratch.Centroid(members[lo:hi])
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
	return internalSimilarity(vecs, distinctVectors(vecs), cl, centroids)
}

// internalSimilarity is InternalSimilarityInterned over vecs' distinct
// vectors dv: a distinct vector's cosine with a centroid is computed
// once and added for each copy in the cluster, in member order, so the
// sum is the per-member sum bit for bit.
func internalSimilarity(vecs []vector.IDVec, dv distinct, cl Clustering, centroids []vector.IDVec) float64 {
	if len(vecs) == 0 {
		return 0
	}
	n := float64(len(vecs))
	sim := make([]float64, len(dv.reps))
	at := make([]int, len(dv.reps)) // the cluster sim[d] was computed against, +1; 0 for none
	var total float64
	for c, members := range cl.Clusters {
		for _, i := range members {
			d := dv.of[i]
			if at[d] != c+1 {
				sim[d], at[d] = vecs[i].Cosine(centroids[c]), c+1
			}
			total += sim[d]
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
