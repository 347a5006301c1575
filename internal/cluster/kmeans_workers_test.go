package cluster

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"thor/internal/parallel"
	"thor/internal/vector"
)

// TestKMeansRestartsIndependentSeeds asserts restarts draw from derived,
// decorrelated seeds: restart r of a multi-restart run must reproduce a
// lone run seeded DeriveSeed(Seed, r), which only holds when restart r's
// randomness does not depend on the restarts before it, and when nothing
// a restart leaves in its worker's scratch (the centroid rows above all)
// reaches the next one. For every prefix of R restarts, the run must
// return the best lone run among the first R — the same assignment, the
// same centroid bits, the same similarity — and the lone runs' iteration
// total.
func TestKMeansRestartsIndependentSeeds(t *testing.T) {
	iv := vector.TFIDFInterned(randomClusterDocs(60, 8))
	const k, seed, restarts = 3, 4, 8
	type lone struct {
		assign    []int
		centroids []vector.IDVec
		sim       float64
		iters     int
	}
	runs := make([]lone, restarts)
	for r := range runs {
		rng := rand.New(rand.NewSource(parallel.DeriveSeed(seed, int64(r))))
		assign, centroids, iters := kmeansOnceInterned(iv.Vecs, distinctVectors(iv.Vecs), k, 100, rng, vector.NewCentroidScratch(iv.Dict.Len()))
		sim := InternalSimilarityInterned(iv.Vecs, newClustering(k, assign), centroids)
		runs[r] = lone{assign, centroids, sim, iters}
	}
	for _, workers := range []int{1, 2} {
		best, total := -1, 0
		for r := 1; r <= restarts; r++ {
			total += runs[r-1].iters
			if best < 0 || runs[r-1].sim > runs[best].sim {
				best = r - 1
			}
			got := KMeansInterned(iv.Vecs, iv.Dict.Len(), KMeansConfig{K: k, Restarts: r, Seed: seed, Workers: workers})
			want := runs[best]
			if !reflect.DeepEqual(got.Clustering.Assign, want.assign) {
				t.Fatalf("workers=%d, %d restarts: assignment differs from lone run %d", workers, r, best)
			}
			if math.Float64bits(got.Similarity) != math.Float64bits(want.sim) {
				t.Fatalf("workers=%d, %d restarts: similarity %v, lone run %d %v", workers, r, got.Similarity, best, want.sim)
			}
			if got.Iterations != total {
				t.Fatalf("workers=%d, %d restarts: %d iterations, lone runs total %d", workers, r, got.Iterations, total)
			}
			for c, ctr := range got.Centroids {
				if !sameBits(ctr, want.centroids[c]) {
					t.Fatalf("workers=%d, %d restarts: centroid %d differs from lone run %d", workers, r, c, best)
				}
			}
		}
	}
}

// sameBits reports whether a and b hold the same IDs, weight bits and
// norm bits.
func sameBits(a, b vector.IDVec) bool {
	if !reflect.DeepEqual(a.IDs, b.IDs) || len(a.Weights) != len(b.Weights) ||
		math.Float64bits(a.Norm()) != math.Float64bits(b.Norm()) {
		return false
	}
	for i, w := range a.Weights {
		if math.Float64bits(w) != math.Float64bits(b.Weights[i]) {
			return false
		}
	}
	return true
}
