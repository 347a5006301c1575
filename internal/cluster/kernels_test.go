package cluster

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"thor/internal/parallel"
	"thor/internal/vector"
	"thor/internal/vector/vectorref"
)

// randomClusterDocs fabricates term-count documents with a planted
// three-prototype structure, returned as raw counts so a test can weight
// them down both the string and the interned path.
func randomClusterDocs(n int, seed int64) []map[string]int {
	rng := rand.New(rand.NewSource(seed))
	protos := []map[string]int{
		{"table": 20, "tr": 40, "td": 90, "a": 30},
		{"div": 25, "p": 60, "span": 15},
		{"ul": 18, "li": 70, "img": 22, "b": 9},
	}
	docs := make([]map[string]int, n)
	for i := range docs {
		p := protos[rng.Intn(len(protos))]
		doc := make(map[string]int, len(p))
		for term, c := range p {
			doc[term] = c + rng.Intn(10)
		}
		docs[i] = doc
	}
	return docs
}

// internedInput offers the interned view the vector-space clusterers
// consume.
func internedInput(iv vector.Interned) Input {
	return Input{N: len(iv.Vecs), Interned: func() vector.Interned { return iv }}
}

// stringResult is what a vector-space clusterer chooses on the
// string-keyed reference kernels.
type stringResult struct {
	Clustering Clustering
	Similarity float64
	Centroids  []vectorref.Sparse
}

// toRef converts an interned vector to the reference's string-keyed
// form.
func toRef(d *vector.Dict, v vector.IDVec) vectorref.Sparse {
	return vectorref.FromIDs(d, v.IDs, v.Weights)
}

// stringReference runs the named vector-space clusterer on the string
// kernels, exactly as its registry adapter did before the adapters
// became interned-only.
func stringReference(name string, vecs []vectorref.Sparse, cfg Config) stringResult {
	var cl Clustering
	switch name {
	case "kmeans":
		res := vectorref.KMeans(vecs, vectorref.KMeansConfig{K: cfg.K, Restarts: cfg.Restarts, Seed: cfg.Seed})
		return stringResult{Clustering: newClustering(len(res.Centroids), res.Assign), Similarity: res.Similarity, Centroids: res.Centroids}
	case "bisecting":
		cl = BisectingKMeans(vecs, BisectingConfig{K: cfg.K, Seed: cfg.Seed})
	case "kmedoids":
		cl = KMedoids(len(vecs), func(i, j int) float64 {
			return 1 - vectorref.Cosine(vecs[i], vecs[j])
		}, KMedoidsConfig{K: cfg.K, Restarts: cfg.Restarts, Seed: cfg.Seed})
	default:
		panic("stringReference: no string path for " + name)
	}
	centroids := vectorref.ClusterCentroids(vecs, cl.Assign, cl.K)
	return stringResult{Clustering: cl, Similarity: vectorref.InternalSimilarity(vecs, cl.Assign, centroids), Centroids: centroids}
}

// TestInternedKernelsMatchStringPath is the clustering-layer half of the
// interning contract: for every vector-space clusterer in the registry,
// running on interned input must reproduce the string-keyed reference
// bit for bit — same assignments, same similarity, same centroids — at
// several worker counts. The integer kernels are a pure re-encoding,
// never a different algorithm.
func TestInternedKernelsMatchStringPath(t *testing.T) {
	for _, docs := range [][]map[string]int{randomClusterDocs(90, 21), duplicateHeavyDocs(90, 21)} {
		checkInternedKernels(t, docs)
	}
}

// duplicateHeavyDocs is randomClusterDocs(n/6, seed) with every document
// repeated six times, the copies spread over the order, as a site's
// pages repeat a template.
func duplicateHeavyDocs(n int, seed int64) []map[string]int {
	base := randomClusterDocs(n/6, seed)
	docs := make([]map[string]int, 0, n)
	for _, j := range rand.New(rand.NewSource(seed)).Perm(len(base) * 6) {
		docs = append(docs, base[j%len(base)])
	}
	return docs
}

func checkInternedKernels(t *testing.T, docs []map[string]int) {
	t.Helper()
	vecs := vectorref.TFIDF(docs)
	iv := vector.TFIDFInterned(docs)
	for _, name := range []string{"kmeans", "bisecting", "kmedoids"} {
		c, err := MustLookup(name)
		if err != nil {
			t.Fatalf("lookup %s: %v", name, err)
		}
		for _, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
			cfg := Config{K: 3, Restarts: 4, Seed: 77, Workers: w}
			want := stringReference(name, vecs, cfg)
			got, err := c.Cluster(internedInput(iv), cfg)
			if err != nil {
				t.Fatalf("%s interned path: %v", name, err)
			}
			if !reflect.DeepEqual(got.Clustering, want.Clustering) {
				t.Errorf("%s workers=%d: interned clustering differs from string path", name, w)
			}
			if got.Similarity != want.Similarity { //thorlint:allow no-float-eq bit-identity is the contract under test
				t.Errorf("%s workers=%d: similarity %v, want %v", name, w, got.Similarity, want.Similarity)
			}
			if got.Dict == nil || len(got.Centroids) != len(want.Centroids) {
				t.Fatalf("%s workers=%d: %d centroids (dict %v), want %d", name, w, len(got.Centroids), got.Dict != nil, len(want.Centroids))
			}
			for i := range want.Centroids {
				if !vectorref.Equal(toRef(got.Dict, got.Centroids[i]), want.Centroids[i]) {
					t.Errorf("%s workers=%d: centroid %d differs", name, w, i)
				}
			}
		}
	}
}

// TestInternedKMeansWorkerCountIndependence puts the integer kernels
// under the same determinism contract as the string ones (and into CI's
// determinism matrix): the chosen clustering, centroids, similarity, and
// iteration count must not depend on the worker count.
func TestInternedKMeansWorkerCountIndependence(t *testing.T) {
	iv := vector.TFIDFInterned(randomClusterDocs(120, 5))
	dim := iv.Dict.Len()
	var ref KMeansInternedResult
	for i, w := range []int{1, 2, 3, runtime.GOMAXPROCS(0), 32} {
		res := KMeansInterned(iv.Vecs, dim, KMeansConfig{K: 3, Restarts: 12, Seed: 99, Workers: w})
		if i == 0 {
			ref = res
			continue
		}
		if !reflect.DeepEqual(ref, res) {
			t.Errorf("Workers=%d KMeansInterned result differs from Workers=1: sim %v vs %v, iters %d vs %d",
				w, res.Similarity, ref.Similarity, res.Iterations, ref.Iterations)
		}
	}
}

// TestInternedKMeansMatchesKMeans pins the direct kernel APIs (not just
// the adapters): identical clustering, iterations, similarity, and
// centroid bits, including the ID-space centroids projected back.
func TestInternedKMeansMatchesKMeans(t *testing.T) {
	docs := randomClusterDocs(80, 9)
	vecs := vectorref.TFIDF(docs)
	iv := vector.TFIDFInterned(docs)
	want := vectorref.KMeans(vecs, vectorref.KMeansConfig{K: 4, Restarts: 6, Seed: 3})
	wantCl := newClustering(len(want.Centroids), want.Assign)
	got := KMeansInterned(iv.Vecs, iv.Dict.Len(), KMeansConfig{K: 4, Restarts: 6, Seed: 3, Workers: 1})
	if !reflect.DeepEqual(got.Clustering, wantCl) {
		t.Error("clusterings differ")
	}
	if got.Similarity != want.Similarity || got.Iterations != want.Iterations { //thorlint:allow no-float-eq bit-identity is the contract under test
		t.Errorf("similarity/iterations: got %v/%d, want %v/%d",
			got.Similarity, got.Iterations, want.Similarity, want.Iterations)
	}
	for i := range want.Centroids {
		if !vectorref.Equal(toRef(iv.Dict, got.Centroids[i]), want.Centroids[i]) {
			t.Errorf("centroid %d differs", i)
		}
	}
	if sim := InternalSimilarityInterned(iv.Vecs, got.Clustering, got.Centroids); sim != want.Similarity { //thorlint:allow no-float-eq bit-identity is the contract under test
		t.Errorf("InternalSimilarityInterned = %v, want %v", sim, want.Similarity)
	}
	wantC := vectorref.ClusterCentroids(vecs, want.Assign, wantCl.K)
	gotC := ClusterCentroidsInterned(iv.Vecs, got.Clustering, iv.Dict.Len())
	for i := range wantC {
		if !vectorref.Equal(toRef(iv.Dict, gotC[i]), wantC[i]) {
			t.Errorf("recomputed centroid %d differs", i)
		}
	}
}

// kmeansPerVector is the K-Means restart before distinct vectors were
// found once per call: every vector computes its own cosine with every
// centroid, and the internal similarity its own cosine with its
// centroid. It is the oracle of TestKMeansDistinctVectorsMatchPerVector.
func kmeansPerVector(vecs []vector.IDVec, dim int, cfg KMeansConfig) KMeansInternedResult {
	n := len(vecs)
	k := min(max(cfg.K, 1), n)
	best := KMeansInternedResult{Similarity: -1}
	for r := 0; r < cfg.Restarts; r++ {
		rng := rand.New(rand.NewSource(parallel.DeriveSeed(cfg.Seed, int64(r))))
		scratch := vector.NewCentroidScratch(dim)
		perm := rng.Perm(n)
		centroids := make([]vector.IDVec, k)
		for i := range centroids {
			centroids[i] = vecs[perm[i]]
		}
		assign := make([]int, n)
		for i := range assign {
			assign[i] = -1
		}
		iters := 1
		for ; iters <= 100; iters++ {
			changed := false
			for i, v := range vecs {
				bestC, bestSim := 0, -1.0
				for c, ctr := range centroids {
					if sim := v.Cosine(ctr); sim > bestSim {
						bestC, bestSim = c, sim
					}
				}
				if assign[i] != bestC {
					assign[i], changed = bestC, true
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
				if len(groups[c]) == 0 {
					centroids[c] = vecs[rng.Intn(n)]
				} else {
					centroids[c] = scratch.Centroid(groups[c])
				}
			}
		}
		cl := newClustering(k, assign)
		var total float64
		for c, members := range cl.Clusters {
			for _, i := range members {
				total += vecs[i].Cosine(centroids[c])
			}
		}
		sim := total / float64(n)
		best.Iterations += iters
		if sim > best.Similarity {
			best.Clustering, best.Centroids, best.Similarity = cl, centroids, sim
		}
	}
	return best
}

// TestKMeansDistinctVectorsMatchPerVector pins K-Means' one cosine per
// distinct vector to the per-vector oracle on duplicate-heavy input:
// each vector repeated, and two vectors that differ only in the last
// bit of one weight, which must stay apart. The whole result — the
// clustering, the centroids, the similarity and the iteration count —
// is deep-equal, and so is InternalSimilarityInterned on a clustering
// that puts copies of one vector in different clusters.
func TestKMeansDistinctVectorsMatchPerVector(t *testing.T) {
	iv := vector.TFIDFInterned(duplicateHeavyDocs(96, 13))
	vecs := append([]vector.IDVec(nil), iv.Vecs...)
	last := len(vecs[0].Weights) - 1
	w := append([]float64(nil), vecs[0].Weights...)
	w[last] = math.Float64frombits(math.Float64bits(w[last]) ^ 1)
	twin := vector.NewIDVec(vecs[0].IDs, w)
	vecs = append(vecs[:40], append([]vector.IDVec{twin, vecs[0]}, vecs[40:]...)...)
	dv := distinctVectors(vecs)
	if len(dv.reps) != 96/6+1 {
		t.Fatalf("%d distinct vectors among %d, want %d (the one-bit twin apart)", len(dv.reps), len(vecs), 96/6+1)
	}
	if dv.of[40] == dv.of[41] {
		t.Fatal("vectors one weight bit apart were found equal")
	}
	for _, k := range []int{2, 3, 5} {
		cfg := KMeansConfig{K: k, Restarts: 6, Seed: int64(k), Workers: 2}
		got := KMeansInterned(vecs, iv.Dict.Len(), cfg)
		want := kmeansPerVector(vecs, iv.Dict.Len(), cfg)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("k=%d: K-Means over distinct vectors differs from the per-vector oracle (sim %v vs %v, iters %d vs %d)",
				k, got.Similarity, want.Similarity, got.Iterations, want.Iterations)
		}
	}
	// Copies split over clusters: round-robin assignment.
	assign := make([]int, len(vecs))
	for i := range assign {
		assign[i] = i % 3
	}
	cl := newClustering(3, assign)
	centroids := ClusterCentroidsInterned(vecs, cl, iv.Dict.Len())
	var total float64
	for c, members := range cl.Clusters {
		for _, i := range members {
			total += vecs[i].Cosine(centroids[c])
		}
	}
	if got, want := InternalSimilarityInterned(vecs, cl, centroids), total/float64(len(vecs)); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("InternalSimilarityInterned = %v, per-member sum %v", got, want)
	}
}
