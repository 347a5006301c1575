package cluster

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"thor/internal/vector"
)

// randomClusterDocs fabricates term-count documents with the same planted
// three-prototype structure randomVecs uses, returned as raw counts so a
// test can weight them down both the string and the interned path.
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
	Centroids  []vector.Sparse
}

// stringReference runs the named vector-space clusterer on the string
// kernels, exactly as its registry adapter did before the adapters
// became interned-only.
func stringReference(name string, vecs []vector.Sparse, cfg Config) stringResult {
	var cl Clustering
	switch name {
	case "kmeans":
		res := KMeans(vecs, KMeansConfig{K: cfg.K, Restarts: cfg.Restarts, Seed: cfg.Seed, Workers: cfg.Workers})
		return stringResult{Clustering: res.Clustering, Similarity: res.Similarity, Centroids: res.Centroids}
	case "bisecting":
		cl = BisectingKMeans(vecs, BisectingConfig{K: cfg.K, Seed: cfg.Seed})
	case "kmedoids":
		cl = KMedoids(len(vecs), func(i, j int) float64 {
			return 1 - vector.Cosine(vecs[i], vecs[j])
		}, KMedoidsConfig{K: cfg.K, Restarts: cfg.Restarts, Seed: cfg.Seed})
	default:
		panic("stringReference: no string path for " + name)
	}
	centroids := ClusterCentroids(vecs, cl)
	return stringResult{Clustering: cl, Similarity: InternalSimilarity(vecs, cl, centroids), Centroids: centroids}
}

// TestInternedKernelsMatchStringPath is the clustering-layer half of the
// interning contract: for every vector-space clusterer in the registry,
// running on interned input must reproduce the string-keyed reference
// bit for bit — same assignments, same similarity, same centroids — at
// several worker counts. The integer kernels are a pure re-encoding,
// never a different algorithm.
func TestInternedKernelsMatchStringPath(t *testing.T) {
	docs := randomClusterDocs(90, 21)
	vecs := vector.TFIDF(docs)
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
				if !vector.Equal(got.Dict.ToSparse(got.Centroids[i]), want.Centroids[i]) {
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
	vecs := vector.TFIDF(docs)
	iv := vector.TFIDFInterned(docs)
	want := KMeans(vecs, KMeansConfig{K: 4, Restarts: 6, Seed: 3, Workers: 1})
	got := KMeansInterned(iv.Vecs, iv.Dict.Len(), KMeansConfig{K: 4, Restarts: 6, Seed: 3, Workers: 1})
	if !reflect.DeepEqual(got.Clustering, want.Clustering) {
		t.Error("clusterings differ")
	}
	if got.Similarity != want.Similarity || got.Iterations != want.Iterations { //thorlint:allow no-float-eq bit-identity is the contract under test
		t.Errorf("similarity/iterations: got %v/%d, want %v/%d",
			got.Similarity, got.Iterations, want.Similarity, want.Iterations)
	}
	for i := range want.Centroids {
		if !vector.Equal(iv.Dict.ToSparse(got.Centroids[i]), want.Centroids[i]) {
			t.Errorf("centroid %d differs", i)
		}
	}
	if sim := InternalSimilarityInterned(iv.Vecs, got.Clustering, got.Centroids); sim != want.Similarity { //thorlint:allow no-float-eq bit-identity is the contract under test
		t.Errorf("InternalSimilarityInterned = %v, want %v", sim, want.Similarity)
	}
	wantC := ClusterCentroids(vecs, want.Clustering)
	gotC := ClusterCentroidsInterned(iv.Vecs, got.Clustering, iv.Dict.Len())
	for i := range wantC {
		if !vector.Equal(iv.Dict.ToSparse(gotC[i]), wantC[i]) {
			t.Errorf("recomputed centroid %d differs", i)
		}
	}
}
