package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"thor/internal/vector"
)

// groupsDim is the vocabulary size of threeGroups: terms a..f as IDs 0..5.
const groupsDim = 6

// threeGroups builds 3 well-separated groups of near-identical
// normalized vectors: group g weighs its own pair of IDs 2g and 2g+1.
func threeGroups(perGroup int) ([]vector.IDVec, []int) {
	var vecs []vector.IDVec
	var labels []int
	for g := 0; g < 3; g++ {
		for i := 0; i < perGroup; i++ {
			ids := []int32{int32(2 * g), int32(2*g + 1)}
			weights := []float64{1 + float64(i)*0.01, 0.1 + float64(i)*0.01}
			vecs = append(vecs, vector.Vector(ids, weights, nil))
			labels = append(labels, g)
		}
	}
	return vecs, labels
}

func TestKMeansSeparatesGroups(t *testing.T) {
	vecs, labels := threeGroups(10)
	res := KMeansInterned(vecs, groupsDim, KMeansConfig{K: 3, Restarts: 10, Seed: 1})
	// Every cluster must be label-pure.
	for _, members := range res.Clustering.Clusters {
		if len(members) == 0 {
			continue
		}
		first := labels[members[0]]
		for _, i := range members {
			if labels[i] != first {
				t.Fatalf("cluster mixes groups %d and %d", first, labels[i])
			}
		}
	}
	if res.Similarity < 0.99 {
		t.Errorf("internal similarity = %v, want ≈1 for tight groups", res.Similarity)
	}
}

func TestKMeansDeterministicWithSeed(t *testing.T) {
	vecs, _ := threeGroups(8)
	a := KMeansInterned(vecs, groupsDim, KMeansConfig{K: 3, Restarts: 5, Seed: 42})
	b := KMeansInterned(vecs, groupsDim, KMeansConfig{K: 3, Restarts: 5, Seed: 42})
	for i := range a.Clustering.Assign {
		if a.Clustering.Assign[i] != b.Clustering.Assign[i] {
			t.Fatalf("same seed produced different clusterings at item %d", i)
		}
	}
}

func TestKMeansKClamping(t *testing.T) {
	vecs, _ := threeGroups(1) // 3 vectors
	res := KMeansInterned(vecs, groupsDim, KMeansConfig{K: 10, Restarts: 2, Seed: 1})
	if res.Clustering.K != 3 {
		t.Errorf("K = %d, want clamped to 3", res.Clustering.K)
	}
	res = KMeansInterned(vecs, groupsDim, KMeansConfig{K: 0, Restarts: 1, Seed: 1})
	if res.Clustering.K != 1 {
		t.Errorf("K = %d, want 1 for K<1", res.Clustering.K)
	}
}

func TestKMeansSingleCluster(t *testing.T) {
	vecs, _ := threeGroups(5)
	res := KMeansInterned(vecs, groupsDim, KMeansConfig{K: 1, Restarts: 1, Seed: 1})
	if got := len(res.Clustering.Clusters[0]); got != len(vecs) {
		t.Errorf("single cluster holds %d of %d items", got, len(vecs))
	}
}

// TestKMeansPartitionProperty: every input index appears in exactly one
// cluster, and Assign agrees with Clusters — the clustering definition of
// Section 3.1.1 (union covers all pages, clusters pairwise disjoint).
func TestKMeansPartitionProperty(t *testing.T) {
	property := func(seed int64, kRaw uint8) bool {
		vecs, _ := threeGroups(7)
		k := int(kRaw)%5 + 1
		res := KMeansInterned(vecs, groupsDim, KMeansConfig{K: k, Restarts: 2, Seed: seed})
		seen := make(map[int]int)
		for c, members := range res.Clustering.Clusters {
			for _, i := range members {
				if _, dup := seen[i]; dup {
					return false
				}
				seen[i] = c
				if res.Clustering.Assign[i] != c {
					return false
				}
			}
		}
		return len(seen) == len(vecs)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestKMeansMoreRestartsNeverWorse(t *testing.T) {
	vecs, _ := threeGroups(10)
	one := KMeansInterned(vecs, groupsDim, KMeansConfig{K: 3, Restarts: 1, Seed: 7})
	many := KMeansInterned(vecs, groupsDim, KMeansConfig{K: 3, Restarts: 10, Seed: 7})
	if many.Similarity < one.Similarity-1e-12 {
		t.Errorf("more restarts lowered similarity: %v < %v", many.Similarity, one.Similarity)
	}
}

func TestInternalSimilarityIdenticalPages(t *testing.T) {
	v := vector.Vector([]int32{0}, []float64{1}, nil)
	vecs := []vector.IDVec{v, v, v, v}
	res := KMeansInterned(vecs, 1, KMeansConfig{K: 1, Restarts: 1, Seed: 1})
	if math.Abs(res.Similarity-1) > 1e-9 {
		t.Errorf("similarity of identical pages = %v, want 1", res.Similarity)
	}
}

func TestInternalSimilarityEmpty(t *testing.T) {
	if got := InternalSimilarityInterned(nil, Clustering{}, nil); got != 0 {
		t.Errorf("empty similarity = %v", got)
	}
}

func TestClusterCentroids(t *testing.T) {
	// IDs 0 and 1 stand for terms a and b.
	vecs := []vector.IDVec{
		vector.NewIDVec([]int32{0}, []float64{1}),
		vector.NewIDVec([]int32{0}, []float64{3}),
		vector.NewIDVec([]int32{1}, []float64{2}),
	}
	cl := newClustering(2, []int{0, 0, 1})
	cents := ClusterCentroidsInterned(vecs, cl, 2)
	if c := cents[0]; len(c.IDs) != 1 || c.IDs[0] != 0 || math.Abs(c.Weights[0]-2) > 1e-9 {
		t.Errorf("centroid[0] = %v %v, want a: 2", c.IDs, c.Weights)
	}
	if c := cents[1]; len(c.IDs) != 1 || c.IDs[0] != 1 || math.Abs(c.Weights[0]-2) > 1e-9 {
		t.Errorf("centroid[1] = %v %v, want b: 2", c.IDs, c.Weights)
	}
}

func TestSizes(t *testing.T) {
	cl := newClustering(3, []int{0, 1, 1, 2, 2, 2})
	got := cl.Sizes()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Sizes = %v, want %v", got, want)
		}
	}
}

func TestRandomAssignment(t *testing.T) {
	cl := Random(100, 4, 9)
	if cl.K != 4 || len(cl.Assign) != 100 {
		t.Fatalf("Random shape wrong: K=%d n=%d", cl.K, len(cl.Assign))
	}
	for _, a := range cl.Assign {
		if a < 0 || a >= 4 {
			t.Fatalf("assignment out of range: %d", a)
		}
	}
	// With 100 items over 4 clusters, no cluster should be empty (whp) and
	// the same seed must reproduce.
	again := Random(100, 4, 9)
	for i := range cl.Assign {
		if cl.Assign[i] != again.Assign[i] {
			t.Fatal("Random not deterministic for same seed")
		}
	}
}

func TestKMedoidsSeparatesLine(t *testing.T) {
	// Points on a line in two far-apart blobs.
	points := []float64{0, 1, 2, 100, 101, 102}
	cl := KMedoids(len(points), func(i, j int) float64 {
		return math.Abs(points[i] - points[j])
	}, KMedoidsConfig{K: 2, Seed: 3, Restarts: 5})
	if cl.Assign[0] != cl.Assign[1] || cl.Assign[1] != cl.Assign[2] {
		t.Errorf("low blob split: %v", cl.Assign)
	}
	if cl.Assign[3] != cl.Assign[4] || cl.Assign[4] != cl.Assign[5] {
		t.Errorf("high blob split: %v", cl.Assign)
	}
	if cl.Assign[0] == cl.Assign[3] {
		t.Errorf("blobs merged: %v", cl.Assign)
	}
}

func TestBySizeSeparates(t *testing.T) {
	sizes := []int{100, 110, 120, 5000, 5100, 5200}
	cl := BySize(sizes, 2, 1)
	if cl.Assign[0] != cl.Assign[1] || cl.Assign[0] == cl.Assign[3] {
		t.Errorf("BySize assignments: %v", cl.Assign)
	}
}

func TestByURLSeparates(t *testing.T) {
	urls := []string{
		"http://a.com/search?q=cat",
		"http://a.com/search?q=dog",
		"http://completely-different-site.org/path/to/deep/page.html",
		"http://completely-different-site.org/path/to/deep/other.html",
	}
	cl := ByURL(urls, 2, 1)
	if cl.Assign[0] != cl.Assign[1] {
		t.Errorf("similar URLs split: %v", cl.Assign)
	}
	if cl.Assign[2] != cl.Assign[3] {
		t.Errorf("similar URLs split: %v", cl.Assign)
	}
	if cl.Assign[0] == cl.Assign[2] {
		t.Errorf("dissimilar URLs merged: %v", cl.Assign)
	}
}
