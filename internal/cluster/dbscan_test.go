package cluster

import (
	"math"
	"reflect"
	"testing"

	"thor/internal/vector/vectorref"
)

// absDist adapts a 1-D point set to DBSCAN's distance interface — the
// simplest geometry that exercises density structure exactly.
func absDist(xs []float64) func(i, j int) float64 {
	return func(i, j int) float64 { return math.Abs(xs[i] - xs[j]) }
}

// TestDBSCANSeparatesDenseGroups: two tight groups far apart must come
// out as exactly two clusters with the group split, k discovered rather
// than configured.
func TestDBSCANSeparatesDenseGroups(t *testing.T) {
	// Group A around 0, group B around 100, spacing 1 within groups.
	xs := []float64{0, 1, 2, 3, 4, 100, 101, 102, 103, 104}
	cl := DBSCAN(len(xs), absDist(xs), DBSCANConfig{})
	if cl.K != 2 {
		t.Fatalf("K = %d, want 2 (assign %v)", cl.K, cl.Assign)
	}
	for i := 1; i < 5; i++ {
		if cl.Assign[i] != cl.Assign[0] {
			t.Errorf("group A split: assign %v", cl.Assign)
		}
	}
	for i := 6; i < 10; i++ {
		if cl.Assign[i] != cl.Assign[5] {
			t.Errorf("group B split: assign %v", cl.Assign)
		}
	}
	if cl.Assign[0] == cl.Assign[5] {
		t.Errorf("groups merged: assign %v", cl.Assign)
	}

	// Deterministic: the same input clusters identically every time.
	again := DBSCAN(len(xs), absDist(xs), DBSCANConfig{})
	if !reflect.DeepEqual(cl, again) {
		t.Error("two runs over identical input differ")
	}
}

// TestDBSCANAdoptsNoise: an outlier no region reaches must still land in
// a cluster — the nearest core point's — because phase two and the
// serving wrappers need a total assignment.
func TestDBSCANAdoptsNoise(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 100, 101, 102, 103, 104, 130}
	cl := DBSCAN(len(xs), absDist(xs), DBSCANConfig{Eps: 2})
	if cl.K != 2 {
		t.Fatalf("K = %d, want 2 (assign %v)", cl.K, cl.Assign)
	}
	outlier := cl.Assign[len(xs)-1]
	if outlier != cl.Assign[5] {
		t.Errorf("outlier joined cluster %d, want group B's %d", outlier, cl.Assign[5])
	}
	total := 0
	for _, members := range cl.Clusters {
		total += len(members)
	}
	if total != len(xs) {
		t.Errorf("assignment covers %d of %d points", total, len(xs))
	}
}

// TestDBSCANDegenerateInputs: tiny samples and structureless spreads
// collapse to one cluster instead of erroring or dropping points.
func TestDBSCANDegenerateInputs(t *testing.T) {
	if cl := DBSCAN(0, nil, DBSCANConfig{}); cl.K != 0 || len(cl.Assign) != 0 {
		t.Errorf("empty input: K=%d assign=%v", cl.K, cl.Assign)
	}
	// n ≤ minPts: no density estimate possible.
	xs := []float64{0, 50, 100}
	if cl := DBSCAN(len(xs), absDist(xs), DBSCANConfig{}); cl.K != 1 {
		t.Errorf("3 points: K=%d, want 1", cl.K)
	}
	// No core points under a tiny forced ε: everything far apart.
	spread := []float64{0, 10, 20, 30, 40, 50}
	if cl := DBSCAN(len(spread), absDist(spread), DBSCANConfig{Eps: 1}); cl.K != 1 {
		t.Errorf("structureless spread: K=%d, want 1", cl.K)
	}
	for _, a := range DBSCAN(len(spread), absDist(spread), DBSCANConfig{Eps: 1}).Assign {
		if a != 0 {
			t.Error("structureless spread: not everything in the one cluster")
		}
	}
}

// TestDBSCANEpsOverride: a caller-pinned radius is honored verbatim.
func TestDBSCANEpsOverride(t *testing.T) {
	// Chain spacing 5: under ε=6 one connected component, under ε=2 no
	// core points at all (each point has at most 2 neighbors < minPts).
	xs := []float64{0, 5, 10, 15, 20, 25}
	if cl := DBSCAN(len(xs), absDist(xs), DBSCANConfig{Eps: 6}); cl.K != 1 {
		t.Errorf("ε=6 chain: K=%d, want 1", cl.K)
	}
}

// TestDBSCANRegistryContract drives the adapter over the shared test
// input: k discovered (Config.K ignored), assignment total, centroids and
// similarity in the same vector space as kmeans.
func TestDBSCANRegistryContract(t *testing.T) {
	c, ok := Lookup("dbscan")
	if !ok {
		t.Fatal("dbscan not registered")
	}
	in := testInput(12)
	res, err := c.Cluster(in, Config{K: 5, Seed: 1}) // K deliberately wrong
	if err != nil {
		t.Fatal(err)
	}
	cl := res.Clustering
	if cl.K != 2 {
		t.Fatalf("discovered K = %d, want 2 (assign %v)", cl.K, cl.Assign)
	}
	if len(res.Centroids) != cl.K {
		t.Errorf("%d centroids for %d clusters", len(res.Centroids), cl.K)
	}
	if !(res.Similarity > 0) {
		t.Errorf("similarity %v, want > 0 for two tight groups", res.Similarity)
	}

	// The string-keyed reference must agree on the clustering.
	iv := in.Interned()
	vecs := make([]vectorref.Sparse, len(iv.Vecs))
	for i, v := range iv.Vecs {
		vecs[i] = toRef(iv.Dict, v)
	}
	want := DBSCAN(len(vecs), func(i, j int) float64 {
		return 1 - vectorref.Cosine(vecs[i], vecs[j])
	}, DBSCANConfig{})
	if !reflect.DeepEqual(want, cl) {
		t.Error("interned path clusters differently from the string reference")
	}
}
