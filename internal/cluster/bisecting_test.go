package cluster

import (
	"testing"

	"thor/internal/vector"
)

func TestBisectingSeparatesGroups(t *testing.T) {
	vecs, labels := threeGroups(10)
	cl := BisectingKMeansInterned(vecs, groupsDim, BisectingConfig{K: 3, Seed: 1})
	if cl.K != 3 {
		t.Fatalf("K = %d", cl.K)
	}
	for _, members := range cl.Clusters {
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
}

func TestBisectingPartition(t *testing.T) {
	vecs, _ := threeGroups(7)
	for _, k := range []int{1, 2, 4, 6} {
		cl := BisectingKMeansInterned(vecs, groupsDim, BisectingConfig{K: k, Seed: 2})
		seen := make(map[int]bool)
		for c, members := range cl.Clusters {
			for _, i := range members {
				if seen[i] {
					t.Fatalf("k=%d: item %d in two clusters", k, i)
				}
				seen[i] = true
				if cl.Assign[i] != c {
					t.Fatalf("k=%d: assign/clusters disagree", k)
				}
			}
		}
		if len(seen) != len(vecs) {
			t.Fatalf("k=%d: covered %d of %d", k, len(seen), len(vecs))
		}
	}
}

func TestBisectingClampsK(t *testing.T) {
	vecs, _ := threeGroups(1) // 3 vectors
	cl := BisectingKMeansInterned(vecs, groupsDim, BisectingConfig{K: 99, Seed: 1})
	if cl.K != 3 {
		t.Errorf("K = %d, want clamped to 3", cl.K)
	}
}

func TestBisectingIdenticalVectors(t *testing.T) {
	v := vector.Vector([]int32{0}, []float64{1}, nil)
	vecs := []vector.IDVec{v, v, v, v, v, v}
	cl := BisectingKMeansInterned(vecs, groupsDim, BisectingConfig{K: 3, Seed: 1})
	// Must terminate and still produce a partition of 3 clusters.
	total := 0
	for _, members := range cl.Clusters {
		total += len(members)
	}
	if total != 6 || cl.K != 3 {
		t.Errorf("degenerate input: K=%d covered=%d", cl.K, total)
	}
}

func TestBisectingDeterministic(t *testing.T) {
	vecs, _ := threeGroups(8)
	a := BisectingKMeansInterned(vecs, groupsDim, BisectingConfig{K: 3, Seed: 5})
	b := BisectingKMeansInterned(vecs, groupsDim, BisectingConfig{K: 3, Seed: 5})
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("not deterministic with same seed")
		}
	}
}
