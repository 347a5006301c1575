package cluster

import (
	"testing"

	"thor/internal/vector"
)

// BenchmarkKMeansNoRepeat runs K-Means where no two vectors are equal:
// randomClusterDocs draws every count at random, so the distinct-vector
// pass finds nothing to share and only costs. It stands for a site whose
// pages repeat no tag signature.
func BenchmarkKMeansNoRepeat(b *testing.B) {
	iv := vector.TFIDFInterned(randomClusterDocs(240, 17))
	cfg := KMeansConfig{K: 3, Restarts: 10, Seed: 5, Workers: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KMeansInterned(iv.Vecs, iv.Dict.Len(), cfg)
	}
}
