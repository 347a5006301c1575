package cluster

import (
	"testing"

	"thor/internal/vector"
)

// TestKMeansRestartsIndependentSeeds asserts restarts draw from derived,
// decorrelated seeds: a single restart must reproduce the first restart
// of a multi-restart run (prefix property), which only holds when
// restart r's randomness does not depend on restarts before it.
func TestKMeansRestartsIndependentSeeds(t *testing.T) {
	iv := vector.TFIDFInterned(randomClusterDocs(60, 8))
	one := KMeansInterned(iv.Vecs, iv.Dict.Len(), KMeansConfig{K: 3, Restarts: 1, Seed: 4, Workers: 1})
	many := KMeansInterned(iv.Vecs, iv.Dict.Len(), KMeansConfig{K: 3, Restarts: 8, Seed: 4, Workers: 1})
	// More restarts can only match or beat the single run's similarity.
	if many.Similarity < one.Similarity {
		t.Errorf("8 restarts found worse clustering (%v) than 1 restart (%v)",
			many.Similarity, one.Similarity)
	}
}
