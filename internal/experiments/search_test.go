package experiments

import (
	"strings"
	"testing"
)

// TestSearchBenchmarkSmall runs the search figure on a capped corpus and
// checks the contract parts of the result: the corpus honors SynthCap,
// every cross-checked query is bit-identical, and the rendered table
// carries the engine's row and the cross-check verdict.
func TestSearchBenchmarkSmall(t *testing.T) {
	o := DefaultOptions()
	o.SynthCap = 3000
	o.Reps = 2
	o.Workers = 2
	r := SearchBenchmark(o)

	if r.Docs != 3000 {
		t.Errorf("Docs = %d, want SynthCap 3000", r.Docs)
	}
	if r.Mismatches != 0 {
		t.Fatalf("%d/%d queries diverged from the exhaustive scan", r.Mismatches, r.Queries)
	}
	if r.Requests != r.Queries*o.Reps {
		t.Errorf("Requests = %d, want %d", r.Requests, r.Queries*o.Reps)
	}
	if r.Digest == "" || len(r.Digest) != 64 {
		t.Errorf("digest %q is not a sha256 hex string", r.Digest)
	}
	if r.ShardedQPS <= 0 || r.ShardedP99Millis <= 0 {
		t.Errorf("degenerate timings: %+v", r)
	}
	s := r.String()
	if !strings.Contains(s, "sharded") {
		t.Errorf("table missing engine rows:\n%s", s)
	}
	if !strings.Contains(s, "200/200 queries bit-identical") {
		t.Errorf("table missing cross-check note:\n%s", s)
	}
}

// TestSearchBenchmarkWorkerCountIndependence pins the determinism
// contract the CI matrix replays: corpus generation, sharded build, and
// ranked results must not depend on the worker count, so the result
// digest is identical at 1 and N workers.
func TestSearchBenchmarkWorkerCountIndependence(t *testing.T) {
	o := DefaultOptions()
	o.SynthCap = 2000
	o.Reps = 1
	var digest string
	for _, w := range []int{1, 3} {
		o.Workers = w
		r := SearchBenchmark(o)
		if r.Mismatches != 0 {
			t.Fatalf("workers=%d: %d mismatches", w, r.Mismatches)
		}
		if digest == "" {
			digest = r.Digest
		} else if r.Digest != digest {
			t.Fatalf("workers=%d digest %s != workers=1 digest %s", w, r.Digest, digest)
		}
	}
}
