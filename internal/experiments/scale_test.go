package experiments

import (
	"reflect"
	"strings"
	"testing"

	"thor/internal/synth"
	"thor/internal/vector"
)

// TestScaleVectorsIdentical pins the equivalence the scale figure
// quantifies: the streaming ingestion (Sampler + Accumulator) must emit
// bit-identical vectors, dictionary included, to the eager one (Sample +
// batch TFIDFInterned) for the same model, size, and seed.
func TestScaleVectorsIdentical(t *testing.T) {
	o := tinyOptions()
	corp := BuildCorpus(o)
	model := synth.BuildModel(corp.Collections[0].Pages)
	const size, seed = 200, int64(99)

	pages := model.Sample(size, seed)
	eager := vector.TFIDFInterned(synth.TagSignatures(pages))

	acc := vector.NewAccumulator(false)
	s := model.Sampler(size, seed)
	for p, ok := s.Next(); ok; p, ok = s.Next() {
		acc.Add(p.Tags)
	}
	streamed := acc.FinishInterned()

	if !reflect.DeepEqual(eager, streamed) {
		t.Fatal("streaming ingestion vectors differ from eager batch vectors")
	}
}

func TestScaleBenchmarkShape(t *testing.T) {
	o := tinyOptions()
	o.SynthCap = 110
	r := ScaleBenchmark(o)
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(r.Rows))
	}
	row := r.Rows[0]
	if row.PagesPerSite != 110 {
		t.Errorf("PagesPerSite = %d", row.PagesPerSite)
	}
	if row.StreamLiveBytes == 0 {
		t.Error("streaming path pinned no live heap (vectors must be resident)")
	}
	if row.EagerAllocBytes == 0 || row.StreamAllocBytes == 0 {
		t.Error("allocation counters empty")
	}
	if row.EagerSeconds < 0 || row.StreamSeconds < 0 {
		t.Error("negative seconds")
	}
	// The figure's claim: the eager path keeps the pages and signature
	// maps resident beside the vectors both paths keep. (Total
	// allocation has no fixed order: the accumulator's per-document
	// count entries cost more than the batch weighting's scratch.)
	if row.EagerLiveBytes <= row.StreamLiveBytes {
		t.Errorf("eager kept %d live bytes, streaming %d: eager must keep strictly more",
			row.EagerLiveBytes, row.StreamLiveBytes)
	}
	out := r.String()
	for _, want := range []string{"pages/site", "eager-live-B", "stream-live-B", "ratio"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
}

func TestScaleBenchmarkNoSites(t *testing.T) {
	o := tinyOptions()
	o.Sites = 0
	r := ScaleBenchmark(o)
	if len(r.Rows) != 0 {
		t.Fatalf("rows = %d, want 0", len(r.Rows))
	}
	if r.RatioAtLargest() != 0 { //thorlint:allow no-float-eq exact sentinel for the empty case
		t.Errorf("RatioAtLargest = %v, want 0", r.RatioAtLargest())
	}
	if !strings.Contains(r.String(), "nothing to measure") {
		t.Errorf("String() missing empty note:\n%s", r.String())
	}
}
