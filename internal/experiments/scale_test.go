package experiments

import (
	"reflect"
	"runtime"
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

// TestAccumulatorAddBytesPerEntry pins what Accumulator.Add allocates per
// (term, page) entry on the scale figure's 110-page sample: the 8-byte
// entry, rounded up to its allocation's size class, plus the amortized
// document list and vocabulary growth, 13.4 B in all with Go 1.24. The
// budget is the 16 bytes an entry padded to an int count took alone;
// with that entry Add allocated 59,664 B for these 2,763 entries (21.6 B
// each).
func TestAccumulatorAddBytesPerEntry(t *testing.T) {
	// The figure's first site as `thorbench -fig scale -dict 40
	// -nonsense 4` probes it; a site's probe does not depend on how many
	// sites there are.
	o := Options{Sites: 12, DictWords: 40, Nonsense: 4, Seed: 42}
	corp := BuildCorpus(o)
	model := synth.BuildModel(corp.Collections[0].Pages)
	const size = 110
	pages := model.Sample(size, o.Seed+size)
	entries := 0
	for _, p := range pages {
		entries += len(p.Tags)
	}
	acc := vector.NewAccumulator(false)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, p := range pages {
		acc.Add(p.Tags)
	}
	runtime.ReadMemStats(&after)
	perEntry := float64(after.TotalAlloc-before.TotalAlloc) / float64(entries)
	t.Logf("%d entries, %d B allocated: %.1f B per entry", entries, after.TotalAlloc-before.TotalAlloc, perEntry)
	if perEntry >= 16 {
		t.Errorf("Accumulator.Add allocated %.1f B per entry, budget under 16", perEntry)
	}
}
