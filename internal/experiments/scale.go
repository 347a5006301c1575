package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"thor/internal/synth"
	"thor/internal/vector"
)

// ScaleRow compares the eager and streaming ingestion paths at one
// synthetic scale: how many bytes of heap each path keeps live while its
// artifacts exist, how many bytes it allocates in total, and how long the
// ingestion (sampling + vector building) takes.
type ScaleRow struct {
	PagesPerSite int
	// EagerLiveBytes is the live heap retained by the eager path's
	// artifacts — the materialized page slice, the signature maps, and the
	// weighted vectors — measured by runtime.ReadMemStats after a GC while
	// everything is still referenced. StreamLiveBytes is the same
	// measurement for the streaming path, which retains only the finished
	// vectors.
	EagerLiveBytes  uint64
	StreamLiveBytes uint64
	// Total bytes allocated by each path (includes transients the GC
	// reclaims).
	EagerAllocBytes  uint64
	StreamAllocBytes uint64
	EagerSeconds     float64
	StreamSeconds    float64
}

// LiveRatio returns how many times more heap the eager path keeps live
// than the streaming path (0 when the streaming measurement is empty).
func (r ScaleRow) LiveRatio() float64 {
	if r.StreamLiveBytes == 0 {
		return 0
	}
	return float64(r.EagerLiveBytes) / float64(r.StreamLiveBytes)
}

// ScaleResult is the bounded-memory scaling figure: one row per synthetic
// sweep size, eager vs streaming.
type ScaleResult struct {
	Approach string
	Rows     []ScaleRow
	Notes    []string
}

// RatioAtLargest returns the eager/streaming live-heap ratio at the
// largest measured size (0 when nothing was measured).
func (r *ScaleResult) RatioAtLargest() float64 {
	if len(r.Rows) == 0 {
		return 0
	}
	return r.Rows[len(r.Rows)-1].LiveRatio()
}

// String renders the scaling comparison as an aligned table.
func (r *ScaleResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scale: eager vs streaming ingestion residency (%s)\n", r.Approach)
	fmt.Fprintf(&b, "%-12s  %14s  %14s  %10s  %10s  %8s  %10s  %10s\n",
		"pages/site", "eager-live-B", "stream-live-B", "eager-B/pg", "strm-B/pg", "ratio", "eager-s", "stream-s")
	for _, row := range r.Rows {
		n := float64(row.PagesPerSite)
		fmt.Fprintf(&b, "%-12d  %14d  %14d  %10.0f  %10.0f  %8.1f  %10.4f  %10.4f\n",
			row.PagesPerSite, row.EagerLiveBytes, row.StreamLiveBytes,
			float64(row.EagerLiveBytes)/n, float64(row.StreamLiveBytes)/n,
			row.LiveRatio(), row.EagerSeconds, row.StreamSeconds)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// measureIngest runs one ingestion function and reports the live heap its
// artifacts pin (HeapAlloc delta across the call, both ends measured
// after collecting garbage so only reachable memory counts), the total
// bytes it allocated, and its wall time. The artifact is kept alive
// through the final measurement.
func measureIngest(f func() any) (liveBytes, allocBytes uint64, seconds float64) {
	collect()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	artifact := f()
	seconds = time.Since(start).Seconds()
	collect()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if after.HeapAlloc > before.HeapAlloc {
		liveBytes = after.HeapAlloc - before.HeapAlloc
	}
	allocBytes = after.TotalAlloc - before.TotalAlloc
	runtime.KeepAlive(artifact)
	return liveBytes, allocBytes, seconds
}

// collect collects garbage twice. A sync.Pool moves what it holds to its
// victim cache at one collection and drops it at the next, so after one
// collection the heap still counts pooled objects, which the other end
// of a reading may not: they would be subtracted from, or added to, what
// the artifacts pin.
func collect() {
	runtime.GC()
	runtime.GC()
}

// ScaleBenchmark measures the tentpole's memory claim: it ingests one
// site's synthetic collection at each sweep size through both paths —
// eager (Sample the whole collection, then batch TFIDFInterned, all of
// it resident at once) and streaming (Sampler + vector.Accumulator, each
// page released after its counts are folded in) — and records live
// heap, total allocation, and seconds per path. The two paths produce
// bit-identical interned vectors (pinned by the scale test); the figure
// quantifies what that equivalence costs: streaming residency is the
// sparse vectors alone, so the eager/streaming live-heap ratio grows
// with the per-page signature weight and stays well above 1 at every
// scale.
//
// TFIDF over tag signatures (the paper's TTag) is measured, as the
// representative approach of the sweep.
func ScaleBenchmark(o Options) *ScaleResult {
	res := &ScaleResult{Approach: "TTag"}
	corp := BuildCorpus(o)
	if len(corp.Collections) == 0 {
		res.Notes = append(res.Notes, "no sites probed; nothing to measure")
		return res
	}
	model := synth.BuildModel(corp.Collections[0].Pages)
	for _, size := range SynthSizes(o) {
		seed := o.Seed + int64(size)
		row := ScaleRow{PagesPerSite: size}
		row.EagerLiveBytes, row.EagerAllocBytes, row.EagerSeconds = measureIngest(func() any {
			pages := model.Sample(size, seed)
			docs := synth.TagSignatures(pages)
			// Pin all the pre-streaming Figure 6/7 inner loop held at once.
			return []any{pages, docs, vector.TFIDFInterned(docs)}
		})
		row.StreamLiveBytes, row.StreamAllocBytes, row.StreamSeconds = measureIngest(func() any {
			acc := vector.NewAccumulator(false)
			s := model.Sampler(size, seed)
			for p, ok := s.Next(); ok; p, ok = s.Next() {
				acc.Add(p.Tags)
			}
			return acc.FinishInterned()
		})
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes,
		"live bytes = HeapAlloc delta after GC with artifacts pinned; eager pins pages+signatures+vectors, streaming pins vectors only",
		fmt.Sprintf("eager/streaming live-heap ratio at largest size: %.1fx", res.RatioAtLargest()))
	return res
}
