// Command thorbench regenerates the figures of the paper's evaluation
// section over the simulated deep-web corpus.
//
// Usage:
//
//	thorbench -fig 4            # Figure 4 (entropy vs pages/site)
//	thorbench -fig all          # every figure and ablation
//	thorbench -fig 6 -full      # lift the scalability caps (Fig 6/7)
//	thorbench -sites 10 -reps 3 # smaller corpus for quick runs
//	thorbench -fig all -csv out # also write each figure as CSV under out/
//	thorbench -fig 10 -workers 1 -json out   # serial run + BENCH_fig10.json
//	thorbench -fig 10 -workers 0 -json out   # all cores, same figures
//
// Figures: 4, 5, 6, 7, 8, 9, 10, 11, plus "treedist" (tag-signature vs
// tree-edit cost), "stats" (corpus statistics), "serve" (model-build time
// vs per-page Apply latency), "fleet" (per-site models served through
// the multi-tenant registry under concurrent load, plus an overload
// point; with -json it writes BENCH_fleet.json), "drift" (the model
// lifecycle under a shifting template: drift windows, one mini-batch
// refinement, one full rebuild, hot-swapped with zero dropped
// requests; with -json it writes BENCH_drift.json), "scale" (eager vs
// streaming ingestion residency; with -json it writes the per-size heap
// record BENCH_scale.json), "search" (QA-object retrieval over a
// 1M-object synthetic Zipf corpus on the sharded block-max engine,
// cross-checked bit-identical against exhaustive BM25; -synthcap caps the
// corpus for smoke runs; with -json it writes the qps/latency record
// BENCH_search.json), and the ablations "ksweep", "restarts",
// "threshold", "ranking", "objects", "multiregion", "bisecting", and
// "adaptive" (see DESIGN.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"thor/internal/experiments"
	"thor/internal/parallel"
)

func main() {
	var (
		fig     = flag.String("fig", "all", "figure to regenerate: 4,5,6,7,8,9,10,11,treedist,stats,serve,fleet,drift,scale,search,ksweep,restarts,threshold,ranking,objects,multiregion,bisecting,adaptive,all")
		sites   = flag.Int("sites", 50, "number of simulated deep-web sites")
		dict    = flag.Int("dict", 100, "dictionary probe words per site")
		nons    = flag.Int("nonsense", 10, "nonsense probe words per site")
		reps    = flag.Int("reps", 10, "repetitions per measurement (Fig 4/5)")
		seed    = flag.Int64("seed", 42, "random seed")
		full    = flag.Bool("full", false, "lift scalability caps (Fig 6/7 to 110,000 pages/site)")
		k       = flag.Int("k", 4, "number of page clusters")
		m       = flag.Int("restarts", 10, "K-Means restarts")
		csvDir  = flag.String("csv", "", "also write results as CSV files into this directory")
		jsonDir = flag.String("json", "", "also write machine-readable BENCH_<figure>.json timing records into this directory")
		workers = flag.Int("workers", 0, "concurrent workers per figure (1 = serial, 0 = all cores); figures are identical either way")
		synthC  = flag.Int("synthcap", 0, "cap synthetic corpus sizes (scale sweep, search docs) at this many units; 0 = defaults")
	)
	flag.Parse()

	o := experiments.Options{
		Sites: *sites, DictWords: *dict, Nonsense: *nons,
		Reps: *reps, Seed: *seed, Full: *full, K: *k, KMRestarts: *m,
		Workers: *workers, SynthCap: *synthC,
	}

	emit := func(name string, result fmt.Stringer) {
		fmt.Println(result)
		if *csvDir == "" {
			return
		}
		if err := writeCSV(*csvDir, name, result); err != nil {
			fmt.Fprintf(os.Stderr, "thorbench: %v\n", err)
		}
	}

	// run times one figure computation and, with -json, records the wall
	// time as a BENCH_<name>.json artifact so speedups across -workers
	// settings are machine-comparable.
	run := func(name string, f func() fmt.Stringer) fmt.Stringer {
		start := time.Now()
		result := f()
		if *jsonDir != "" {
			// The scale figure writes its own richer record (per-size
			// eager-vs-streaming heap residency), replacing the generic
			// wall-time one.
			var err error
			switch r := result.(type) {
			case *experiments.ScaleResult:
				err = writeScaleBench(*jsonDir, o, r, time.Since(start))
			case *experiments.ServeResult:
				// The serve figure records per-page apply throughput, not
				// just the whole-figure wall time (which is dominated by
				// the one-time model builds).
				err = writeServeBench(*jsonDir, o, r, time.Since(start))
			case *experiments.FleetResult:
				// The fleet figure records registry-serving throughput,
				// latency percentiles, and the overload shed counts.
				err = writeFleetBench(*jsonDir, o, r, time.Since(start))
			case *experiments.SearchResult:
				// The search figure records qps and latency percentiles
				// plus the cross-check verdict against exhaustive BM25.
				err = writeSearchBench(*jsonDir, o, r, time.Since(start))
			case *experiments.DriftResult:
				// The drift figure records the lifecycle contract: phase
				// scores, refine/rebuild counts, the final revision, and
				// the worker-count-independent response digest.
				err = writeDriftBench(*jsonDir, o, r, time.Since(start))
			default:
				err = writeBench(*jsonDir, name, o, time.Since(start))
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "thorbench: %v\n", err)
			}
		}
		return result
	}

	runners := map[string]func() fmt.Stringer{
		"4":           func() fmt.Stringer { return experiments.Fig4(o) },
		"5":           func() fmt.Stringer { return experiments.Fig5(o) },
		"6":           func() fmt.Stringer { return experiments.Fig6(o) },
		"7":           func() fmt.Stringer { return experiments.Fig7(o) },
		"8":           func() fmt.Stringer { return experiments.Fig8(o) },
		"9":           func() fmt.Stringer { return experiments.Fig9(o) },
		"10":          func() fmt.Stringer { return experiments.Fig10(o) },
		"11":          func() fmt.Stringer { return experiments.Fig11(o) },
		"treedist":    func() fmt.Stringer { return experiments.TreeEditComparison(o, 30) },
		"stats":       func() fmt.Stringer { return experiments.Stats(o) },
		"ksweep":      func() fmt.Stringer { return experiments.KSweep(o) },
		"restarts":    func() fmt.Stringer { return experiments.RestartSweep(o) },
		"threshold":   func() fmt.Stringer { return experiments.ThresholdSweep(o) },
		"ranking":     func() fmt.Stringer { return experiments.RankingAblation(o) },
		"objects":     func() fmt.Stringer { return experiments.ObjectPartitioning(o) },
		"multiregion": func() fmt.Stringer { return experiments.MultiRegionAblation(o) },
		"bisecting":   func() fmt.Stringer { return experiments.BisectingAblation(o) },
		"adaptive":    func() fmt.Stringer { return experiments.AdaptiveProbingAblation(o) },
		"serve":       func() fmt.Stringer { return experiments.ServeBenchmark(o) },
		"fleet":       func() fmt.Stringer { return experiments.FleetBenchmark(o) },
		"drift":       func() fmt.Stringer { return experiments.DriftBenchmark(o) },
		"scale":       func() fmt.Stringer { return experiments.ScaleBenchmark(o) },
		"search":      func() fmt.Stringer { return experiments.SearchBenchmark(o) },
	}

	if *fig == "all" {
		start := time.Now()
		// The paired figures share their computation, so they are timed
		// (and BENCH-recorded) as one unit each.
		var e4, t5, e6, t7 fmt.Stringer
		run("fig4_5", func() fmt.Stringer { e4, t5 = experiments.Fig45(o); return e4 })
		emit("fig4", e4)
		emit("fig5", t5)
		run("fig6_7", func() fmt.Stringer { e6, t7 = experiments.Fig67(o); return e6 })
		emit("fig6", e6)
		emit("fig7", t7)
		for _, name := range []string{"stats", "treedist", "8", "9", "10", "11",
			"ksweep", "restarts", "threshold", "ranking",
			"objects", "multiregion", "bisecting", "adaptive", "serve", "fleet", "drift", "scale", "search"} {
			n := csvName(name)
			emit(n, run(n, runners[name]))
		}
		fmt.Printf("total: %v\n", time.Since(start))
		return
	}
	for _, name := range strings.Split(*fig, ",") {
		runner, ok := runners[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "thorbench: unknown figure %q\n", name)
			os.Exit(2)
		}
		n := csvName(name)
		emit(n, run(n, runner))
	}
}

// BenchRecord is the machine-readable timing artifact written by -json:
// one figure's wall time and throughput at a given worker count.
type BenchRecord struct {
	Figure         string  `json:"figure"`
	WallSeconds    float64 `json:"wall_seconds"`
	Pages          int     `json:"pages"`
	PagesPerSecond float64 `json:"pages_per_second"`
	Workers        int     `json:"workers"`
}

// writeBench persists a BENCH_<name>.json record. Pages counts the probed
// corpus the figure was computed over (sites × probes per site); Workers
// is the resolved worker count, so records taken at -workers 0 report the
// actual core count used.
func writeBench(dir, name string, o experiments.Options, wall time.Duration) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	pages := o.Sites * o.ProbesPerSite()
	rec := BenchRecord{
		Figure:         name,
		WallSeconds:    wall.Seconds(),
		Pages:          pages,
		PagesPerSecond: float64(pages) / wall.Seconds(),
		Workers:        parallel.Workers(o.Workers),
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "BENCH_"+name+".json"), append(data, '\n'), 0o644)
}

// ScaleBenchRecord is the machine-readable artifact of the scale figure:
// per sweep size, the live heap and allocation each ingestion path costs,
// so eager-vs-streaming residency is comparable across commits and worker
// counts.
type ScaleBenchRecord struct {
	Figure      string           `json:"figure"`
	WallSeconds float64          `json:"wall_seconds"`
	Workers     int              `json:"workers"`
	Approach    string           `json:"approach"`
	Rows        []ScaleRowRecord `json:"rows"`
	// EagerOverStreamingLiveRatio is the live-heap ratio at the largest
	// measured size — the headline bounded-memory number.
	EagerOverStreamingLiveRatio float64 `json:"eager_over_streaming_live_ratio"`
}

// ScaleRowRecord is one sweep size of the scale record.
type ScaleRowRecord struct {
	PagesPerSite          int     `json:"pages_per_site"`
	EagerLiveBytes        uint64  `json:"eager_live_bytes"`
	StreamingLiveBytes    uint64  `json:"streaming_live_bytes"`
	EagerBytesPerPage     float64 `json:"eager_bytes_per_page"`
	StreamingBytesPerPage float64 `json:"streaming_bytes_per_page"`
	EagerAllocBytes       uint64  `json:"eager_alloc_bytes"`
	StreamingAllocBytes   uint64  `json:"streaming_alloc_bytes"`
	EagerSeconds          float64 `json:"eager_seconds"`
	StreamingSeconds      float64 `json:"streaming_seconds"`
}

// writeScaleBench persists the scale figure as BENCH_scale.json.
func writeScaleBench(dir string, o experiments.Options, r *experiments.ScaleResult, wall time.Duration) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec := ScaleBenchRecord{
		Figure:                      "scale",
		WallSeconds:                 wall.Seconds(),
		Workers:                     parallel.Workers(o.Workers),
		Approach:                    r.Approach,
		EagerOverStreamingLiveRatio: r.RatioAtLargest(),
	}
	for _, row := range r.Rows {
		n := float64(row.PagesPerSite)
		rec.Rows = append(rec.Rows, ScaleRowRecord{
			PagesPerSite:          row.PagesPerSite,
			EagerLiveBytes:        row.EagerLiveBytes,
			StreamingLiveBytes:    row.StreamLiveBytes,
			EagerBytesPerPage:     float64(row.EagerLiveBytes) / n,
			StreamingBytesPerPage: float64(row.StreamLiveBytes) / n,
			EagerAllocBytes:       row.EagerAllocBytes,
			StreamingAllocBytes:   row.StreamAllocBytes,
			EagerSeconds:          row.EagerSeconds,
			StreamingSeconds:      row.StreamSeconds,
		})
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "BENCH_scale.json"), append(data, '\n'), 0o644)
}

// ServeBenchRecord is the machine-readable artifact of the serve figure.
// PagesPerSecond is the ApplyHTML serving throughput — the number a
// query-time engine lives on — and BuildSeconds is the one-time per-site
// analysis cost the apply row amortizes. Records before the pooled
// pipeline reported whole-figure wall throughput (builds included) in
// PagesPerSecond; WallSeconds still carries that figure wall for
// continuity. Records before the apply paths were merged also carry
// legacy_pages_per_second and pooled_speedup.
type ServeBenchRecord struct {
	Figure         string  `json:"figure"`
	WallSeconds    float64 `json:"wall_seconds"`
	Pages          int     `json:"pages"`
	PagesPerSecond float64 `json:"pages_per_second"`
	BuildSeconds   float64 `json:"build_seconds"`
	Mismatches     int     `json:"mismatches"`
	Precision      float64 `json:"precision"`
	Recall         float64 `json:"recall"`
	Workers        int     `json:"workers"`
	Note           string  `json:"note"`
}

// writeServeBench persists the serve figure as BENCH_serve.json.
func writeServeBench(dir string, o experiments.Options, r *experiments.ServeResult, wall time.Duration) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec := ServeBenchRecord{
		Figure:         "serve",
		WallSeconds:    wall.Seconds(),
		Pages:          r.Pages,
		PagesPerSecond: float64(r.Pages) / r.ApplySeconds,
		BuildSeconds:   r.BuildSeconds,
		Mismatches:     r.Mismatches,
		Precision:      r.Precision,
		Recall:         r.Recall,
		Workers:        parallel.Workers(o.Workers),
		Note: "pages_per_second is per-page serving throughput (ApplyHTML), from the median of " +
			"repeated serial passes over all fresh pages; pre-pipeline records reported " +
			"whole-figure wall throughput, builds included",
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "BENCH_serve.json"), append(data, '\n'), 0o644)
}

// FleetBenchRecord is the machine-readable artifact of the fleet
// figure: throughput and latency percentiles of a mixed multi-site
// request stream through the model registry (lazy cold loads included),
// plus the overload point — holder/refused pairs against a one-slot
// gate with no queue, each deterministically one served and one shed
// with 429.
type FleetBenchRecord struct {
	Figure            string  `json:"figure"`
	WallSeconds       float64 `json:"wall_seconds"`
	Workers           int     `json:"workers"`
	Sites             int     `json:"sites"`
	Requests          int     `json:"requests"`
	TrainSeconds      float64 `json:"train_seconds"`
	ServeSeconds      float64 `json:"serve_seconds"`
	RequestsPerSecond float64 `json:"requests_per_second"`
	P50Millis         float64 `json:"p50_ms"`
	P99Millis         float64 `json:"p99_ms"`
	Errors            int     `json:"errors"`
	LoadedModels      int     `json:"loaded_models"`
	OverloadPairs     int     `json:"overload_pairs"`
	OverloadOK        int     `json:"overload_ok"`
	Overload429       int     `json:"overload_429"`
}

// writeFleetBench persists the fleet figure as BENCH_fleet.json.
func writeFleetBench(dir string, o experiments.Options, r *experiments.FleetResult, wall time.Duration) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec := FleetBenchRecord{
		Figure:            "fleet",
		WallSeconds:       wall.Seconds(),
		Workers:           parallel.Workers(o.Workers),
		Sites:             r.Sites,
		Requests:          r.Requests,
		TrainSeconds:      r.TrainSeconds,
		ServeSeconds:      r.ServeSeconds,
		RequestsPerSecond: r.RequestsPerSec,
		P50Millis:         r.P50Millis,
		P99Millis:         r.P99Millis,
		Errors:            r.Errors,
		LoadedModels:      r.LoadedModels,
		OverloadPairs:     r.OverloadPairs,
		OverloadOK:        r.OverloadOK,
		Overload429:       r.Overload429,
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "BENCH_fleet.json"), append(data, '\n'), 0o644)
}

// DriftBenchRecord is the machine-readable artifact of the drift
// figure: the model-maintenance lifecycle under a template that shifts
// twice. The contract fields — errors 0, one refine, one rebuild,
// final revision 2, adapted true, and the response digest — must be
// identical across worker counts; only the wall times may move.
type DriftBenchRecord struct {
	Figure         string     `json:"figure"`
	WallSeconds    float64    `json:"wall_seconds"`
	Workers        int        `json:"workers"`
	Requests       int        `json:"requests"`
	Errors         int        `json:"errors"`
	Window         int        `json:"window"`
	PhaseScores    [4]float64 `json:"phase_scores"`
	Refines        int64      `json:"refines"`
	FullRebuilds   int64      `json:"full_rebuilds"`
	FinalRev       int        `json:"final_rev"`
	Adapted        bool       `json:"adapted"`
	TrainSeconds   float64    `json:"train_seconds"`
	ServeSeconds   float64    `json:"serve_seconds"`
	ResponseDigest string     `json:"response_digest"`
}

// writeDriftBench persists the drift figure as BENCH_drift.json.
func writeDriftBench(dir string, o experiments.Options, r *experiments.DriftResult, wall time.Duration) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec := DriftBenchRecord{
		Figure:         "drift",
		WallSeconds:    wall.Seconds(),
		Workers:        parallel.Workers(o.Workers),
		Requests:       r.Requests,
		Errors:         r.Errors,
		Window:         o.ProbesPerSite(),
		PhaseScores:    r.PhaseScores,
		Refines:        r.Refines,
		FullRebuilds:   r.Rebuilds,
		FinalRev:       r.FinalRev,
		Adapted:        r.Adapted,
		TrainSeconds:   r.TrainSeconds,
		ServeSeconds:   r.ServeSeconds,
		ResponseDigest: r.ResponseDigest,
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "BENCH_drift.json"), append(data, '\n'), 0o644)
}

// SearchBenchRecord is the machine-readable artifact of the search
// figure: a query stream over a synthetic QA-object corpus on the
// sharded block-max engine, cross-checked against exhaustive BM25. The
// contract fields — mismatches 0 and the result digest — must be
// identical across worker counts; only throughput and latency may move.
// Records from before the legacy timing rows were dropped also carry
// legacy_* fields and a speedup.
type SearchBenchRecord struct {
	Figure              string  `json:"figure"`
	WallSeconds         float64 `json:"wall_seconds"`
	Workers             int     `json:"workers"`
	Docs                int     `json:"docs"`
	Shards              int     `json:"shards"`
	Queries             int     `json:"queries"`
	Requests            int     `json:"requests"`
	ShardedBuildSeconds float64 `json:"sharded_build_seconds"`
	ShardedQPS          float64 `json:"sharded_qps"`
	ShardedP50Millis    float64 `json:"sharded_p50_ms"`
	ShardedP99Millis    float64 `json:"sharded_p99_ms"`
	Mismatches          int     `json:"mismatches"`
	ResultDigest        string  `json:"result_digest"`
}

// writeSearchBench persists the search figure as BENCH_search.json.
func writeSearchBench(dir string, o experiments.Options, r *experiments.SearchResult, wall time.Duration) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec := SearchBenchRecord{
		Figure:              "search",
		WallSeconds:         wall.Seconds(),
		Workers:             parallel.Workers(o.Workers),
		Docs:                r.Docs,
		Shards:              r.Shards,
		Queries:             r.Queries,
		Requests:            r.Requests,
		ShardedBuildSeconds: r.ShardedBuildSeconds,
		ShardedQPS:          r.ShardedQPS,
		ShardedP50Millis:    r.ShardedP50Millis,
		ShardedP99Millis:    r.ShardedP99Millis,
		Mismatches:          r.Mismatches,
		ResultDigest:        r.Digest,
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "BENCH_search.json"), append(data, '\n'), 0o644)
}

// csvName maps a -fig selector to a CSV file stem.
func csvName(name string) string {
	switch name {
	case "4", "5", "6", "7", "8", "9", "10", "11":
		return "fig" + name
	default:
		return name
	}
}

// writeCSV persists a result when its type supports CSV export.
func writeCSV(dir, name string, result fmt.Stringer) error {
	var write func(f *os.File) error
	switch r := result.(type) {
	case *experiments.Figure:
		write = func(f *os.File) error { return r.WriteCSV(f) }
	case *experiments.TableResult:
		write = func(f *os.File) error { return r.WriteCSV(f) }
	case *experiments.Fig9Result:
		write = func(f *os.File) error { return r.WriteCSV(f) }
	default:
		return nil // stats / treedist have no tabular form
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
