package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"thor/internal/core"
	"thor/internal/corpus"
	"thor/internal/deepweb"
	"thor/internal/probe"
	"thor/internal/quality"
)

// serveModelConfig is the canonical per-site serving-model configuration
// shared by the serving benchmarks: the experiment's K/restarts/seed with
// a serial inner pipeline, so site-level fan-out never nests parallelism.
func serveModelConfig(o Options, siteID int) core.Config {
	cfg := core.DefaultConfig()
	cfg.K = o.K
	cfg.Restarts = o.KMRestarts
	cfg.Seed = o.Seed + int64(siteID)
	cfg.Workers = 1
	return cfg
}

// buildServeModel trains one site's serving model from its probed pages.
func buildServeModel(o Options, siteID int, pages []*corpus.Page) *core.Model {
	m, err := core.NewExtractor(serveModelConfig(o, siteID)).BuildModel(pages)
	if err != nil {
		//thorlint:allow no-panic-in-lib programmer-error guard; the default config names a registered clusterer
		panic("experiments: " + err.Error())
	}
	return m
}

// servePasses is how many timed passes the serve figure makes over all
// fresh pages. One pass serves a few hundred pages in tens of
// milliseconds, so a single pass is a noisy sample; the figure reports
// the median pass.
const servePasses = 21

// ServeResult is the machine-readable outcome of ServeBenchmark: the
// one-time model-build cost against the per-page cost of serving raw
// request bytes through ApplyHTML, plus the serving quality the latency
// buys. The embedded table is the human-readable rendering.
type ServeResult struct {
	*TableResult

	// Pages is the number of fresh pages one pass serves.
	Pages int
	// BuildSeconds is the serial model-build total across sites.
	BuildSeconds float64
	// ApplySeconds is the median, over servePasses serial passes, of one
	// pass's ApplyHTML total over every site's fresh pages.
	ApplySeconds float64
	// Mismatches counts pages where ApplyHTML's verdict differed from
	// Apply's over the cached page — always 0; the paths are
	// contract-tested bit-identical, and the benchmark cross-checks
	// anyway.
	Mismatches int
	// Precision and Recall score the served extractions against ground
	// truth.
	Precision, Recall float64
}

// ServeBenchmark measures the staged engine's train-once/serve-many
// split: for each site, the one-time cost of BuildModel over the probed
// sample versus the per-page cost of serving a second, fresh probe round
// the model never saw through Model.ApplyHTML (arena parse, scratch
// signature, direct ID-space interning) — the path a server runs on
// request bytes. Every site's model is built first; then servePasses
// serial passes each serve all sites' fresh pages, one page at a time,
// and the median pass is reported. Outside the timed region the fresh
// pages are also run through Model.Apply, whose verdicts must match the
// last pass's and whose pagelets are scored against ground truth, so the
// table shows what serving quality the latency buys. The passes are
// serial whatever Options.Workers says: the figure measures what one
// request costs, and a request is served on one goroutine; the fleet
// figure measures serving at a worker count.
func ServeBenchmark(o Options) *ServeResult {
	sites := deepweb.NewSites(o.Sites, o.Seed)
	trainProber := &probe.Prober{Plan: probe.NewPlan(o.DictWords, o.Nonsense, o.Seed+1000), Labeler: deepweb.Labeler()}
	// A different plan seed draws different dictionary probes: the served
	// pages answer queries the training sample never issued.
	serveProber := &probe.Prober{Plan: probe.NewPlan(o.DictWords, o.Nonsense, o.Seed+2000), Labeler: deepweb.Labeler()}

	ctx := context.Background()
	out := &ServeResult{}
	models := make([]*core.Model, len(sites))
	fresh := make([]*corpus.Collection, len(sites))
	for i, s := range sites {
		train := trainProber.ProbeSite(s)
		start := time.Now()
		models[i] = buildServeModel(o, s.ID(), train.Pages)
		out.BuildSeconds += time.Since(start).Seconds()
		fresh[i] = serveProber.ProbeSite(s)
		out.Pages += len(fresh[i].Pages)
	}

	// ApplyHTML over the raw bytes a server would see. The timed loop
	// keeps only the returned path strings; trees, signatures, and
	// vectors live in pooled scratch.
	paths := make([][]string, len(sites))
	passes := make([]float64, servePasses)
	for pass := range passes {
		start := time.Now()
		for i, m := range models {
			paths[i] = paths[i][:0]
			for _, p := range fresh[i].Pages {
				path, found, err := m.ApplyHTML(ctx, p.HTML)
				if err != nil {
					//thorlint:allow no-panic-in-lib programmer-error guard; ApplyHTML errors only on ctx cancellation or empty models
					panic("experiments: " + err.Error())
				}
				if found {
					paths[i] = append(paths[i], path)
				}
			}
		}
		passes[pass] = time.Since(start).Seconds()
	}
	sort.Float64s(passes)
	out.ApplySeconds = passes[len(passes)/2]

	var counter quality.Counter
	for si, m := range models {
		// Apply over the corpus pages yields pagelets with their nodes for
		// scoring; its verdicts are cross-checked against ApplyHTML's page
		// for page.
		var pagelets []*core.Pagelet
		for _, p := range fresh[si].Pages {
			pls, err := m.Apply(p)
			if err != nil {
				//thorlint:allow no-panic-in-lib programmer-error guard; Apply errors only on nil pages or empty models
				panic("experiments: " + err.Error())
			}
			pagelets = append(pagelets, pls...)
		}
		if len(paths[si]) != len(pagelets) {
			out.Mismatches += diffAbs(len(paths[si]), len(pagelets))
		} else {
			for j, pl := range pagelets {
				if paths[si][j] != pl.Path {
					out.Mismatches++
				}
			}
		}
		c, i, t := core.Score(pagelets, fresh[si].Pages)
		counter.Add(c, i, t)
	}
	pr := counter.PR()
	out.Precision, out.Recall = pr.Precision, pr.Recall

	res := &TableResult{
		Title:  "staged serving: one-time model build vs per-page apply (fresh probe round)",
		Header: []string{"seconds", "unit-ms", "unit/sec"},
	}
	res.Rows = append(res.Rows, Row{
		Label: "build/site",
		Values: []float64{
			out.BuildSeconds,
			1000 * out.BuildSeconds / float64(len(sites)),
			float64(len(sites)) / out.BuildSeconds,
		},
	})
	res.Rows = append(res.Rows, Row{
		Label: "apply/page",
		Values: []float64{
			out.ApplySeconds,
			1000 * out.ApplySeconds / float64(out.Pages),
			float64(out.Pages) / out.ApplySeconds,
		},
	})
	res.Notes = append(res.Notes,
		fmt.Sprintf("unit = site for the build row, page for the apply row; seconds are serial totals, the apply row's the median of %d passes", servePasses),
		fmt.Sprintf("ApplyHTML verdicts vs Apply: %d mismatches (contract says 0)", out.Mismatches),
		fmt.Sprintf("served %d fresh pages: precision %.3f, recall %.3f", out.Pages, pr.Precision, pr.Recall),
	)
	out.TableResult = res
	return out
}

func diffAbs(a, b int) int {
	if a > b {
		return a - b
	}
	return b - a
}
