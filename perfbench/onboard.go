package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"thor/internal/core"
	"thor/internal/corpus"
	"thor/internal/deepweb"
	"thor/internal/parallel"
	"thor/internal/probe"
	"thor/internal/quality"
)

// The onboard workload is the paper's corpus: 50 simulated sites, each
// probed with 100 dictionary and 10 nonsense keywords (5,500 pages), and
// every site turned into a servable model. It does all of training and
// none of serving or search, so phase two (the ROADMAP's first
// optimisation target) dominates it.
const (
	onboardSites    = 50
	onboardDict     = 100
	onboardNonsense = 10
)

// pageSpec is one probed page as stored after probing: raw fields only,
// so every training pass builds fresh corpus.Page values whose lazy tree
// and signature caches start cold, as they do for a newly probed site.
type pageSpec struct {
	siteID         int
	url, query, ht string
	class          corpus.Class
}

// siteSample is one site's probed pages.
type siteSample struct {
	id    int
	specs []pageSpec
}

// fresh returns new, cache-cold pages for the site.
func (s *siteSample) fresh() []*corpus.Page {
	pages := make([]*corpus.Page, len(s.specs))
	for i, p := range s.specs {
		pages[i] = &corpus.Page{SiteID: p.siteID, URL: p.url, Query: p.query, HTML: p.ht, Class: p.class}
	}
	return pages
}

// probeSites probes every site, fanned over workers, each with its own
// plan of onboardDict dictionary and onboardNonsense nonsense words drawn
// from planSeed and the site ID. Per-site plans keep a run's cost from
// hinging on one draw of words: a shared plan makes every site's answer
// pages longer or shorter together.
func probeSites(sites []*deepweb.Site, planSeed int64, workers int) []*siteSample {
	return parallel.Map(len(sites), workers, func(i int) *siteSample {
		plan := probe.NewPlan(onboardDict, onboardNonsense, parallel.DeriveSeed(planSeed, int64(sites[i].ID())))
		pr := &probe.Prober{Plan: plan, Labeler: deepweb.Labeler()}
		col := pr.ProbeSite(sites[i])
		s := &siteSample{id: sites[i].ID(), specs: make([]pageSpec, len(col.Pages))}
		for j, p := range col.Pages {
			s.specs[j] = pageSpec{siteID: p.SiteID, url: p.URL, query: p.Query, ht: p.HTML, class: p.Class}
		}
		return s
	})
}

// siteSeed generates the simulated sites. The sites are fixed, as the
// paper's 50 real sites were, so a workload's cost does not hinge on
// which site templates a seed happens to draw; the run's seed draws the
// probe plans, the training seeds and the request streams.
const siteSeed = 42

// onboardInputs returns the workload's sites and the seed of their probe
// plans.
func onboardInputs(seed int64) ([]*deepweb.Site, int64) {
	return deepweb.NewSites(onboardSites, siteSeed), parallel.DeriveSeed(seed, 1)
}

// Floors of the onboard workload's output gate: precision and recall of
// the latest models against ground truth (core.Score, as in the paper's
// Fig 10), summed over the sites a run trained. Seeds 1–30 gave at least
// 0.940 precision and 0.898 recall over all 50 sites; a single site
// can score far lower, so the floors hold for the sum only.
const (
	minPrecision = 0.90
	minRecall    = 0.85
)

// siteConfig is the per-site training configuration: the paper's
// defaults, a per-site seed, and a serial inner pipeline so the site-level
// fan-out never nests parallelism.
func siteConfig(seed int64, siteID int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = parallel.DeriveSeed(seed, int64(siteID))
	cfg.Workers = 1
	return cfg
}

// samplesDigest fingerprints the probed inputs.
func samplesDigest(samples []*siteSample) string {
	d := newDigest()
	for _, s := range samples {
		for _, p := range s.specs {
			d.add(p.url, p.query, p.ht, p.class.String())
		}
	}
	return d.sum()
}

// modelDigest fingerprints a model's wrappers (cluster, paths, shape).
func modelDigest(d *digest, m *core.Model) {
	for ci, w := range m.Wrappers {
		if w == nil {
			d.add(fmt.Sprint(ci, "-"))
			continue
		}
		d.add(fmt.Sprint(ci, w.Fanout, w.Depth, w.Nodes), strings.Join(w.Paths, "|"))
	}
}

// runOnboard: set up by probing the corpus, then train sites round-robin
// on the clients until the time is up. Throughput counts the pages of
// completed builds over the wall time to the last completion, so no
// partial build is lost or counted.
func runOnboard(r *run) {
	sites, planSeed := onboardInputs(r.seed)
	samples, setupS := timedSetup(func() []*siteSample { return probeSites(sites, planSeed, r.clients) })
	r.info("input digest %s (%d sites, %d probes each)", samplesDigest(samples), len(samples), len(samples[0].specs))

	type built struct {
		model *core.Model
		pages []*corpus.Page
	}
	latest := make([]built, len(samples))
	var (
		mu sync.Mutex
		// perSite holds each site's build times; a run builds every site
		// once or twice.
		perSite = make([][]float64, len(samples))
		builds  int64
		failed  int64
		next    atomic.Int64
	)
	// Each worker's rate is its pages over the span to its own last
	// completion; the workload's rate is their sum, so the idle tail while
	// the slower worker finishes its last site is not charged to it.
	rates := make([]float64, r.clients)
	start := time.Now()
	deadline := start.Add(time.Duration(r.seconds * float64(time.Second)))
	parallel.ForEach(r.clients, r.clients, func(w int) {
		pagesDone := 0
		for time.Now().Before(deadline) {
			i := int(next.Add(1)-1) % len(samples)
			s := samples[i]
			pages := s.fresh()
			t0 := time.Now()
			m, err := core.NewExtractor(siteConfig(r.seed, s.id)).BuildModel(pages)
			ms := msSince(t0)
			mu.Lock()
			builds++
			if err != nil {
				failed++
				ms = math.Inf(1)
			} else {
				pagesDone += len(pages)
				latest[i] = built{m, pages}
			}
			perSite[i] = append(perSite[i], ms)
			mu.Unlock()
		}
		rates[w] = float64(pagesDone) / time.Since(start).Seconds()
	})
	elapsed := time.Since(start).Seconds()
	rate := 0.0
	for _, x := range rates {
		rate += x
	}

	// Latency is the time to onboard a site: each site's mean build time,
	// so that which sites a run happens to build twice does not move it.
	var latencies []float64
	for _, xs := range perSite {
		if len(xs) > 0 {
			sum := 0.0
			for _, x := range xs {
				sum += x
			}
			latencies = append(latencies, sum/float64(len(xs)))
		}
	}

	heap := liveHeapMB()
	var counter quality.Counter
	d := newDigest()
	trained, bare := 0, 0
	for _, b := range latest {
		if b.model == nil {
			continue
		}
		trained++
		if !slices.ContainsFunc(b.model.Wrappers, func(w *core.Wrapper) bool { return w != nil }) {
			bare++
		}
		c, i, t := core.Score(b.model.Training().Pagelets, b.pages)
		counter.Add(c, i, t)
		modelDigest(d, b.model)
	}
	pr := counter.PR()
	if bare > 0 {
		r.fail("%d of %d trained sites have no wrapper", bare, trained)
	}
	if trained > 0 && !(pr.Precision >= minPrecision && pr.Recall >= minRecall) {
		r.fail("precision %.4f and recall %.4f over %d sites fall below the floors %.2f and %.2f",
			pr.Precision, pr.Recall, trained, minPrecision, minRecall)
	}

	r.res.Attempted = builds
	r.res.Failed = failed
	if failed > 0 {
		r.fail("%d BuildModel calls returned an error", failed)
	}
	r.put("setup_s", setupS, "s")
	r.put("live_heap_mb", heap, "MB")
	r.put("ops_per_s", rate, "1/s")
	r.put("p50_ms", percentile(latencies, 50), "ms")
	// Over 50 sites, p80 is the highest percentile with ten sites beyond it.
	r.put("tail_ms", percentile(latencies, 80), "ms")
	r.info("train_pages_per_s %.2f 1/s over %.1f s (%d site builds at %d workers)", rate, elapsed, builds, r.clients)
	r.info("site onboarding time over %d sites: p50 %.1f ms, p80 %.1f ms, max %.1f ms",
		len(latencies), percentile(latencies, 50), percentile(latencies, 80), percentile(latencies, 100))
	r.info("precision %.4f, recall %.4f over the latest model of %d sites (model digest %s)", pr.Precision, pr.Recall, trained, d.sum())
	// The models stay referenced through the heap measurement.
	runtime.KeepAlive(latest)
}
