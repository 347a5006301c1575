package experiments

import (
	"fmt"

	"thor/internal/cluster"
	"thor/internal/core"
	"thor/internal/corpus"
	"thor/internal/deepweb"
	"thor/internal/probe"
	"thor/internal/quality"
	"thor/internal/vector"
)

// MultiRegionAblation studies sites with two primary content regions (the
// multiple-QA-Pagelet case Section 1 raises): the same corpus of
// two-region sites is extracted with NumPagelets 1, 2, and 3. One
// selection caps recall near 50%; two selections recover both regions;
// a third selection can only hurt precision.
func MultiRegionAblation(o Options) *TableResult {
	sites := make([]*deepweb.Site, o.Sites)
	for i := range sites {
		sites[i] = deepweb.NewSite(deepweb.SiteConfig{ID: i, Seed: o.Seed, MultiRegion: true})
	}
	plan := probe.NewPlan(o.DictWords, o.Nonsense, o.Seed+1000)
	prober := &probe.Prober{Plan: plan, Labeler: deepweb.Labeler()}
	corp := prober.ProbeAll(deepweb.AsProbeSites(sites))

	res := &TableResult{
		Title:  "multi-region ablation: P/R vs QA-Pagelets selected per cluster (two-region sites)",
		Header: []string{"precision", "recall", "f1"},
	}
	for _, num := range []int{1, 2, 3} {
		var counter quality.Counter
		for _, col := range corp.Collections {
			cfg := core.DefaultConfig()
			cfg.NumPagelets = num
			cfg.Restarts = o.KMRestarts
			cfg.Seed = o.Seed + int64(col.SiteID)
			r := core.NewExtractor(cfg).Extract(col.Pages)
			c, i, t := core.Score(r.Pagelets, col.Pages)
			counter.Add(c, i, t)
		}
		pr := counter.PR()
		res.Rows = append(res.Rows, Row{
			Label:  fmt.Sprintf("pagelets=%d", num),
			Values: []float64{pr.Precision, pr.Recall, pr.F1()},
		})
	}
	return res
}

// BisectingAblation compares plain K-Means (the paper's choice) against
// bisecting K-Means (Steinbach et al. [29]) on the page clustering task:
// average entropy over the corpus for both, at the paper's k.
func BisectingAblation(o Options) *TableResult {
	corp := BuildCorpus(o)
	res := &TableResult{
		Title:  "clusterer ablation: plain vs bisecting K-Means (TFIDF tag signatures)",
		Header: []string{"entropy", "purity"},
	}
	// Both variants come from the clusterer registry — the ablation is a
	// two-name slice away from covering any other registered algorithm.
	for _, name := range []string{"kmeans", "bisecting"} {
		c, err := cluster.MustLookup(name)
		if err != nil {
			//thorlint:allow no-panic-in-lib programmer-error guard; both names are registered builtins
			panic("experiments: " + err.Error())
		}
		var entSum, purSum float64
		for _, col := range corp.Collections {
			pages := col.Pages
			in := cluster.Input{
				N: len(pages),
				Interned: func() vector.Interned {
					return vector.TFIDFInterned(core.TagSignatures(pages))
				},
			}
			r, err := c.Cluster(in, cluster.Config{K: o.K, Restarts: o.KMRestarts, Seed: o.Seed + int64(col.SiteID)})
			if err != nil {
				//thorlint:allow no-panic-in-lib programmer-error guard; both clusterers consume the vector view, which is present
				panic("experiments: " + err.Error())
			}
			entSum += quality.Entropy(r.Clustering, col.Labels(), int(corpus.NumClasses))
			purSum += quality.Purity(r.Clustering, col.Labels(), int(corpus.NumClasses))
		}
		n := float64(len(corp.Collections))
		res.Rows = append(res.Rows, Row{
			Label:  name,
			Values: []float64{entSum / n, purSum / n},
		})
	}
	return res
}

// AdaptiveProbingAblation compares the fixed probing plan against the
// adaptive feedback prober: pages collected, answer-page share, and
// distinct answer templates sampled per plan, averaged over sites. The
// adaptive round probes vocabulary mined from answer pages, so its probes
// hit the database far more often than dictionary draws.
func AdaptiveProbingAblation(o Options) *TableResult {
	sites := deepweb.NewSites(o.Sites, o.Seed)
	plan := probe.NewPlan(o.DictWords, o.Nonsense, o.Seed+1000)

	res := &TableResult{
		Title:  "probing ablation: fixed plan vs adaptive feedback round",
		Header: []string{"pages", "answer-share", "hit-rate"},
	}

	fixed := &probe.Prober{Plan: plan, Labeler: deepweb.Labeler()}
	var fixedPages, fixedAnswers int
	for _, s := range sites {
		col := fixed.ProbeSite(s)
		fixedPages += len(col.Pages)
		fixedAnswers += len(col.PageletBearing())
	}
	res.Rows = append(res.Rows, Row{
		Label: "fixed",
		Values: []float64{
			float64(fixedPages) / float64(len(sites)),
			float64(fixedAnswers) / float64(fixedPages),
			float64(fixedAnswers) / float64(fixedPages),
		},
	})

	adaptive := &probe.AdaptiveProber{Plan: plan, Labeler: deepweb.Labeler(), FeedbackProbes: 20}
	var adPages, adAnswers, fbProbes, fbHits int
	for _, s := range sites {
		col := adaptive.ProbeSite(s)
		adPages += len(col.Pages)
		adAnswers += len(col.PageletBearing())
		for _, p := range col.Pages[len(plan.Keywords()):] {
			fbProbes++
			if p.Class.HasPagelets() {
				fbHits++
			}
		}
	}
	hitRate := 0.0
	if fbProbes > 0 {
		hitRate = float64(fbHits) / float64(fbProbes)
	}
	res.Rows = append(res.Rows, Row{
		Label: "adaptive",
		Values: []float64{
			float64(adPages) / float64(len(sites)),
			float64(adAnswers) / float64(adPages),
			hitRate,
		},
	})
	res.Notes = append(res.Notes,
		"hit-rate: answer share of all probes (fixed) vs of the feedback probes only (adaptive)")
	return res
}
