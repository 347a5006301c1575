package experiments

import (
	"fmt"
	"time"

	"thor/internal/cluster"
	"thor/internal/core"
	"thor/internal/corpus"
	"thor/internal/quality"
	"thor/internal/synth"
	"thor/internal/vector"
)

// SynthApproaches are the approaches compared on the synthetic sets in
// Figures 6 and 7 (URL-based is omitted there, as synthetic pages have no
// URLs; the paper's Figure 6/7 legends likewise drop it).
var SynthApproaches = []core.Approach{
	core.RandomAssign, core.SizeBased,
	core.RawContent, core.TFIDFContent, core.RawTags, core.TFIDFTags,
}

// SynthSizes returns the pages-per-site scales of the synthetic sweep. The
// paper sweeps 110 → 110,000 (5.5M pages total); the default harness stops
// at 11,000 pages/site so a run finishes in CI time, and Full lifts the
// cap to the paper's maximum. SynthCap (when set) truncates the sweep
// further — the unit tests use it to stay fast.
func SynthSizes(o Options) []int {
	sizes := []int{110, 1100, 11000}
	if o.Full {
		sizes = append(sizes, 110000)
	}
	if o.SynthCap > 0 {
		kept := sizes[:0]
		for _, s := range sizes {
			if s <= o.SynthCap {
				kept = append(kept, s)
			}
		}
		sizes = kept
	}
	return sizes
}

// synthSiteBudget caps how many of the 50 per-site models are actually
// clustered at each scale so default runs stay tractable; the average over
// the sampled sites estimates the average over all. Full removes the caps.
func synthSiteBudget(size int, o Options) int {
	if o.Full {
		return o.Sites
	}
	switch {
	case size <= 1100:
		return o.Sites
	case size <= 11000:
		return 10
	default:
		return 3
	}
}

// Fig6 reproduces Figure 6: average entropy on the synthetic data sets as
// collections grow from 110 to 110,000 pages per site.
func Fig6(o Options) *Figure {
	ent, _ := runFig67(o)
	return ent
}

// Fig7 reproduces Figure 7: average time of one clustering run on the
// synthetic sets (the paper's log–log plot showing linear K-Means
// scaling).
func Fig7(o Options) *Figure {
	_, t := runFig67(o)
	return t
}

// Fig67 returns both synthetic-scalability figures from one sweep.
func Fig67(o Options) (entropy, times *Figure) { return runFig67(o) }

func runFig67(o Options) (entropyFig, timeFig *Figure) {
	corp := BuildCorpus(o)
	// One generative model per site, as in the paper: the synthetic pages
	// of a site follow that site's class-conditional signature
	// distributions.
	models := make([]*synth.Model, len(corp.Collections))
	for i, col := range corp.Collections {
		models[i] = synth.BuildModel(col.Pages)
	}
	entropyFig = &Figure{
		Title:  "Figure 6: average entropy vs pages per site (synthetic sets)",
		XLabel: "pages/site",
		YLabel: "entropy",
	}
	timeFig = &Figure{
		Title:  "Figure 7: average clustering time (s) vs pages per site (synthetic sets)",
		XLabel: "pages/site",
		YLabel: "seconds",
	}
	sizes := SynthSizes(o)
	for _, a := range SynthApproaches {
		es := Series{Name: a.String()}
		ts := Series{Name: a.String()}
		for _, size := range sizes {
			budget := synthSiteBudget(size, o)
			var entSum, secSum float64
			runs := 0
			for m := 0; m < budget && m < len(models); m++ {
				e, s := clusterSynthStream(models[m], size, o.Seed+int64(m*31+size), a, o, int64(m))
				entSum += e
				secSum += s
				runs++
			}
			if runs == 0 {
				// No site was sampled at this scale (e.g. Sites == 0 or a
				// zero budget): skip the x-point rather than plot NaN.
				continue
			}
			es.X = append(es.X, float64(size))
			es.Y = append(es.Y, entSum/float64(runs))
			ts.X = append(ts.X, float64(size))
			ts.Y = append(ts.Y, secSum/float64(runs))
		}
		entropyFig.Series = append(entropyFig.Series, es)
		timeFig.Series = append(timeFig.Series, ts)
	}

	// The density-based comparison series of the lifecycle work: dbscan
	// over the default approach's vector space, k discovered instead of
	// configured. Its O(n²) distance matrix caps the series at the
	// dbscanMaxSize scale — the larger x-points print as missing rather
	// than stall the sweep.
	es := Series{Name: "dbscan"}
	ts := Series{Name: "dbscan"}
	for _, size := range sizes {
		if size > dbscanMaxSize {
			continue
		}
		budget := synthSiteBudget(size, o)
		var entSum, secSum float64
		runs := 0
		for m := 0; m < budget && m < len(models); m++ {
			e, s := clusterSynthStreamWith(models[m], size, o.Seed+int64(m*31+size), core.TFIDFTags, "dbscan", o, int64(m))
			entSum += e
			secSum += s
			runs++
		}
		if runs == 0 {
			continue
		}
		es.X = append(es.X, float64(size))
		es.Y = append(es.Y, entSum/float64(runs))
		ts.X = append(ts.X, float64(size))
		ts.Y = append(ts.Y, secSum/float64(runs))
	}
	entropyFig.Series = append(entropyFig.Series, es)
	timeFig.Series = append(timeFig.Series, ts)

	note := fmt.Sprintf("sizes %v; per-size site budgets applied unless -full; dbscan capped at %d pages/site (O(n²) distances)", sizes, dbscanMaxSize)
	entropyFig.Notes = append(entropyFig.Notes, note)
	timeFig.Notes = append(timeFig.Notes, note)
	return entropyFig, timeFig
}

// clusterSynthStream clusters one synthetic collection with approach a's
// registered clusterer and returns (entropy, seconds). The collection is
// never materialized: pages stream out of the model's Sampler one at a
// time and each is folded into the compact feature its approach consumes
// — a label plus a raw count vector (vector.Accumulator) for the
// vector-space approaches, a label plus a byte size for the size
// baseline, a label alone for random assignment — before the next page is
// drawn. Peak residency at the paper's 110,000 pages/site is therefore
// the sparse vectors, not 110,000 signature maps.
//
// The entropies are bit-identical to clustering the eagerly collected
// slice (Sample + batch weighting): the sampler yields the same pages
// and the accumulator reproduces the batch weighting exactly; the
// fig6_7 contract test pins the streaming-vs-eager equivalence
// end-to-end. Restarts are reduced at large scales, and the timed
// region — the TFIDF finishing-and-interning pass plus a single
// clustering run with Workers pinned to 1 — keeps charging each
// approach for building its own weighted view, as the eager lazy-input
// timing did. (Raw per-page count accumulation is charged to sampling,
// outside the clock, in both the eager and streaming codepaths' spirit:
// it replaces the page materialization that was never timed either.)
func clusterSynthStream(m *synth.Model, size int, sampleSeed int64, a core.Approach, o Options, salt int64) (float64, float64) {
	return clusterSynthStreamWith(m, size, sampleSeed, a, a.DefaultClusterer(), o, salt)
}

// dbscanMaxSize caps the dbscan comparison series: the density clusterer
// materializes an O(n²) distance matrix, so it sweeps only the scales
// where that stays cheap (~10 MB at 1100 pages).
const dbscanMaxSize = 1100

// clusterSynthStreamWith is clusterSynthStream with the clusterer chosen
// by name instead of by the approach's default — the hook the dbscan
// comparison series rides on.
func clusterSynthStreamWith(m *synth.Model, size int, sampleSeed int64, a core.Approach, clusterer string, o Options, salt int64) (float64, float64) {
	var acc *vector.Accumulator
	if a.IsVector() {
		acc = vector.NewAccumulator(a.RawWeighted())
	}
	labels := make([]int, 0, size)
	var sizes []int
	if a == core.SizeBased {
		sizes = make([]int, 0, size)
	}
	s := m.Sampler(size, sampleSeed)
	for p, ok := s.Next(); ok; p, ok = s.Next() {
		labels = append(labels, int(p.Class))
		switch {
		case acc != nil && a.ContentBased():
			acc.Add(p.Content)
		case acc != nil:
			acc.Add(p.Tags)
		case sizes != nil:
			sizes = append(sizes, p.Size)
		}
	}
	restarts := o.KMRestarts
	if size > 1100 {
		restarts = 1
	}
	c, err := cluster.MustLookup(clusterer)
	if err != nil {
		//thorlint:allow no-panic-in-lib programmer-error guard; callers pass approaches from the fixed sweep set
		panic("experiments: " + err.Error())
	}
	in := cluster.Input{N: len(labels)}
	if sizes != nil {
		szs := sizes
		in.Sizes = func() []int { return szs }
	}
	start := time.Now()
	if acc != nil {
		iv := acc.FinishInterned()
		in.Interned = func() vector.Interned { return iv }
	}
	res, err := c.Cluster(in, cluster.Config{K: o.K, Restarts: restarts, Seed: o.Seed + salt, Workers: 1})
	secs := time.Since(start).Seconds()
	if err != nil {
		//thorlint:allow no-panic-in-lib programmer-error guard; the sweep's approaches never request an absent view
		panic("experiments: " + err.Error())
	}
	return quality.Entropy(res.Clustering, labels, int(corpus.NumClasses)), secs
}
