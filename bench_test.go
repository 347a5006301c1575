// Package thor's root benchmark suite: one benchmark per figure of the
// paper's evaluation section (regenerate the printable figures themselves
// with cmd/thorbench), plus micro-benchmarks for the hot substrates. Run:
//
//	go test -bench=. -benchmem
//
// The per-figure benchmarks use a reduced corpus so a full -bench=. pass
// completes in minutes; cmd/thorbench runs the paper-scale versions.
package thor

import (
	"fmt"
	"runtime"
	"testing"

	"thor/internal/cluster"
	"thor/internal/core"
	"thor/internal/corpus"
	"thor/internal/deepweb"
	"thor/internal/experiments"
	"thor/internal/htmlx"
	"thor/internal/probe"
	"thor/internal/stem"
	"thor/internal/strdist"
	"thor/internal/synth"
	"thor/internal/treedist"
	"thor/internal/vector"
)

// benchOptions is the reduced corpus used by the figure benchmarks.
// Workers is pinned to 1 so the per-figure numbers stay comparable with
// historical serial runs; the worker-scaling benchmarks below vary it.
func benchOptions() experiments.Options {
	return experiments.Options{
		Sites: 6, DictWords: 50, Nonsense: 5,
		Reps: 1, Seed: 42, K: 4, KMRestarts: 5, SynthCap: 1100,
		Workers: 1,
	}
}

// --- Figure benchmarks -------------------------------------------------

func BenchmarkFig4Entropy(b *testing.B) {
	o := benchOptions()
	experiments.BuildCorpus(o) // probe outside the timed region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig4(o)
	}
}

func BenchmarkFig5ClusterTime(b *testing.B) {
	o := benchOptions()
	experiments.BuildCorpus(o)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig5(o)
	}
}

func BenchmarkFig6SynthEntropy(b *testing.B) {
	o := benchOptions()
	experiments.BuildCorpus(o)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig6(o)
	}
}

func BenchmarkFig7SynthTime(b *testing.B) {
	o := benchOptions()
	experiments.BuildCorpus(o)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig7(o)
	}
}

func BenchmarkFig8Distance(b *testing.B) {
	o := benchOptions()
	experiments.BuildCorpus(o)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig8(o)
	}
}

func BenchmarkFig9Histogram(b *testing.B) {
	o := benchOptions()
	experiments.BuildCorpus(o)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig9(o)
	}
}

func BenchmarkFig10Overall(b *testing.B) {
	o := benchOptions()
	experiments.BuildCorpus(o)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig10(o)
	}
}

func BenchmarkFig11Tradeoff(b *testing.B) {
	o := benchOptions()
	experiments.BuildCorpus(o)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig11(o)
	}
}

// --- Worker-scaling benchmarks -------------------------------------------
//
// The same figure computed serially and on every core; the results are
// bit-identical (see core's worker-independence tests), so the ratio of
// the two timings is pure parallel speedup.

// benchWorkerCounts returns the worker counts the scaling benchmarks
// compare: serial plus all cores (collapsed on single-core machines,
// where the two coincide).
func benchWorkerCounts() []int {
	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		counts = append(counts, n)
	}
	return counts
}

func benchmarkFigWorkers(b *testing.B, fig func(experiments.Options) *experiments.TableResult) {
	b.Helper()
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			o := benchOptions()
			o.Workers = w
			experiments.BuildCorpus(o)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fig(o)
			}
		})
	}
}

func BenchmarkFig10Workers(b *testing.B) {
	benchmarkFigWorkers(b, experiments.Fig10)
}

func BenchmarkFig11Workers(b *testing.B) {
	benchmarkFigWorkers(b, experiments.Fig11)
}

func BenchmarkFullExtractionWorkers(b *testing.B) {
	col := benchCollection(b, 0, 100)
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Workers = w
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.NewExtractor(cfg).Extract(col.Pages)
			}
		})
	}
}

func BenchmarkTreeEditDistance(b *testing.B) {
	// The cost the paper ruled out: one tree-edit distance between two
	// full answer pages (compare with BenchmarkTagSignatureSimilarity).
	site := deepweb.NewSite(deepweb.SiteConfig{ID: 0, Seed: 42})
	htmlA, _ := site.Query("music")
	htmlB, _ := site.Query("history")
	ta, tb := htmlx.Parse(htmlA), htmlx.Parse(htmlB)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		treedist.Distance(ta, tb)
	}
}

func BenchmarkTagSignatureSimilarity(b *testing.B) {
	// The cost THOR pays instead: one cosine over TFIDF tag signatures.
	site := deepweb.NewSite(deepweb.SiteConfig{ID: 0, Seed: 42})
	htmlA, _ := site.Query("music")
	htmlB, _ := site.Query("history")
	pa := &corpus.Page{HTML: htmlA}
	pb := &corpus.Page{HTML: htmlB}
	iv := vector.TFIDFInterned([]map[string]int{pa.TagSignature(), pb.TagSignature()})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iv.Vecs[0].Cosine(iv.Vecs[1])
	}
}

// --- Pipeline stage benchmarks ------------------------------------------

func benchCollection(b *testing.B, siteID, dict int) *corpus.Collection {
	b.Helper()
	site := deepweb.NewSite(deepweb.SiteConfig{ID: siteID, Seed: 42})
	prober := &probe.Prober{Plan: probe.NewPlan(dict, 5, 1), Labeler: deepweb.Labeler()}
	col := prober.ProbeSite(site)
	for _, p := range col.Pages {
		p.Tree() // pre-parse so stage benchmarks time only their stage
	}
	return col
}

func BenchmarkParsePage(b *testing.B) {
	site := deepweb.NewSite(deepweb.SiteConfig{ID: 0, Seed: 42})
	html, _ := site.Query("music")
	b.SetBytes(int64(len(html)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		htmlx.Parse(html)
	}
}

func BenchmarkProbeSite(b *testing.B) {
	site := deepweb.NewSite(deepweb.SiteConfig{ID: 0, Seed: 42})
	prober := &probe.Prober{Plan: probe.NewPlan(50, 5, 1), Labeler: deepweb.Labeler()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prober.ProbeSite(site)
	}
}

func BenchmarkPhase1Clustering(b *testing.B) {
	col := benchCollection(b, 0, 100)
	cfg := core.DefaultConfig()
	cfg.Workers = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Phase1(col.Pages, cfg)
	}
}

func BenchmarkPhase2Identification(b *testing.B) {
	col := benchCollection(b, 0, 100)
	multi := col.ByClass(corpus.MultiMatch)
	cfg := core.DefaultConfig()
	cfg.Workers = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.NewExtractor(cfg).ExtractCluster(multi)
	}
}

func BenchmarkFullExtraction(b *testing.B) {
	col := benchCollection(b, 0, 100)
	cfg := core.DefaultConfig()
	cfg.Workers = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.NewExtractor(cfg).Extract(col.Pages)
	}
}

// --- Substrate micro-benchmarks ------------------------------------------

func BenchmarkKMeans(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			col := benchCollection(b, 0, 100)
			model := synth.BuildModel(col.Pages)
			pages := model.Sample(n, 1)
			iv := vector.TFIDFInterned(synth.TagSignatures(pages))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cluster.KMeansInterned(iv.Vecs, iv.Dict.Len(), cluster.KMeansConfig{K: 4, Restarts: 1, Seed: int64(i), Workers: 1})
			}
		})
	}
}

func BenchmarkTFIDF(b *testing.B) {
	col := benchCollection(b, 0, 100)
	docs := core.TagSignatures(col.Pages)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vector.TFIDFInterned(docs)
	}
}

func BenchmarkPorterStem(b *testing.B) {
	words := probe.Dictionary()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stem.Stem(words[i%len(words)])
	}
}

func BenchmarkLevenshteinURL(b *testing.B) {
	u1 := "http://search.ebay.com/search/search.dll?query=superman"
	u2 := "http://search.ebay.com/search/search.dll?query=xfghae"
	var lev strdist.LevScratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		strdist.Distance(u1, u2, &lev)
	}
}

func BenchmarkShapeDistance(b *testing.B) {
	col := benchCollection(b, 0, 50)
	multi := col.ByClass(corpus.MultiMatch)
	if len(multi) < 2 {
		b.Skip("need two multi pages")
	}
	c1 := core.SinglePageCandidates(multi[0].Tree(), 0)
	c2 := core.SinglePageCandidates(multi[1].Tree(), 1)
	simp := strdist.NewSimplifier(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ShapeDistance(c1[i%len(c1)], c2[i%len(c2)], core.WeightsAll, simp)
	}
}

func BenchmarkSynthSample(b *testing.B) {
	col := benchCollection(b, 0, 100)
	model := synth.BuildModel(col.Pages)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Sample(1000, int64(i))
	}
}
