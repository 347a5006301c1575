package vector_test

import (
	"testing"

	"thor/internal/deepweb"
	"thor/internal/probe"
	"thor/internal/vector"
)

// The micro-benchmarks time the interned int32-ID kernels on realistic
// inputs: tag signatures of pages probed from a simulated deep-web site
// — the exact distribution the phase-one clustering hot path consumes.
// Run with
//
//	go test ./internal/vector -bench 'Dot|Cosine|Centroid' -run '^$'
//
// The external test package keeps the probe/deepweb imports out of the
// vector package's own dependency graph.

func benchVectors(b *testing.B) vector.Interned {
	b.Helper()
	site := deepweb.NewSite(deepweb.SiteConfig{ID: 1, Seed: 31})
	prober := &probe.Prober{Plan: probe.NewPlan(80, 8, 7), Labeler: deepweb.Labeler()}
	col := prober.ProbeSite(site)
	docs := make([]map[string]int, len(col.Pages))
	for i, p := range col.Pages {
		docs[i] = p.TagSignature()
	}
	return vector.TFIDFInterned(docs)
}

func BenchmarkDot(b *testing.B) {
	iv := benchVectors(b)
	n := len(iv.Vecs)
	b.Run("interned", func(b *testing.B) {
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += iv.Vecs[i%n].Dot(iv.Vecs[(i*7+1)%n])
		}
		benchSink = sink
	})
}

func BenchmarkCosine(b *testing.B) {
	iv := benchVectors(b)
	n := len(iv.Vecs)
	b.Run("interned", func(b *testing.B) {
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += iv.Vecs[i%n].Cosine(iv.Vecs[(i*7+1)%n])
		}
		benchSink = sink
	})
}

// BenchmarkCosineRow times the scatter-gather cosine as its callers use
// it: one vector scattered into a dense row, every other gathered
// against it, the row cleared after.
func BenchmarkCosineRow(b *testing.B) {
	iv := benchVectors(b)
	n := len(iv.Vecs)
	row := make([]float64, iv.Dict.Len())
	b.Run("interned", func(b *testing.B) {
		var sink float64
		for i := 0; i < b.N; i++ {
			u := iv.Vecs[i%n]
			u.Scatter(row)
			for _, v := range iv.Vecs {
				sink += v.CosineRow(row, u.Norm())
			}
			u.Unscatter(row)
		}
		benchSink = sink
	})
}

func BenchmarkCentroid(b *testing.B) {
	iv := benchVectors(b)
	b.Run("interned", func(b *testing.B) {
		scratch := vector.NewCentroidScratch(iv.Dict.Len())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := scratch.Centroid(iv.Vecs)
			benchSink = c.Norm()
		}
	})
}

// benchSink defeats dead-code elimination of the benchmarked kernels.
var benchSink float64
