package core

import (
	"context"
	"testing"

	"thor/internal/corpus"
)

// benchModel builds one model and the fresh HTML bodies to serve, shared
// by the apply benchmarks.
func benchModel(b *testing.B) (*Model, []string) {
	b.Helper()
	col := probeSite(b, 4, 11)
	fresh := probeSite(b, 4, 120)
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.Workers = 1
	m, err := NewExtractor(cfg).BuildModel(col.Pages)
	if err != nil {
		b.Fatal(err)
	}
	htmls := make([]string, len(fresh.Pages))
	for i, p := range fresh.Pages {
		htmls[i] = p.HTML
	}
	return m, htmls
}

// BenchmarkApplyPage measures serving one request through Apply: wrap
// the bytes in a corpus.Page (heap parse, cached tree and signature map),
// then the weighting, assignment, and wrapper scoring ApplyHTML shares.
func BenchmarkApplyPage(b *testing.B) {
	m, htmls := benchModel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &corpus.Page{HTML: htmls[i%len(htmls)]}
		if _, err := m.Apply(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplyHTML measures the same requests through the pooled
// pipeline — arena parse, scratch signature, ID-space weighting,
// CosineUnit assignment, scratch extraction. allocs/op is the headline:
// ~0 in steady state.
func BenchmarkApplyHTML(b *testing.B) {
	m, htmls := benchModel(b)
	ctx := context.Background()
	// Warm the scratch pool so allocs/op reflects steady state.
	for _, html := range htmls {
		if _, _, err := m.ApplyHTML(ctx, html); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.ApplyHTML(ctx, htmls[i%len(htmls)]); err != nil {
			b.Fatal(err)
		}
	}
}
