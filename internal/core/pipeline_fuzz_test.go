package core

import (
	"context"
	"math"
	"sync"
	"testing"

	"thor/internal/corpus"
)

// fuzzModels holds one tag-signature and one content-signature model,
// built once per test binary for FuzzApplyHTMLBytes.
var fuzzModels struct {
	once   sync.Once
	models []*Model
}

func applyFuzzModels(tb testing.TB) []*Model {
	tb.Helper()
	fuzzModels.once.Do(func() {
		col := probeSite(tb, 4, 11)
		for _, a := range []Approach{TFIDFTags, TFIDFContent} {
			cfg := DefaultConfig()
			cfg.Approach = a
			cfg.Seed = 7
			cfg.Workers = 1
			m, err := NewExtractor(cfg).BuildModel(col.Pages)
			if err != nil {
				tb.Fatalf("%v: BuildModel: %v", a, err)
			}
			fuzzModels.models = append(fuzzModels.models, m)
		}
	})
	if len(fuzzModels.models) != 2 {
		tb.Fatal("fuzz models were not built")
	}
	return fuzzModels.models
}

// FuzzApplyHTMLBytes holds the serve path to the page-based one on
// fuzzed bytes: ApplyHTMLBytesStats over the bytes and Apply over a
// corpus.Page holding the same HTML must give the same path, the same
// found flag, and the same cluster at the same distance bits, on a
// TFIDFTags and a TFIDFContent model.
func FuzzApplyHTMLBytes(f *testing.F) {
	models := applyFuzzModels(f)
	for _, p := range probeSite(f, 4, 120).Pages[:2] {
		f.Add([]byte(p.HTML))
	}
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, html []byte) {
		for _, m := range models {
			path, found, stats, err := m.ApplyHTMLBytesStats(ctx, html)
			if err != nil {
				t.Fatalf("%v: ApplyHTMLBytesStats: %v", m.Cfg.Approach, err)
			}
			pls, want, err := m.applyPage(ctx, &corpus.Page{HTML: string(html)})
			if err != nil {
				t.Fatalf("%v: Apply: %v", m.Cfg.Approach, err)
			}
			wantPath := ""
			if len(pls) > 0 {
				wantPath = pls[0].Path
			}
			if path != wantPath || found != (len(pls) > 0) {
				t.Fatalf("%v: ApplyHTMLBytes = (%q, %v), Apply = (%q, %v)", m.Cfg.Approach, path, found, wantPath, len(pls) > 0)
			}
			if stats.Cluster != want.Cluster || math.Float64bits(stats.Distance) != math.Float64bits(want.Distance) {
				t.Fatalf("%v: ApplyHTMLBytes stats %+v, Apply %+v", m.Cfg.Approach, stats, want)
			}
		}
	})
}
