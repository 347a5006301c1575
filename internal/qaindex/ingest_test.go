package qaindex

import (
	"strings"
	"testing"

	"thor/internal/core"
	"thor/internal/deepweb"
	"thor/internal/probe"
)

// TestIngestFromModelApply closes the serving loop: a model trained on
// one probe round serves pagelets from fresh pages one at a time, and
// those pagelets — which carry no phase-two object recommendations —
// still ingest into a sharded index through the partitioner's
// structural fallback and come back out of search.
func TestIngestFromModelApply(t *testing.T) {
	site := deepweb.NewSite(deepweb.SiteConfig{ID: 2, Seed: 42})
	train := (&probe.Prober{Plan: probe.NewPlan(60, 6, 4), Labeler: deepweb.Labeler()}).ProbeSite(site)
	m, err := core.NewExtractor(core.DefaultConfig()).BuildModel(train.Pages)
	if err != nil {
		t.Fatal(err)
	}

	fresh := (&probe.Prober{Plan: probe.NewPlan(30, 3, 808), Labeler: deepweb.Labeler()}).ProbeSite(site)
	var docs []Doc
	for _, page := range fresh.Pages {
		pagelets, err := m.Apply(page)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, DocsFromPagelets(site.ID(), site.Name(), pagelets, nil)...)
	}
	added := len(docs)
	ix := BuildSharded(docs, 2, 1)
	if added == 0 {
		t.Fatal("served pagelets contributed no QA-Objects")
	}
	if ix.Len() != added {
		t.Errorf("index len %d != ingested %d", ix.Len(), added)
	}
	// Each served page's probe query must retrieve only matching objects.
	hits := ix.Search("music", 5)
	for _, h := range hits {
		if !strings.Contains(strings.ToLower(h.Doc.Text), "music") {
			t.Errorf("hit does not contain query term: %.60q", h.Doc.Text)
		}
	}
}
