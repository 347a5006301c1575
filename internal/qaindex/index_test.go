package qaindex

import (
	"fmt"
	"strings"
	"testing"

	"thor/internal/core"
	"thor/internal/deepweb"
	"thor/internal/htmlx"
	"thor/internal/objects"
	"thor/internal/probe"
)

func seedIndex() *Index {
	ix := &Index{}
	ix.AddText(1, "books", "camera", "http://a/1", "digital camera bag leather black")
	ix.AddText(1, "books", "camera", "http://a/2", "digital camera sony silver compact")
	ix.AddText(2, "music", "guitar", "http://b/1", "electric guitar fender sunburst")
	ix.AddText(2, "music", "piano", "http://b/2", "grand piano steinway black")
	ix.AddText(3, "jobs", "engineer", "http://c/1", "software engineer position golang")
	return ix
}

func TestSearchRanksRelevantFirst(t *testing.T) {
	ix := seedIndex()
	hits := ix.Search("digital camera", 10)
	if len(hits) < 2 {
		t.Fatalf("hits = %d", len(hits))
	}
	for _, h := range hits[:2] {
		if !strings.Contains(h.Doc.Text, "camera") {
			t.Errorf("top hit lacks query term: %q", h.Doc.Text)
		}
	}
	if hits[0].Score < hits[len(hits)-1].Score {
		t.Error("hits not sorted by score")
	}
}

func TestSearchStemsQuery(t *testing.T) {
	ix := seedIndex()
	// "cameras" must match documents containing "camera".
	hits := ix.Search("cameras", 10)
	if len(hits) == 0 {
		t.Fatal("stemmed query found nothing")
	}
}

func TestSearchTopK(t *testing.T) {
	ix := seedIndex()
	if got := len(ix.Search("black", 1)); got != 1 {
		t.Errorf("k=1 returned %d hits", got)
	}
	if got := ix.Search("black", 0); got != nil {
		t.Errorf("k=0 returned %v", got)
	}
	if got := ix.Search("nosuchterm", 5); len(got) != 0 {
		t.Errorf("absent term returned %d hits", len(got))
	}
}

func TestSearchSiteFilter(t *testing.T) {
	ix := seedIndex()
	hits := ix.SearchSite("black", 10, 2)
	if len(hits) != 1 || hits[0].Doc.SiteID != 2 {
		t.Errorf("site filter broken: %v", hits)
	}
}

func TestSitesSupporting(t *testing.T) {
	ix := seedIndex()
	sites := ix.SitesSupporting("black")
	if len(sites) != 2 {
		t.Fatalf("sites = %d, want 2 (books and music carry 'black')", len(sites))
	}
	ids := map[int]bool{}
	for _, s := range sites {
		ids[s.SiteID] = true
		if s.Matches < 1 {
			t.Errorf("site %d matches = %d", s.SiteID, s.Matches)
		}
	}
	if !ids[1] || !ids[2] {
		t.Errorf("wrong sites: %v", sites)
	}
}

func TestEmptyIndex(t *testing.T) {
	ix := &Index{}
	if got := ix.Search("anything", 5); got != nil {
		t.Errorf("empty index returned hits")
	}
	if ix.Len() != 0 || ix.Terms() != 0 {
		t.Errorf("empty index counts wrong")
	}
	if !strings.Contains(ix.String(), "0 objects") {
		t.Errorf("String = %q", ix.String())
	}
}

func TestAddFromSubtree(t *testing.T) {
	ix := &Index{}
	tree := htmlx.Parse(`<li>The <b>Big</b> Widget — $9.99</li>`)
	doc := ix.Add(7, "shop", "widget", "http://s/1", tree.FindTag("li"))
	if !strings.Contains(doc.Text, "Big Widget") {
		t.Errorf("doc text = %q", doc.Text)
	}
	if len(ix.Search("widget", 1)) != 1 {
		t.Error("subtree document not searchable")
	}
}

// TestIngestEndToEnd: THOR extraction feeding a sharded index, then
// fine-grained search across sites — the deep-web search engine loop.
func TestIngestEndToEnd(t *testing.T) {
	pt := objects.NewPartitioner(objects.Config{})
	prober := &probe.Prober{Plan: probe.NewPlan(60, 6, 4), Labeler: deepweb.Labeler()}
	var docs []Doc
	for id := 0; id < 3; id++ {
		site := deepweb.NewSite(deepweb.SiteConfig{ID: id, Seed: 42})
		col := prober.ProbeSite(site)
		res := core.NewExtractor(core.DefaultConfig()).Extract(col.Pages)
		added := DocsFromPagelets(site.ID(), site.Name(), res.Pagelets, pt)
		if len(added) == 0 {
			t.Fatalf("site %d contributed no objects", id)
		}
		docs = append(docs, added...)
	}
	totalDocs := len(docs)
	ix := BuildSharded(docs, 2, 1)
	if ix.Len() != totalDocs {
		t.Errorf("index len %d != ingested %d", ix.Len(), totalDocs)
	}
	// Fine-grained search: one of the probed words must retrieve objects
	// whose text contains it.
	hits := ix.Search("music", 5)
	for _, h := range hits {
		if !strings.Contains(strings.ToLower(h.Doc.Text), "music") {
			t.Errorf("hit does not contain query term: %.60q", h.Doc.Text)
		}
	}
	// Search-by-sites over a common word spans multiple sources.
	sites := ix.SitesSupporting("price")
	_ = sites // presence depends on vocabulary; just must not panic
}

func TestIngestNilPartitioner(t *testing.T) {
	site := deepweb.NewSite(deepweb.SiteConfig{ID: 0, Seed: 42})
	prober := &probe.Prober{Plan: probe.NewPlan(30, 3, 4), Labeler: deepweb.Labeler()}
	col := prober.ProbeSite(site)
	res := core.NewExtractor(core.DefaultConfig()).Extract(col.Pages)
	if added := DocsFromPagelets(0, "x", res.Pagelets, nil); len(added) == 0 {
		t.Error("nil partitioner should default, not drop objects")
	}
}

func TestDeterministicTieOrder(t *testing.T) {
	ix := &Index{}
	for i := 0; i < 5; i++ {
		ix.AddText(1, "s", "q", fmt.Sprintf("http://x/%d", i), "same words here")
	}
	a := ix.Search("same words", 5)
	b := ix.Search("same words", 5)
	for i := range a {
		if a[i].Doc.PageURL != b[i].Doc.PageURL {
			t.Fatal("tie order not deterministic")
		}
	}
}
