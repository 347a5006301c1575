package core

import (
	"fmt"
	"testing"

	"thor/internal/corpus"
	"thor/internal/quality"
)

// miniCorpus builds a small page set with three structurally distinct
// classes: list pages, detail pages, and apology pages.
func miniCorpus() ([]*corpus.Page, []int) {
	var pages []*corpus.Page
	var labels []int
	for i := 0; i < 8; i++ {
		html := `<html><body><ul>`
		for j := 0; j <= i%3; j++ {
			html += fmt.Sprintf("<li>match %d-%d</li>", i, j)
		}
		html += `</ul></body></html>`
		pages = append(pages, &corpus.Page{HTML: html, Class: corpus.MultiMatch,
			URL: fmt.Sprintf("http://s/search?q=multi%d", i)})
		labels = append(labels, 0)
	}
	for i := 0; i < 4; i++ {
		html := fmt.Sprintf(`<html><body><table><tr><td>name</td><td>value %d</td></tr>`+
			`<tr><td>year</td><td>%d</td></tr></table></body></html>`, i, 1990+i)
		pages = append(pages, &corpus.Page{HTML: html, Class: corpus.SingleMatch,
			URL: fmt.Sprintf("http://s/search?q=single%d", i)})
		labels = append(labels, 1)
	}
	for i := 0; i < 6; i++ {
		html := fmt.Sprintf(`<html><body><p>No results for query %d. Try again.</p></body></html>`, i)
		pages = append(pages, &corpus.Page{HTML: html, Class: corpus.NoMatch,
			URL: fmt.Sprintf("http://s/search?q=none%d", i)})
		labels = append(labels, 2)
	}
	return pages, labels
}

func TestClusterPagesTagApproachesSeparateClasses(t *testing.T) {
	pages, labels := miniCorpus()
	for _, a := range []Approach{TFIDFTags, RawTags} {
		cfg := Config{K: 3, Restarts: 10, Approach: a, Seed: 5}
		cl, _ := ClusterPages(pages, cfg)
		if got := quality.Entropy(cl, labels, 3); got > 0.01 {
			t.Errorf("%v entropy = %v, want ≈ 0 for cleanly separable classes", a, got)
		}
	}
}

func TestClusterPagesAllApproachesPartition(t *testing.T) {
	pages, _ := miniCorpus()
	for a := Approach(0); a < NumApproaches; a++ {
		cfg := Config{K: 3, Restarts: 2, Approach: a, Seed: 1}
		cl, _ := ClusterPages(pages, cfg)
		if len(cl.Assign) != len(pages) {
			t.Errorf("%v: assigned %d of %d pages", a, len(cl.Assign), len(pages))
		}
		covered := 0
		for _, members := range cl.Clusters {
			covered += len(members)
		}
		if covered != len(pages) {
			t.Errorf("%v: clusters cover %d of %d pages", a, covered, len(pages))
		}
	}
}

func TestPhase1RankingFavorsContentRichClusters(t *testing.T) {
	pages, _ := miniCorpus()
	cfg := DefaultConfig()
	cfg.K = 3
	cfg.Seed = 2
	res := Phase1(pages, cfg)
	if len(res.Ranked) == 0 {
		t.Fatal("no clusters")
	}
	// The top-ranked cluster should be dominated by pagelet-bearing pages.
	top := res.Ranked[0]
	bearing := 0
	for _, p := range top.Pages {
		if p.Class.HasPagelets() {
			bearing++
		}
	}
	if bearing*2 <= len(top.Pages) {
		t.Errorf("top cluster has only %d/%d pagelet-bearing pages", bearing, len(top.Pages))
	}
	// Scores are non-increasing down the ranking.
	for i := 1; i < len(res.Ranked); i++ {
		if res.Ranked[i-1].Score < res.Ranked[i].Score {
			t.Errorf("ranking not sorted: %v then %v", res.Ranked[i-1].Score, res.Ranked[i].Score)
		}
	}
	// Criteria averages populated.
	if top.AvgDistinctTerms <= 0 || top.AvgMaxFanout <= 0 || top.AvgPageSize <= 0 {
		t.Errorf("criteria unset: %+v", top)
	}
}

func TestApproachString(t *testing.T) {
	want := map[Approach]string{
		TFIDFTags: "TTag", RawTags: "RTag", TFIDFContent: "TCon",
		RawContent: "RCon", SizeBased: "Size", URLBased: "URLs",
		RandomAssign: "Rand", Approach(99): "?",
	}
	for a, s := range want {
		if a.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(a), a.String(), s)
		}
	}
}

func TestTagAndContentSignatures(t *testing.T) {
	pages, _ := miniCorpus()
	tags := TagSignatures(pages[:1])
	if tags[0]["ul"] != 1 || tags[0]["li"] != 1 {
		t.Errorf("tag signature = %v", tags[0])
	}
	terms := ContentSignatures(pages[:1])
	if terms[0]["match"] != 1 {
		t.Errorf("content signature = %v", terms[0])
	}
}
