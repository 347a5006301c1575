package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unicode"

	"thor/internal/corpus"
	"thor/internal/quality"
	"thor/internal/tagtree"
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

// TestSpellingsMatchDistinctTerms pins phase one's build-wide spelling
// table to the tree's own statistics, DistinctTerms and MaxFanout. All
// pages go through one table, so each meets spellings that earlier pages
// left, in other cases: first fixed pages whose words change byte length
// between cases, then random pages of mixed-case Unicode words, then
// pages across a wrap of the page stamps and past the table's bound.
func TestSpellingsMatchDistinctTerms(t *testing.T) {
	var sp spellings
	check := func(what string, tree *tagtree.Node) {
		t.Helper()
		checkWith(t, &sp, what, tree)
	}
	page := func(texts ...string) *tagtree.Node {
		div := tagtree.NewTag("div")
		for _, text := range texts {
			p := tagtree.NewTag("p")
			p.AppendChild(tagtree.NewContent(text))
			div.AppendChild(p)
		}
		return div
	}
	for _, texts := range [][]string{
		{"Apple APPLE apple", "aPPLE pie"},
		{"Apple APPLE", "Pie"}, // no lowercase spelling of either word
		{"CAFÉ café Café", "Straße STRASSE straße ẞ"},
		{"İstanbul İSTANBUL i̇stanbul", "ǅemal ǄEMAL ǆemal", "K k K"},
		{"ÜBER über Über", "日本語 テスト 日本語", "h1 H1 x42Y X42y"},
		{"ΣΊΣΥΦΟΣ σίσυφος Σίσυφοσ", "| — · |", ""},
	} {
		check(fmt.Sprintf("%q", texts), page(texts...))
	}

	words := []string{"apple", "café", "straße", "i̇stanbul", "ǆemal", "über", "日本語", "σίσυφος",
		"x42y", "h1", "ﬁne", "kelvin", "ŉ", "ǰ", "ꙮ", "ⓐ", "ǈ"}
	seps := []string{" ", "  ", "|", "—", ", ", " ", "\t", "·"}
	recase := []func(rune) rune{unicode.ToLower, unicode.ToUpper, unicode.ToTitle}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		root := tagtree.NewTag("div")
		open := []*tagtree.Node{root}
		for n := rng.Intn(40); n > 0; n-- {
			parent := open[rng.Intn(len(open))]
			if rng.Intn(3) == 0 {
				tag := tagtree.NewTag("span")
				parent.AppendChild(tag)
				open = append(open, tag)
				continue
			}
			var sb strings.Builder
			for w := rng.Intn(8); w > 0; w-- {
				for _, r := range words[rng.Intn(len(words))] {
					sb.WriteRune(recase[rng.Intn(len(recase))](r))
				}
				sb.WriteString(seps[rng.Intn(len(seps))])
			}
			parent.AppendChild(tagtree.NewContent(sb.String()))
		}
		check(fmt.Sprintf("random page %d", i), root)
	}

	// A word stamped by the first page must count again on the first
	// page after the stamps wrap, which is stamped 1 too.
	var wrap spellings
	checkWith(t, &wrap, "before the wrap", page("alpha"))
	wrap.page = math.MaxUint32
	checkWith(t, &wrap, "after the wrap", page("alpha beta"))

	for i := 0; i < 3; i++ {
		var sb strings.Builder
		for w := 0; w < maxSpellings*3/4; w++ {
			fmt.Fprintf(&sb, "W%d w%d ", w, w+i)
		}
		check(fmt.Sprintf("overflow page %d", i), page(sb.String()))
	}
	if len(sp.ids) > 2*maxSpellings {
		t.Errorf("spelling table holds %d spellings, past twice its bound %d", len(sp.ids), maxSpellings)
	}
}

// checkWith checks one walk of sp over tree against the tree's own
// DistinctTerms and MaxFanout.
func checkWith(t *testing.T, sp *spellings, what string, tree *tagtree.Node) {
	t.Helper()
	terms, fanout := sp.walk(tree)
	if want := tree.DistinctTerms(); terms != want {
		t.Fatalf("%s: spelling table counts %d distinct terms, DistinctTerms %d", what, terms, want)
	}
	if want := tree.MaxFanout(); fanout != want {
		t.Fatalf("%s: walk finds max fanout %d, MaxFanout %d", what, fanout, want)
	}
}
