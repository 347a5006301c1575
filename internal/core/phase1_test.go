package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// TestSpellingsRecordTokens pins the record phase one's walk leaves for
// set ranking: through one table, each page's record holds, per content
// node in document order, the forms of its lowercase tokens
// (tagtree.EachToken) in order, and a form ID names the same form for
// the whole table's life, across the restart of its spelling map, when
// the table keeps its records.
func TestSpellingsRecordTokens(t *testing.T) {
	sp := spellings{keep: true}
	check := func(what string, root *tagtree.Node) {
		t.Helper()
		first := len(sp.rec.starts)
		sp.walk(root)
		at := first
		root.Walk(func(n *tagtree.Node) bool {
			if n.Type != tagtree.ContentNode {
				return true
			}
			var want []string
			tagtree.EachToken(n.Content, func(tok string) { want = append(want, tok) })
			ids := sp.rec.forms[sp.rec.starts[at]:sp.rec.starts[at+1]]
			if len(ids) != len(want) {
				t.Fatalf("%s: content node %d records %d tokens, want %d", what, at-first, len(ids), len(want))
			}
			for i, id := range ids {
				if sp.forms[id] != want[i] {
					t.Fatalf("%s: content node %d token %d is form %q, want %q", what, at-first, i, sp.forms[id], want[i])
				}
			}
			at++
			return true
		})
		if end := sp.rec.starts[at]; at != len(sp.rec.starts)-1 || end != len(sp.rec.forms) {
			t.Fatalf("%s: record ends at entry %d (token %d), want the last entry %d (token %d)", what, at, end, len(sp.rec.starts)-1, len(sp.rec.forms))
		}
	}
	page := func(texts ...string) *tagtree.Node {
		div := tagtree.NewTag("div")
		for i, text := range texts {
			p := tagtree.NewTag("p")
			p.AppendChild(tagtree.NewContent(text))
			if i%2 == 1 { // nest every other paragraph one level deeper
				span := tagtree.NewTag("span")
				span.AppendChild(p)
				p = span
			}
			div.AppendChild(p)
		}
		div.AppendChild(tagtree.NewContent("Tail words"))
		return div
	}
	check("mixed case", page("Apple APPLE apple", "| — |", "", "CAFÉ café Straße", "h1 H1 x42Y"))
	formsBefore := slices.Clone(sp.forms)
	var sb strings.Builder
	for w := 0; w < maxSpellings; w++ {
		fmt.Fprintf(&sb, "W%d ", w)
	}
	check("filling the table", page(sb.String()))
	check("after the restart", page("apple Apple", "W7 w7 brand new"))
	if len(sp.ids) >= maxSpellings {
		t.Fatalf("the spelling map holds %d spellings after a page that found it full", len(sp.ids))
	}
	if !slices.Equal(sp.forms[:len(formsBefore)], formsBefore) {
		t.Fatal("a form ID changed its form across the restart")
	}
}

// TestSpellingsBoundedWithoutRecords pins the residency of a table that
// keeps no records, as a streaming build's phase one walks its pages
// with: however many distinct words the pages bring, across restarts of
// the spelling map, its forms, stamps and record stay within the map's
// own bound and the last page's tokens.
func TestSpellingsBoundedWithoutRecords(t *testing.T) {
	var sp spellings
	for i := 0; i < 8; i++ {
		root := tagtree.NewTag("div")
		for c := 0; c < 4; c++ {
			var sb strings.Builder
			for w := 0; w < maxSpellings/8; w++ {
				fmt.Fprintf(&sb, "P%dc%dw%d ", i, c, w)
			}
			root.AppendChild(tagtree.NewContent(sb.String()))
		}
		checkWith(t, &sp, fmt.Sprintf("page %d", i), root)
		if len(sp.forms) > len(sp.ids) || len(sp.stamps) != len(sp.forms) {
			t.Fatalf("page %d: %d forms and %d stamps for %d spellings", i, len(sp.forms), len(sp.stamps), len(sp.ids))
		}
		if len(sp.ids) > 2*maxSpellings {
			t.Fatalf("page %d: spelling table holds %d spellings, past twice its bound %d", i, len(sp.ids), maxSpellings)
		}
		if got, want := len(sp.rec.starts), 4+1; got != want {
			t.Fatalf("page %d: record holds %d entries, want the last page's %d", i, got, want)
		}
		if got, want := len(sp.rec.forms), 4*maxSpellings/8; got != want {
			t.Fatalf("page %d: record holds %d tokens, want the last page's %d", i, got, want)
		}
	}
}
