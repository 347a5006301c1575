package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"thor/internal/corpus"
	"thor/internal/htmlx"
	"thor/internal/strdist"
	"thor/internal/tagtree"
)

// resolvedWrapper copies w's profile and resolves its identifiers, as
// BuildWrapper and LoadModel do, so hand-made profiles serve too.
func resolvedWrapper(w *Wrapper) *Wrapper {
	c := &Wrapper{
		Paths: w.Paths, Fanout: w.Fanout, Depth: w.Depth, Nodes: w.Nodes,
		Weights: w.Weights, MaxDistance: w.MaxDistance, q: w.q,
	}
	c.resolveProfile()
	return c
}

// checkMatchAgainstRef runs the candidate-walk match and the per-node
// matchRef over tree, and fails unless both pick the same node at the
// same distance bits and leave their page simplifiers with the same
// identifier for every tag of the tree.
func checkMatchAgainstRef(t *testing.T, name string, w *Wrapper, tree *tagtree.Node) {
	t.Helper()
	w = resolvedWrapper(w)
	s := applyPool.Get().(*applyScratch)
	defer applyPool.Put(s)
	gotN, gotD := w.match(tree, s)
	want := pageSimplifier(w)
	wantN, wantD := matchRef(w, want, tree)
	if gotN != wantN || math.Float64bits(gotD) != math.Float64bits(wantD) {
		t.Fatalf("%s: match picked %v at %v, the per-node reference %v at %v", name, describe(gotN), gotD, describe(wantN), wantD)
	}
	// The simplifiers assigned identifiers in the same order exactly when
	// every tag they saw maps to the same identifier; tags neither saw are
	// then minted alike too, in the sorted order both are asked in.
	tags := map[string]bool{}
	tree.Root().Walk(func(n *tagtree.Node) bool {
		if n.Type == tagtree.TagNode {
			tags[n.Tag] = true
		}
		return true
	})
	sorted := make([]string, 0, len(tags))
	for tag := range tags {
		sorted = append(sorted, tag)
	}
	sort.Strings(sorted)
	for _, tag := range sorted {
		if a, b := s.simp.ID(tag), want.ID(tag); a != b {
			t.Fatalf("%s: tag %q simplified to %q, the reference %q", name, tag, a, b)
		}
	}
}

func describe(n *tagtree.Node) string {
	if n == nil {
		return "nothing"
	}
	return n.Path()
}

// TestWrapperMatchMatchesPerNodeReference pins the serve pass's candidate
// walk to the per-node walk it replaced, on every approach's wrappers
// over fresh pages, on walks started below the root, and on hand-made
// profiles that switch shape terms off or simplify with q > 1.
func TestWrapperMatchMatchesPerNodeReference(t *testing.T) {
	for _, a := range []Approach{TFIDFTags, TFIDFContent, SizeBased} {
		m, _, htmls := buildModelForApproach(t, a)
		for wi, w := range m.Wrappers {
			if w == nil {
				continue
			}
			for i, html := range htmls {
				tree := htmlx.Parse(html)
				checkMatchAgainstRef(t, a.String()+" page", w, tree)
				if body := tree.FindTag("body"); body != nil && wi == 0 && i%5 == 0 {
					checkMatchAgainstRef(t, a.String()+" body", w, body)
					if len(body.Children) > 1 {
						checkMatchAgainstRef(t, a.String()+" below body", w, body.Children[1])
					}
				}
			}
		}
	}
	pages := []string{
		`<html><body><div><p>a</p><p>b</p></div><div><p>c</p><p>d</p></div></body></html>`,
		`<html><body><table><tr><td>1<td>2<tr><td>3</table><ul><li>x<li>y<li><b>z</b></ul><p>one<p>two</body></html>`,
		`<html><body><div>&nbsp;</div><div> | </div><span>&nbsp;word&nbsp;</span></body></html>`,
		`<html><body><h1>h</h1><h1>i</h1><x-y>q</x-y><x-y>r</x-y><div><div><div>deep</div></div></div></body></html>`,
	}
	profiles := []*Wrapper{
		{Paths: []string{"html/body/div[2]/p"}, Fanout: 2, Depth: 3, Nodes: 3, Weights: WeightsAll, MaxDistance: 1, q: 1},
		{Paths: []string{"html/body/ul/li[3]"}, Fanout: 1, Depth: 3, Nodes: 2, Weights: ShapeWeights{1, 0, 0, 0}, MaxDistance: 0.35, q: 2},
		{Paths: []string{"html/body/table"}, Fanout: 3, Depth: 2, Nodes: 12, Weights: ShapeWeights{0, 0.5, 0.25, 0.25}, MaxDistance: 1, q: 1},
		{Paths: nil, Fanout: 1, Depth: 1, Nodes: 1, Weights: WeightsAll, MaxDistance: 1, q: 3},
	}
	for _, html := range pages {
		tree := htmlx.Parse(html)
		for _, w := range profiles {
			checkMatchAgainstRef(t, html, w, tree)
			checkMatchAgainstRef(t, html+" body", w, tree.FindTag("body"))
		}
	}
}

// FuzzWrapperMatch runs fuzzed HTML through the serve pass's candidate
// walk and through the per-node walk it replaced: both must pick the same node at the same distance
// bits. The profile path and q come from the fuzzer too.
func FuzzWrapperMatch(f *testing.F) {
	f.Add(`<html><body><ul><li>a</li><li>b</li><li>c</li></ul></body></html>`, "html/body/ul/li[2]", uint8(1))
	f.Add(`<p>one<p>two<table><tr><td>x<td>y</table>`, "html/body/table/tr/td", uint8(2))
	f.Fuzz(func(t *testing.T, html, profile string, q uint8) {
		tree := htmlx.Parse(html)
		w := &Wrapper{
			Paths:   []string{profile},
			Fanout:  3,
			Depth:   4,
			Nodes:   10,
			Weights: WeightsAll,
			// Every candidate is within reach, so the comparison covers
			// the whole ranking, not only the answer.
			MaxDistance: math.Inf(1),
			q:           int(q%4) + 1,
		}
		checkMatchAgainstRef(t, "fuzzed page", w, tree)
	})
}

// TestApplyHTMLWideSiblings bounds the serve pass on two pages that fit
// under the fleet's 4 MiB request limit, so that it stays linear in the
// page: one of 200,000 sibling <li>s, and one whose first parent has
// 50,000 children of distinct tags, followed by 50,000 parents of two
// children. A step index counted per candidate, by a scan over its
// siblings, is quadratic on the first page and takes minutes; a
// sibling tally cleared per parent is quadratic on the second, since
// clearing a map costs the capacity its widest parent left.
func TestApplyHTMLWideSiblings(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation distorts the time budget; gate runs in the non-race CI step")
	}
	m, _, _ := buildModelForApproach(t, TFIDFTags)
	// Every cluster serves through one wrapper, so the page reaches the
	// wrapper pass wherever it is assigned.
	var w *Wrapper
	for _, cw := range m.Wrappers {
		if cw != nil {
			w = cw
			break
		}
	}
	if w == nil {
		t.Fatal("model has no wrapper")
	}
	wide := &Model{Cfg: m.Cfg, NDocs: m.NDocs, DF: m.DF, Dict: m.Dict, Centroids: m.Centroids, Wrappers: make([]*Wrapper, len(m.Wrappers))}
	for i := range wide.Wrappers {
		wide.Wrappers[i] = w
	}
	var distinct strings.Builder
	distinct.WriteString("<html><body><div>")
	for i := 0; i < 50_000; i++ {
		fmt.Fprintf(&distinct, "<t%d></t%d>", i, i)
	}
	distinct.WriteString("</div>" + strings.Repeat("<p><b>a</b><i>b</i></p>", 50_000) + "</body></html>")
	for _, page := range []struct{ name, html string }{
		{"200,000 sibling <li>s", "<html><body><ul>" + strings.Repeat("<li>word</li>", 200_000) + "</ul></body></html>"},
		{"50,000 distinct sibling tags, then 50,000 small parents", distinct.String()},
	} {
		body := []byte(page.html)
		start := time.Now()
		_, _, err := wide.ApplyHTMLBytes(context.Background(), body)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s (%d bytes): %v", page.name, len(body), elapsed)
		if elapsed > 2*time.Second {
			t.Errorf("ApplyHTMLBytes took %v on %s, budget 2s", elapsed, page.name)
		}
	}
}

// TestWrapperVerdictIndependentOfHistory: a served wrapper scores a page
// as a freshly loaded one does, whatever tag names earlier requests
// carried, and serving never grows the wrapper's own simplifier. With
// identifiers kept for the life of the model, 200 pages of 50 new tag
// names each used up the short identifiers, so <section> got a longer
// one and the same page moved from 0.2020 to 0.2425 against a
// MaxDistance of 0.35.
func TestWrapperVerdictIndependentOfHistory(t *testing.T) {
	col := probeSite(t, 2, 1)
	m, err := NewExtractor(DefaultConfig()).BuildModel(col.Pages)
	if err != nil {
		t.Fatal(err)
	}
	var w *Wrapper
	for _, cw := range m.Wrappers {
		if cw != nil {
			w = cw
			break
		}
	}
	if w == nil {
		t.Fatal("model has no wrapper")
	}
	var html string
	for _, p := range col.Pages {
		if p.Class == corpus.MultiMatch {
			html = strings.Replace(strings.Replace(p.HTML, "<body>", "<body><section>", 1), "</body>", "</section></body>", 1)
			break
		}
	}
	var profile strdist.Simplifier
	profile.Reset(w.profile)

	_, fresh := resolvedWrapper(w).Extract(htmlx.Parse(html))
	for i := 0; i < 200; i++ {
		var junk strings.Builder
		junk.WriteString("<html><body>")
		for j := 0; j < 50; j++ {
			fmt.Fprintf(&junk, "<x%dy%d>word</x%dy%d>", i, j, i, j)
		}
		junk.WriteString("</body></html>")
		w.Extract(htmlx.Parse(junk.String()))
	}
	_, after := w.Extract(htmlx.Parse(html))
	t.Logf("distance %.4f fresh, %.4f after 10,000 new tag names", fresh, after)
	if math.Float64bits(fresh) != math.Float64bits(after) {
		t.Errorf("the same page scored %v on a fresh wrapper and %v after other traffic", fresh, after)
	}
	if !reflect.DeepEqual(&profile, w.profile) {
		t.Errorf("serving changed the wrapper's profile identifiers")
	}
}
