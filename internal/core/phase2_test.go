package core

import (
	"fmt"
	"math/rand"
	"testing"

	"thor/internal/corpus"
	"thor/internal/htmlx"
	"thor/internal/strdist"
	"thor/internal/tagtree"
)

func candidatesOf(t *testing.T, html string) []*Candidate {
	t.Helper()
	return SinglePageCandidates(htmlx.Parse(html), 0)
}

func candidatePaths(cands []*Candidate) map[string]bool {
	out := make(map[string]bool)
	for _, c := range cands {
		out[c.Node.Path()] = true
	}
	return out
}

func TestSinglePageCandidatesContentRule(t *testing.T) {
	// Subtrees without content are never candidates.
	cands := candidatesOf(t, `<html><body><div><br><hr></div><p>real</p></body></html>`)
	paths := candidatePaths(cands)
	if paths["html/body/div"] {
		t.Error("content-free div became a candidate")
	}
	if !paths["html/body/p"] {
		t.Errorf("content-bearing p missed: %v", paths)
	}
}

func TestSinglePageCandidatesMinimality(t *testing.T) {
	// A chain div>div>p where all content sits in p: only the innermost
	// content-equivalent subtree plus genuinely branching ancestors count.
	cands := candidatesOf(t, `<html><body><div><div><p>only text</p></div></div></body></html>`)
	paths := candidatePaths(cands)
	if paths["html/body/div"] || paths["html/body/div/div"] {
		t.Errorf("non-minimal chain nodes became candidates: %v", paths)
	}
	if !paths["html/body/div/div/p"] {
		t.Errorf("minimal subtree missing: %v", paths)
	}
	// html and body are also chains here.
	if paths["html"] || paths["html/body"] {
		t.Errorf("chain ancestors not pruned: %v", paths)
	}
}

func TestSinglePageCandidatesBranchingIsMinimal(t *testing.T) {
	cands := candidatesOf(t, `<html><body><div><p>a</p><p>b</p></div></body></html>`)
	paths := candidatePaths(cands)
	if !paths["html/body/div"] {
		t.Errorf("branching div with two text children should be a candidate: %v", paths)
	}
}

func TestSinglePageCandidatesMetrics(t *testing.T) {
	cands := candidatesOf(t, `<html><body><ul><li>a</li><li>b</li><li>c</li></ul></body></html>`)
	var ul *Candidate
	for _, c := range cands {
		if c.Node.Tag == "ul" {
			ul = c
		}
	}
	if ul == nil {
		t.Fatal("ul not a candidate")
	}
	if ul.Fanout != 3 {
		t.Errorf("ul fanout = %d", ul.Fanout)
	}
	if ul.Depth != 2 {
		t.Errorf("ul depth = %d", ul.Depth)
	}
	if ul.Nodes != 1+3*2 {
		t.Errorf("ul nodes = %d, want 7", ul.Nodes)
	}
	if ul.Path != "html/body/ul" {
		t.Errorf("ul path = %q", ul.Path)
	}
}

func mkCandidate(tag, path string, fanout, depth, nodes int) *Candidate {
	return &Candidate{
		Node: tagtree.NewTag(tag), Path: path,
		Fanout: fanout, Depth: depth, Nodes: nodes,
	}
}

func TestShapeDistanceIdentical(t *testing.T) {
	simp := strdist.NewSimplifier(1)
	a := mkCandidate("ul", "html/body/ul", 5, 2, 20)
	if d := ShapeDistance(a, a, WeightsAll, simp); d != 0 {
		t.Errorf("self distance = %v", d)
	}
}

func TestShapeDistanceBounds(t *testing.T) {
	simp := strdist.NewSimplifier(1)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		a := mkCandidate("ul", randomPath(rng), rng.Intn(20), rng.Intn(10), rng.Intn(300))
		b := mkCandidate("ol", randomPath(rng), rng.Intn(20), rng.Intn(10), rng.Intn(300))
		d := ShapeDistance(a, b, WeightsAll, simp)
		if d < 0 || d > 1 {
			t.Fatalf("distance out of range: %v", d)
		}
	}
}

func randomPath(rng *rand.Rand) string {
	tags := []string{"html", "body", "div", "table", "tr", "td", "ul", "li"}
	path := "html"
	for i := 0; i < rng.Intn(5); i++ {
		path += "/" + tags[rng.Intn(len(tags))]
	}
	return path
}

func TestShapeDistanceSingleTerms(t *testing.T) {
	simp := strdist.NewSimplifier(1)
	base := mkCandidate("ul", "html/body/ul", 10, 3, 100)
	// Fanout-only weighting reacts only to fanout.
	other := mkCandidate("ul", "html/body/ul", 5, 3, 100)
	if d := ShapeDistance(base, other, WeightsFanoutOnly, simp); d != 0.5 {
		t.Errorf("fanout-only distance = %v, want |10-5|/10 = 0.5", d)
	}
	if d := ShapeDistance(base, other, WeightsDepthOnly, simp); d != 0 {
		t.Errorf("depth-only distance = %v, want 0", d)
	}
	deep := mkCandidate("ul", "html/body/ul", 10, 6, 100)
	if d := ShapeDistance(base, deep, WeightsDepthOnly, simp); d != 0.5 {
		t.Errorf("depth-only = %v, want 0.5", d)
	}
	big := mkCandidate("ul", "html/body/ul", 10, 3, 200)
	if d := ShapeDistance(base, big, WeightsNodesOnly, simp); d != 0.5 {
		t.Errorf("nodes-only = %v, want 0.5", d)
	}
	moved := mkCandidate("ul", "html/body/div/ul", 10, 3, 100)
	if d := ShapeDistance(base, moved, WeightsPathOnly, simp); d != 0.25 {
		t.Errorf("path-only = %v, want 1 edit / 4 = 0.25", d)
	}
}

func TestRatioDiff(t *testing.T) {
	if ratioDiff(0, 0) != 0 {
		t.Error("ratioDiff(0,0) != 0")
	}
	if ratioDiff(10, 0) != 1 {
		t.Error("ratioDiff(10,0) != 1")
	}
	if ratioDiff(4, 8) != 0.5 {
		t.Error("ratioDiff(4,8) != 0.5")
	}
	if ratioDiff(8, 4) != ratioDiff(4, 8) {
		t.Error("ratioDiff asymmetric")
	}
}

// resultPage renders a tiny answer page with n items, each containing the
// given words (varying per page).
func resultPage(n int, salt string) string {
	html := `<html><body><ul class="nav"><li><a href="/">Home</a></li><li><a href="/help">Help</a></li></ul><ul class="res">`
	for i := 0; i < n; i++ {
		html += fmt.Sprintf(`<li>item %s%d unique%s%d</li>`, salt, i, salt, i)
	}
	html += `</ul><p>About us: we are a fine store established long ago.</p></body></html>`
	return html
}

func phase2Pages(n int) []*corpus.Page {
	var pages []*corpus.Page
	for i := 0; i < n; i++ {
		pages = append(pages, &corpus.Page{
			HTML:  resultPage(3+i%3, fmt.Sprintf("q%d", i)),
			Class: corpus.MultiMatch,
			Query: fmt.Sprintf("q%d", i),
		})
	}
	return pages
}

func TestFindCommonSubtreeSetsStructure(t *testing.T) {
	pages := phase2Pages(6)
	perPage := make([][]*Candidate, len(pages))
	for i, p := range pages {
		perPage[i] = SinglePageCandidates(p.Tree(), i)
	}
	cfg := DefaultConfig()
	sets := FindCommonSubtreeSets(perPage, cfg, rand.New(rand.NewSource(1)), strdist.NewSimplifier(1))
	if len(sets) == 0 {
		t.Fatal("no sets found")
	}
	for _, s := range sets {
		seenPages := make(map[int]bool)
		for _, m := range s.Members {
			if seenPages[m.PageIdx] {
				t.Fatalf("set holds two subtrees from page %d", m.PageIdx)
			}
			seenPages[m.PageIdx] = true
		}
	}
	// One-to-one: across sets, no candidate node appears twice.
	seenNodes := make(map[*tagtree.Node]bool)
	for _, s := range sets {
		for _, m := range s.Members {
			if seenNodes[m.Node] {
				t.Fatalf("candidate claimed by two sets")
			}
			seenNodes[m.Node] = true
		}
	}
}

func TestFindCommonSubtreeSetsEmpty(t *testing.T) {
	cfg := DefaultConfig()
	if got := FindCommonSubtreeSets(nil, cfg, rand.New(rand.NewSource(1)), strdist.NewSimplifier(1)); got != nil {
		t.Errorf("empty input gave %d sets", len(got))
	}
}

func TestRankSubtreeSetsSeparatesStaticDynamic(t *testing.T) {
	pages := phase2Pages(8)
	cfg := DefaultConfig()
	ext := NewExtractor(cfg)
	p2 := ext.ExtractCluster(pages)
	var navSim, resSim float64 = -1, -1
	for _, s := range p2.Sets {
		switch {
		case s.Proto.Node.Tag == "ul" && hasAttrVal(s.Proto.Node, "class", "nav"):
			navSim = s.IntraSim
		case s.Proto.Node.Tag == "ul" && hasAttrVal(s.Proto.Node, "class", "res"):
			resSim = s.IntraSim
		}
	}
	if navSim < 0 || resSim < 0 {
		t.Fatalf("nav or results set missing (nav=%v res=%v)", navSim, resSim)
	}
	if navSim <= cfg.SimThreshold {
		t.Errorf("static nav set sim = %v, should exceed threshold", navSim)
	}
	if resSim > cfg.SimThreshold {
		t.Errorf("dynamic results set sim = %v, should be below threshold", resSim)
	}
	// Sets are sorted ascending by IntraSim.
	for i := 1; i < len(p2.Sets); i++ {
		if p2.Sets[i-1].IntraSim > p2.Sets[i].IntraSim {
			t.Fatalf("sets not sorted by IntraSim")
		}
	}
}

func hasAttrVal(n *tagtree.Node, key, val string) bool {
	v, ok := n.Attr(key)
	return ok && v == val
}

func TestPhase2SelectsResultsList(t *testing.T) {
	pages := phase2Pages(8)
	ext := NewExtractor(DefaultConfig())
	p2 := ext.ExtractCluster(pages)
	if p2.Selected == nil {
		t.Fatal("nothing selected")
	}
	sel := p2.Selected.Proto.Node
	if sel.Tag != "ul" || !hasAttrVal(sel, "class", "res") {
		t.Fatalf("selected %s (%s), want the results ul", sel.Tag, p2.Selected.Proto.Path)
	}
	if len(p2.Pagelets) == 0 {
		t.Fatal("no pagelets extracted")
	}
	for _, pl := range p2.Pagelets {
		if pl.Node.Tag != "ul" {
			t.Errorf("page %q pagelet = %s", pl.Page.Query, pl.Node.Path())
		}
		if len(pl.Objects) == 0 {
			t.Errorf("page %q pagelet has no recommended objects", pl.Page.Query)
		}
	}
}

func TestIntraSetSimilaritySingleMember(t *testing.T) {
	cands := candidatesOf(t, `<html><body><p>lonely</p></body></html>`)
	s := &SubtreeSet{Proto: cands[0], Members: cands[:1]}
	if got := rankedIntraSim(s, DefaultConfig()); got != 1 {
		t.Errorf("single-member similarity = %v, want 1 (treated static)", got)
	}
}

func TestSelectPageletEmpty(t *testing.T) {
	if got := SelectPagelet(nil, DefaultConfig()); got != nil {
		t.Errorf("SelectPagelet(nil) = %v", got)
	}
	// All-static sets: nothing dynamic to select.
	cands := candidatesOf(t, `<html><body><p>x</p></body></html>`)
	s := &SubtreeSet{Proto: cands[0], Members: cands[:1], IntraSim: 0.9, Dynamic: false}
	if got := SelectPagelet([]*SubtreeSet{s}, DefaultConfig()); got != nil {
		t.Errorf("static-only selection = %v, want nil", got)
	}
}

func TestSelectPageletPrefersDeepContainer(t *testing.T) {
	// Hand-built nesting: body > wrapper > list > 3 items, plus a shallow
	// dynamic heading. The list (deep, containing the items) must win over
	// body (broad) and over any single item (deep but empty).
	page := htmlx.Parse(`<html><body><h4>head q</h4><div><ul><li>a</li><li>b</li><li>c</li></ul></div></body></html>`)
	get := func(path string) *tagtree.Node {
		n, err := tagtree.Lookup(page, path)
		if err != nil {
			t.Fatalf("lookup %s: %v", path, err)
		}
		return n
	}
	mk := func(n *tagtree.Node) *SubtreeSet {
		c := &Candidate{Node: n, Path: n.Path(), Depth: n.Depth(), Fanout: n.Fanout(), Nodes: n.NodeCount()}
		return &SubtreeSet{Proto: c, Members: []*Candidate{c}, Dynamic: true}
	}
	sets := []*SubtreeSet{
		mk(get("html/body")),
		mk(get("html/body/h4")),
		mk(get("html/body/div/ul")),
		mk(get("html/body/div/ul/li[1]")),
		mk(get("html/body/div/ul/li[2]")),
		mk(get("html/body/div/ul/li[3]")),
	}
	got := SelectPagelet(sets, DefaultConfig())
	if got.Proto.Node.Tag != "ul" {
		t.Errorf("selected %s, want ul", got.Proto.Node.Path())
	}
}
