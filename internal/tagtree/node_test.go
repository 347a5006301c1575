package tagtree

import (
	"runtime/debug"
	"strings"
	"testing"
)

// buildSample constructs the small tree used throughout the node tests:
//
//	html
//	├── head
//	│   └── title ── "IBM"
//	└── body
//	    ├── table
//	    │   ├── tr ── td ── "a"
//	    │   └── tr ── td ── "b"
//	    └── p ── "text"
func buildSample() *Node {
	html := NewTag("html")
	head := NewTag("head")
	title := NewTag("title")
	title.AppendChild(NewContent("IBM"))
	head.AppendChild(title)
	body := NewTag("body")
	table := NewTag("table")
	for _, s := range []string{"a", "b"} {
		tr := NewTag("tr")
		td := NewTag("td")
		td.AppendChild(NewContent(s))
		tr.AppendChild(td)
		table.AppendChild(tr)
	}
	p := NewTag("p")
	p.AppendChild(NewContent("text"))
	body.AppendChild(table)
	body.AppendChild(p)
	html.AppendChild(head)
	html.AppendChild(body)
	return html
}

func TestAppendChildSetsParent(t *testing.T) {
	parent := NewTag("div")
	child := NewTag("span")
	parent.AppendChild(child)
	if child.Parent != parent {
		t.Fatalf("child.Parent = %v, want parent", child.Parent)
	}
	if len(parent.Children) != 1 || parent.Children[0] != child {
		t.Fatalf("parent.Children = %v, want [child]", parent.Children)
	}
}

func TestAppendChildToContentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AppendChild on content node did not panic")
		}
	}()
	NewContent("x").AppendChild(NewTag("b"))
}

func TestNodeTypePredicates(t *testing.T) {
	tag := NewTag("div")
	content := NewContent("x")
	if !tag.IsTag() || tag.IsContent() {
		t.Errorf("tag node predicates wrong")
	}
	if content.IsTag() || !content.IsContent() {
		t.Errorf("content node predicates wrong")
	}
	if TagNode.String() != "tag" || ContentNode.String() != "content" {
		t.Errorf("NodeType.String: got %q, %q", TagNode.String(), ContentNode.String())
	}
	if NodeType(99).String() != "unknown" {
		t.Errorf("unknown NodeType.String = %q", NodeType(99).String())
	}
}

func TestDepthAndRoot(t *testing.T) {
	root := buildSample()
	title := root.FindTag("title")
	if got := title.Depth(); got != 2 {
		t.Errorf("title.Depth() = %d, want 2", got)
	}
	if got := root.Depth(); got != 0 {
		t.Errorf("root.Depth() = %d, want 0", got)
	}
	if title.Root() != root {
		t.Errorf("title.Root() != root")
	}
}

func TestNodeCount(t *testing.T) {
	root := buildSample()
	// html, head, title, "IBM", body, table, 2×(tr, td, text), p, "text" = 14
	if got := root.NodeCount(); got != 14 {
		t.Errorf("NodeCount = %d, want 14", got)
	}
	if got := NewContent("x").NodeCount(); got != 1 {
		t.Errorf("leaf NodeCount = %d, want 1", got)
	}
}

func TestHeight(t *testing.T) {
	root := buildSample()
	// html→body→table→tr→td→#text is the longest path: 5 edges.
	if got := root.Height(); got != 5 {
		t.Errorf("Height = %d, want 5", got)
	}
	if got := NewTag("br").Height(); got != 0 {
		t.Errorf("leaf Height = %d, want 0", got)
	}
}

func TestFanoutAndMaxFanout(t *testing.T) {
	root := buildSample()
	body := root.FindTag("body")
	if got := body.Fanout(); got != 2 {
		t.Errorf("body.Fanout = %d, want 2", got)
	}
	if got := root.MaxFanout(); got != 2 {
		t.Errorf("MaxFanout = %d, want 2", got)
	}
	wide := NewTag("ul")
	for i := 0; i < 7; i++ {
		wide.AppendChild(NewTag("li"))
	}
	root.FindTag("body").AppendChild(wide)
	if got := root.MaxFanout(); got != 7 {
		t.Errorf("MaxFanout after adding wide list = %d, want 7", got)
	}
}

func TestWalkPreorder(t *testing.T) {
	root := buildSample()
	var order []string
	root.Walk(func(n *Node) bool {
		if n.Type == TagNode {
			order = append(order, n.Tag)
		} else {
			order = append(order, "#"+n.Content)
		}
		return true
	})
	want := []string{"html", "head", "title", "#IBM", "body", "table",
		"tr", "td", "#a", "tr", "td", "#b", "p", "#text"}
	if strings.Join(order, ",") != strings.Join(want, ",") {
		t.Errorf("Walk order = %v, want %v", order, want)
	}
}

func TestWalkEarlyStop(t *testing.T) {
	root := buildSample()
	var visited int
	root.Walk(func(n *Node) bool {
		visited++
		return n.Tag != "head" // skip head's subtree
	})
	// full tree is 14 nodes; head's subtree below it has 2 (title, text)
	if visited != 12 {
		t.Errorf("visited %d nodes, want 12", visited)
	}
}

func TestText(t *testing.T) {
	root := buildSample()
	if got := root.Text(); got != "IBM a b text" {
		t.Errorf("Text = %q, want %q", got, "IBM a b text")
	}
	if got := root.FindTag("p").Text(); got != "text" {
		t.Errorf("p.Text = %q", got)
	}
}

func TestHasText(t *testing.T) {
	root := buildSample()
	if !root.HasText() {
		t.Error("root.HasText = false, want true")
	}
	empty := NewTag("div")
	empty.AppendChild(NewTag("br"))
	if empty.HasText() {
		t.Error("empty div HasText = true, want false")
	}
	ws := NewTag("div")
	ws.AppendChild(NewContent("   \n\t "))
	if ws.HasText() {
		t.Error("whitespace-only div HasText = true, want false")
	}
}

func TestFindAndFindAll(t *testing.T) {
	root := buildSample()
	if n := root.FindTag("td"); n == nil || n.Text() != "a" {
		t.Errorf("FindTag(td) returned wrong node")
	}
	if n := root.FindTag("nosuch"); n != nil {
		t.Errorf("FindTag(nosuch) = %v, want nil", n)
	}
	all := root.FindAll(func(n *Node) bool { return n.Tag == "tr" })
	if len(all) != 2 {
		t.Errorf("FindAll(tr) returned %d nodes, want 2", len(all))
	}
}

func TestDescendants(t *testing.T) {
	root := buildSample()
	desc := root.Descendants()
	if len(desc) != 13 { // all nodes except root
		t.Errorf("Descendants = %d nodes, want 13", len(desc))
	}
	for _, d := range desc {
		if d == root {
			t.Error("Descendants includes the root itself")
		}
	}
}

func TestIsAncestorOf(t *testing.T) {
	root := buildSample()
	body := root.FindTag("body")
	td := root.FindTag("td")
	if !root.IsAncestorOf(td) || !body.IsAncestorOf(td) {
		t.Error("expected ancestor relations missing")
	}
	if td.IsAncestorOf(body) {
		t.Error("td should not be ancestor of body")
	}
	if body.IsAncestorOf(body) {
		t.Error("a node must not be its own ancestor (proper ancestry)")
	}
	head := root.FindTag("head")
	if head.IsAncestorOf(td) {
		t.Error("head is not an ancestor of td")
	}
}

func TestClone(t *testing.T) {
	root := buildSample()
	root.FindTag("table").SetAttr("class", "results")
	cp := root.Clone()
	if cp.Parent != nil {
		t.Error("clone parent should be nil")
	}
	if cp.NodeCount() != root.NodeCount() {
		t.Errorf("clone NodeCount = %d, want %d", cp.NodeCount(), root.NodeCount())
	}
	if v, ok := cp.FindTag("table").Attr("class"); !ok || v != "results" {
		t.Error("clone lost attributes")
	}
	// Mutating the clone must not affect the original.
	cp.FindTag("p").Children[0].Content = "changed"
	if root.FindTag("p").Text() != "text" {
		t.Error("mutating clone affected original")
	}
	cp.FindTag("table").SetAttr("class", "other")
	if v, _ := root.FindTag("table").Attr("class"); v != "results" {
		t.Error("mutating clone attrs affected original")
	}
}

func TestAttrAndSetAttr(t *testing.T) {
	n := NewTag("a")
	if _, ok := n.Attr("href"); ok {
		t.Error("Attr on empty node reported present")
	}
	n.SetAttr("href", "/x")
	if v, ok := n.Attr("href"); !ok || v != "/x" {
		t.Errorf("Attr(href) = %q, %v", v, ok)
	}
	n.SetAttr("href", "/y") // replace, not append
	if len(n.Attrs) != 1 || n.Attrs[0].Val != "/y" {
		t.Errorf("SetAttr replace failed: %v", n.Attrs)
	}
}

// deepChain builds a chain of levels nested <div>s with one word of text
// at the bottom, its nodes in two blocks so the chain costs two
// allocations.
func deepChain(levels int) *Node {
	nodes := make([]Node, levels+1)
	kids := make([]*Node, levels)
	for i := 0; i < levels; i++ {
		nodes[i] = Node{Type: TagNode, Tag: "div", Children: kids[i : i+1 : i+1]}
		kids[i] = &nodes[i+1]
		nodes[i+1].Parent = &nodes[i]
	}
	nodes[levels] = Node{Type: ContentNode, Content: "Bottom", Parent: nodes[levels].Parent}
	return &nodes[0]
}

// TestWalkDeepChain runs every Walk-based reader on the deepest chain a
// 4 MiB page of bare <div> opens can hold, 838,000 levels, with the
// goroutine stack capped at 4 MiB: a walk that recursed once per level
// would need far more and crash. Clone, which copies every node, runs on
// a chain of 100,000 levels, still some twenty times deeper than a
// recursive copy fits in that stack.
func TestWalkDeepChain(t *testing.T) {
	const levels = 838_000
	defer debug.SetMaxStack(debug.SetMaxStack(4 << 20))
	root := deepChain(levels)
	if got := root.TagCounts(); len(got) != 1 || got["div"] != levels {
		t.Fatalf("TagCounts = %v, want div: %d", got, levels)
	}
	counts := map[string]int{"div": 1}
	root.TagCountsInto(counts)
	if counts["div"] != levels+1 {
		t.Fatalf("TagCountsInto added %d divs, want %d", counts["div"]-1, levels)
	}
	if got := NewTermCounter(strings.ToUpper).Count(root); len(got) != 1 || got["BOTTOM"] != 1 {
		t.Fatalf("TermCounter.Count = %v, want BOTTOM: 1", got)
	}
	if got := root.Text(); got != "Bottom" {
		t.Fatalf("Text = %q, want %q", got, "Bottom")
	}
	if !root.HasText() {
		t.Fatal("HasText = false on a chain with text at the bottom")
	}
	if got := root.Find(func(n *Node) bool { return n.Type == ContentNode }); got == nil || got.Content != "Bottom" {
		t.Fatalf("Find = %v, want the bottom text", got)
	}
	visited := 0
	root.Walk(func(*Node) bool { visited++; return visited < levels/2 })
	if visited != levels/2 {
		t.Fatalf("Walk visited %d nodes after fn returned false at %d", visited, levels/2)
	}

	const cloned = 100_000
	src := deepChain(cloned)
	cp := src.Clone()
	a, b := src, cp
	for i := 0; i <= cloned; i++ {
		if a.Type != b.Type || a.Tag != b.Tag || a.Content != b.Content || len(a.Children) != len(b.Children) {
			t.Fatalf("level %d: clone differs", i)
		}
		if i > 0 && b.Parent == nil {
			t.Fatalf("level %d: clone has no parent", i)
		}
		if len(a.Children) == 0 {
			break
		}
		a, b = a.Children[0], b.Children[0]
	}
	if b.Content != "Bottom" {
		t.Fatalf("clone's bottom holds %q", b.Content)
	}
}

// TestWalkAllocs pins the walk's fixed stack: a tree up to 32 levels deep
// is walked, and its tags counted into a warm map, without allocating.
func TestWalkAllocs(t *testing.T) {
	root := deepChain(31)
	counts := make(map[string]int)
	root.TagCountsInto(counts)
	if allocs := testing.AllocsPerRun(100, func() { root.TagCountsInto(counts) }); allocs != 0 {
		t.Errorf("TagCountsInto on a 32-level tree: %.1f allocs, want 0", allocs)
	}
}
