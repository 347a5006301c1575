package htmlx

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"thor/internal/tagtree"
)

// sameTree reports the first difference between two trees, walking them
// in lockstep with a stack of its own (so a tree of any depth compares),
// and checks in both that every child's Parent is the node listing it
// and that the roots have none.
func sameTree(a, b *tagtree.Node) error {
	if a.Parent != nil || b.Parent != nil {
		return fmt.Errorf("root has a parent")
	}
	type pair struct{ a, b *tagtree.Node }
	stack := []pair{{a, b}}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		x, y := p.a, p.b
		if x.Type != y.Type || x.Tag != y.Tag || x.Content != y.Content {
			return fmt.Errorf("(%v, %q, %q) != (%v, %q, %q)", x.Type, x.Tag, x.Content, y.Type, y.Tag, y.Content)
		}
		if len(x.Attrs) != len(y.Attrs) {
			return fmt.Errorf("<%s>: %d attrs != %d attrs", x.Tag, len(x.Attrs), len(y.Attrs))
		}
		for i := range x.Attrs {
			if x.Attrs[i] != y.Attrs[i] {
				return fmt.Errorf("<%s> attr %d: %+v != %+v", x.Tag, i, x.Attrs[i], y.Attrs[i])
			}
		}
		if len(x.Children) != len(y.Children) {
			return fmt.Errorf("<%s>: %d children != %d children", x.Tag, len(x.Children), len(y.Children))
		}
		for i := range x.Children {
			if x.Children[i].Parent != x || y.Children[i].Parent != y {
				return fmt.Errorf("<%s> child %d: parent pointer does not point back", x.Tag, i)
			}
			stack = append(stack, pair{x.Children[i], y.Children[i]})
		}
	}
	return nil
}

// checkOwned checks the shape of a tree Parse returned: every Children
// and Attrs slice is capped at its length, so that appending to one can
// never write into a neighbour's, and an empty one is nil.
func checkOwned(t *testing.T, root *tagtree.Node) {
	t.Helper()
	stack := []*tagtree.Node{root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cap(n.Children) != len(n.Children) || cap(n.Attrs) != len(n.Attrs) {
			t.Fatalf("<%s>: children %d/%d, attrs %d/%d (len/cap)", n.Tag,
				len(n.Children), cap(n.Children), len(n.Attrs), cap(n.Attrs))
		}
		if (n.Children == nil) != (len(n.Children) == 0) || (n.Attrs == nil) != (len(n.Attrs) == 0) {
			t.Fatalf("<%s>: an empty Children or Attrs slice is not nil", n.Tag)
		}
		stack = append(stack, n.Children...)
	}
}

// churn is a page of decoded text and attribute values that overwrites
// whatever a pooled parser's byte arena held.
var churn = strings.Repeat(`<p title="&#9731;&#9731;">&#9731;   &#9731;</p>`, 64)

// FuzzParse checks Parse against the arena Parser it copies from, node
// for node with parent pointers, on arbitrary input, after the pool's
// parser has parsed another page: a string left in the pooled arenas
// would have changed. Seeds live under testdata/fuzz/FuzzParse; run with
//
//	go test -run '^$' -fuzz FuzzParse -fuzztime 20s ./internal/htmlx
func FuzzParse(f *testing.F) {
	for _, src := range trickyPages {
		f.Add(src)
	}
	p := NewParser()
	f.Fuzz(func(t *testing.T, src string) {
		got := Parse(src)
		Parse(churn)
		if err := sameTree(got, p.Parse(src)); err != nil {
			t.Fatalf("Parse differs from Parser.Parse: %v", err)
		}
		checkOwned(t, got)
	})
}

// TestParseTreeOutlivesPooledParser pins ownership: a tree Parse
// returned must not change when the pooled parser it came from parses
// and releases other pages, which rewrites the parser's node slabs and
// its text arena. The pool is warmed first, so that the parse under test
// writes its decoded text into an arena that will not grow away from it.
func TestParseTreeOutlivesPooledParser(t *testing.T) {
	src := `<html title="a &amp; b" lang=" x  ">` + strings.Join(trickyPages, "")
	want := NewParser().Parse(src) // a parser of its own, never reused
	Parse(churn)
	got := Parse(src)

	p := parsers.Get().(*Parser)
	p.Parse(churn)
	p.Release()
	parsers.Put(p)
	Parse(churn)

	if err := sameTree(want, got); err != nil {
		t.Fatalf("tree changed after its parser was reused: %v", err)
	}
	checkOwned(t, got)
}

// TestParseTreeAppendChildIsolated appends to every tag node of a Parse
// tree: each node's Children is capped at its length, so the append
// reallocates, and no other node gains or loses a child.
func TestParseTreeAppendChildIsolated(t *testing.T) {
	src := `<ul><li>a<li>b<li>c</ul><table><tr><td>x<td>y</table><p>z</p>`
	tree := Parse(src)
	var tags []*tagtree.Node
	tree.Walk(func(n *tagtree.Node) bool {
		if n.IsTag() {
			tags = append(tags, n)
		}
		return true
	})
	for _, n := range tags {
		n.AppendChild(tagtree.NewTag("added"))
	}
	want := Parse(src)
	for _, n := range tags {
		n.Children = n.Children[:len(n.Children)-1]
	}
	if err := sameTree(want, tree); err != nil {
		t.Fatalf("appending a child changed another node: %v", err)
	}
}

// TestParseAllocsIndependentOfNodeCount is the allocation gate of the
// owned parse: a tree costs its five blocks (two of nodes, one each of
// children, attributes and text), however many nodes it has.
// Tag names and attribute keys are lowercase, which the tokenizer keeps
// as substrings of the page. The collector is off while counting: each
// collection empties the parser pool, whose next Put then allocates.
func TestParseAllocsIndependentOfNodeCount(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates, and sync.Pool drops Puts under it")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	record := `<li class="r"><a href="/b?id=7&amp;s=2">Title &amp; more</a>  spaced   text <b>x</b></li>`
	small := "<ul>" + strings.Repeat(record, 10) + "</ul>"
	large := "<ul>" + strings.Repeat(record, 2000) + "</ul>"
	Parse(large) // grow the pooled parser once
	allocsSmall := testing.AllocsPerRun(50, func() { Parse(small) })
	allocsLarge := testing.AllocsPerRun(10, func() { Parse(large) })
	if allocsLarge > allocsSmall || allocsSmall > 5 {
		t.Errorf("Parse allocates %.0f times on %d nodes and %.0f on %d; want at most 5, whatever the size",
			allocsSmall, Parse(small).NodeCount(), allocsLarge, Parse(large).NodeCount())
	}
}

// TestParseDeepChain parses the deepest page a 4 MiB request can hold,
// 838,000 bare <div> opens, and measures the tree, with the goroutine
// stack capped at 4 MiB: a copy or a count that recursed once per level
// would need far more and crash.
func TestParseDeepChain(t *testing.T) {
	const depth = 838_000
	src := strings.Repeat("<div>", depth)
	defer debug.SetMaxStack(debug.SetMaxStack(4 << 20))
	defer func() { runtime.GC(); runtime.GC() }() // drop the grown pooled parser
	root := Parse(src)
	if got := root.NodeCount(); got != depth+1 {
		t.Fatalf("NodeCount = %d, want %d", got, depth+1)
	}
	if got := root.Height(); got != depth {
		t.Fatalf("Height = %d, want %d", got, depth)
	}
	if got := root.MaxFanout(); got != 1 {
		t.Fatalf("MaxFanout = %d, want 1", got)
	}
	n := root
	for i := 0; i < depth; i++ {
		if len(n.Children) != 1 || n.Children[0].Parent != n || n.Children[0].Tag != "div" {
			t.Fatalf("level %d: %d children", i, len(n.Children))
		}
		n = n.Children[0]
	}
	if len(n.Children) != 0 {
		t.Fatalf("deepest <div> has %d children", len(n.Children))
	}
}
