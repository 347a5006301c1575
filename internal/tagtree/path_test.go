package tagtree

import "testing"

func TestPathWithSiblingIndexes(t *testing.T) {
	root := buildSample()
	trs := root.FindAll(func(n *Node) bool { return n.Tag == "tr" })
	if got := trs[0].Path(); got != "html/body/table/tr[1]" {
		t.Errorf("first tr Path = %q", got)
	}
	if got := trs[1].Path(); got != "html/body/table/tr[2]" {
		t.Errorf("second tr Path = %q", got)
	}
	// Unique-among-siblings steps carry no index.
	if got := root.FindTag("title").Path(); got != "html/head/title" {
		t.Errorf("title Path = %q", got)
	}
	if got := root.Path(); got != "html" {
		t.Errorf("root Path = %q", got)
	}
}

func TestContentNodePath(t *testing.T) {
	root := buildSample()
	text := root.FindTag("p").Children[0]
	if got := text.Path(); got != "html/body/p/#text" {
		t.Errorf("content Path = %q", got)
	}
}

func TestLookupResolvesEveryNode(t *testing.T) {
	root := buildSample()
	root.Walk(func(n *Node) bool {
		path := n.Path()
		got, err := Lookup(root, path)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", path, err)
		}
		if got != n {
			t.Fatalf("Lookup(%q) resolved to a different node", path)
		}
		return true
	})
}

func TestLookupErrors(t *testing.T) {
	root := buildSample()
	cases := []string{
		"",                        // empty
		"body",                    // wrong root
		"html/nosuch",             // missing step
		"html/body/table/tr[3]",   // index out of range
		"html/body/table/tr[0]",   // invalid index
		"html/body/table/tr[x]",   // non-numeric index
		"html/body/table/tr[1",    // unterminated bracket
		"html[2]",                 // indexed root beyond 1
		"html/body/p/#text/fake",  // descend below a leaf
		"html/body/table/#text",   // no text child there
		"html/head/title/#text/x", // below text
	}
	for _, path := range cases {
		if _, err := Lookup(root, path); err == nil {
			t.Errorf("Lookup(%q) succeeded, want error", path)
		}
	}
}

func TestLookupTextStep(t *testing.T) {
	root := buildSample()
	n, err := Lookup(root, "html/head/title/#text")
	if err != nil {
		t.Fatalf("Lookup title text: %v", err)
	}
	if n.Content != "IBM" {
		t.Errorf("resolved content = %q, want IBM", n.Content)
	}
}

func TestPathMixedSiblings(t *testing.T) {
	// div with children: p, span, p — the p's are indexed among
	// themselves, the span is unique.
	div := NewTag("div")
	p1, span, p2 := NewTag("p"), NewTag("span"), NewTag("p")
	div.AppendChild(p1)
	div.AppendChild(span)
	div.AppendChild(p2)
	if got := p2.Path(); got != "div/p[2]" {
		t.Errorf("p2 Path = %q", got)
	}
	if got := span.Path(); got != "div/span" {
		t.Errorf("span Path = %q", got)
	}
}
