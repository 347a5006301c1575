// Package tagtree models web pages as tag trees, a variation of the
// Document Object Model used throughout THOR (Caverlee, Liu, Buttler,
// ICDE 2004, Section 2).
//
// A tag tree consists of tag nodes and content nodes. A tag node covers all
// the characters from a start tag to its matching end tag and is labeled by
// the tag name. A content node covers the characters between two tags and is
// labeled by its content; content nodes are always leaves.
package tagtree

import (
	"strings"
)

// NodeType distinguishes tag nodes from content nodes.
type NodeType int

const (
	// TagNode is an element node labeled by its (lowercase) tag name.
	TagNode NodeType = iota
	// ContentNode is a leaf holding character data.
	ContentNode
)

// String returns a human-readable name for the node type.
func (t NodeType) String() string {
	switch t {
	case TagNode:
		return "tag"
	case ContentNode:
		return "content"
	default:
		return "unknown"
	}
}

// Attribute is a single key="value" pair on a tag node. THOR's algorithms
// never consult attributes — they are retained only so pages can be
// round-tripped and so ground-truth markers can be carried by test corpora.
type Attribute struct {
	Key string
	Val string
}

// Node is a single node of a tag tree.
//
// The zero value is not useful; construct nodes with NewTag and NewContent
// and link them with AppendChild so parent pointers stay consistent.
type Node struct {
	Type     NodeType
	Tag      string      // tag name, lowercase; empty for content nodes
	Content  string      // character data; empty for tag nodes
	Attrs    []Attribute // attributes in document order; nil for content nodes
	Parent   *Node
	Children []*Node
}

// NewTag returns a new unattached tag node with the given (already
// lowercase) tag name.
func NewTag(tag string) *Node {
	return &Node{Type: TagNode, Tag: tag}
}

// NewContent returns a new unattached content node holding text.
func NewContent(text string) *Node {
	return &Node{Type: ContentNode, Content: text}
}

// AppendChild attaches child as the last child of n and sets its parent
// pointer. It panics if called on a content node, which by definition is a
// leaf.
func (n *Node) AppendChild(child *Node) {
	if n.Type == ContentNode {
		//thorlint:allow no-panic-in-lib programmer-error guard; content nodes are leaves by definition
		panic("tagtree: AppendChild on content node")
	}
	child.Parent = n
	n.Children = append(n.Children, child)
}

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(key string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return "", false
}

// SetAttr sets (or replaces) the named attribute.
func (n *Node) SetAttr(key, val string) {
	for i := range n.Attrs {
		if n.Attrs[i].Key == key {
			n.Attrs[i].Val = val
			return
		}
	}
	n.Attrs = append(n.Attrs, Attribute{Key: key, Val: val})
}

// IsTag reports whether n is a tag node.
func (n *Node) IsTag() bool { return n.Type == TagNode }

// IsContent reports whether n is a content node.
func (n *Node) IsContent() bool { return n.Type == ContentNode }

// Root returns the root of the tree containing n.
func (n *Node) Root() *Node {
	for n.Parent != nil {
		n = n.Parent
	}
	return n
}

// Fanout returns the number of children of n. Content nodes have fanout 0.
func (n *Node) Fanout() int { return len(n.Children) }

// Depth returns the number of edges on the path from the tree root to n;
// the root has depth 0.
func (n *Node) Depth() int {
	d := 0
	for p := n.Parent; p != nil; p = p.Parent {
		d++
	}
	return d
}

// NodeCount returns the total number of nodes in the subtree rooted at n,
// counting both tag and content nodes (including n itself).
func (n *Node) NodeCount() int {
	count := 0
	n.eachDepth(func(*Node, int) { count++ })
	return count
}

// Height returns the number of edges on the longest downward path from n.
// A leaf has height 0.
func (n *Node) Height() int {
	h := 0
	n.eachDepth(func(_ *Node, depth int) { h = max(h, depth) })
	return h
}

// MaxFanout returns the largest fanout of any node in the subtree rooted at
// n. It is the per-page statistic used by THOR's cluster ranking criterion
// "average fanout" (Section 3.1.3).
func (n *Node) MaxFanout() int {
	f := 0
	n.eachDepth(func(m *Node, _ int) { f = max(f, len(m.Children)) })
	return f
}

// eachDepth calls fn with every node of the subtree rooted at n, in
// document order, and with its depth below n. It keeps its own stack of
// open nodes, so a subtree of any depth is walked in constant goroutine
// stack.
func (n *Node) eachDepth(fn func(m *Node, depth int)) {
	type frame struct {
		n    *Node
		next int // index of the next child to visit
	}
	fn(n, 0)
	var buf [32]frame // trees this shallow walk without allocating
	stack := append(buf[:0], frame{n: n})
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next == len(f.n.Children) {
			stack = stack[:len(stack)-1]
			continue
		}
		c := f.n.Children[f.next]
		f.next++
		fn(c, len(stack))
		stack = append(stack, frame{n: c})
	}
}

// Walk visits every node of the subtree rooted at n in document (preorder)
// order. If fn returns false the node's children are skipped. Like
// eachDepth it keeps its own stack of open nodes, so a subtree of any
// depth is walked in constant goroutine stack, and one up to 32 levels
// deep without allocating.
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	// The open node being visited is kids[next:]; the stack holds the
	// open nodes above it, each with its next child to visit.
	type frame struct {
		kids []*Node
		next int
	}
	var buf [32]frame
	stack := buf[:0]
	kids, next := n.Children, 0
	for {
		if next < len(kids) {
			c := kids[next]
			next++
			if fn(c) && len(c.Children) > 0 {
				stack = append(stack, frame{kids, next})
				kids, next = c.Children, 0
			}
			continue
		}
		if len(stack) == 0 {
			return
		}
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		kids, next = top.kids, top.next
	}
}

// Text returns the concatenation of all content nodes in the subtree rooted
// at n, in document order, with single spaces between adjacent fragments.
func (n *Node) Text() string {
	var b strings.Builder
	n.Walk(func(m *Node) bool {
		if m.Type == ContentNode && m.Content != "" {
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(m.Content)
		}
		return true
	})
	return b.String()
}

// HasText reports whether the subtree rooted at n contains at least one
// content node with non-whitespace characters. It is cheaper than Text when
// only emptiness matters (single-page analysis prunes content-empty
// subtrees).
func (n *Node) HasText() bool {
	return n.Find(func(m *Node) bool {
		return m.Type == ContentNode && strings.TrimSpace(m.Content) != ""
	}) != nil
}

// Find returns the first node in document order for which pred returns
// true, or nil if there is none.
func (n *Node) Find(pred func(*Node) bool) *Node {
	var found *Node
	n.Walk(func(m *Node) bool {
		if found != nil {
			return false
		}
		if pred(m) {
			found = m
			return false
		}
		return true
	})
	return found
}

// FindAll returns every node in document order for which pred returns true.
func (n *Node) FindAll(pred func(*Node) bool) []*Node {
	var out []*Node
	n.Walk(func(m *Node) bool {
		if pred(m) {
			out = append(out, m)
		}
		return true
	})
	return out
}

// FindTag returns the first descendant tag node (including n itself) with
// the given tag name, or nil.
func (n *Node) FindTag(tag string) *Node {
	return n.Find(func(m *Node) bool { return m.Type == TagNode && m.Tag == tag })
}

// Descendants returns all nodes strictly below n in document order.
func (n *Node) Descendants() []*Node {
	var out []*Node
	for _, c := range n.Children {
		c.Walk(func(m *Node) bool {
			out = append(out, m)
			return true
		})
	}
	return out
}

// IsAncestorOf reports whether n is a proper ancestor of m.
func (n *Node) IsAncestorOf(m *Node) bool {
	for p := m.Parent; p != nil; p = p.Parent {
		if p == n {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the subtree rooted at n. The clone's parent
// pointer is nil. It keeps its own stack, as Walk does.
func (n *Node) Clone() *Node {
	root := n.copyNode()
	type frame struct {
		kids []*Node // the original's children not yet copied
		cp   *Node   // the copy they are appended to
	}
	stack := []frame{{n.Children, root}}
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if len(top.kids) == 0 {
			stack = stack[:len(stack)-1]
			continue
		}
		c := top.kids[0]
		top.kids = top.kids[1:]
		cc := c.copyNode()
		cc.Parent = top.cp
		top.cp.Children = append(top.cp.Children, cc)
		if len(c.Children) > 0 {
			stack = append(stack, frame{c.Children, cc})
		}
	}
	return root
}

// copyNode returns a copy of n alone: no parent, no children.
func (n *Node) copyNode() *Node {
	cp := &Node{Type: n.Type, Tag: n.Tag, Content: n.Content}
	if n.Attrs != nil {
		cp.Attrs = make([]Attribute, len(n.Attrs))
		copy(cp.Attrs, n.Attrs)
	}
	return cp
}
