package htmlx

import (
	"slices"

	"thor/internal/tagtree"
)

// ownTree copies root, the tree alloc's last parse built, into blocks
// that the copy owns outright and that hold nothing else: its nodes in
// preorder (two blocks, see preorder), one block behind every Children
// slice, one behind every Attrs slice, and one for the text that lives
// in alloc's byte arena rather than in the source. Strings that alias
// the source still do, so the copy needs nothing of alloc and stays
// valid after alloc is reset.
//
// Each Children and Attrs slice is capped at its length, so appending to
// one reallocates it instead of overwriting a neighbour's; a node with no
// children or attributes keeps a nil slice, as a node built by hand
// does. The copy keeps no stack of its own: it descends into each next
// uncopied child and climbs back up by parent pointers, so a tree of any
// depth copies in constant stack space.
func ownTree(root *tagtree.Node, alloc *arenaAllocator) *tagtree.Node {
	n := alloc.nodes.Len()
	nodes := newPreorder(n)
	var kids []*tagtree.Node
	if n > 1 {
		kids = make([]*tagtree.Node, n-1) // every node but the root is a child once
	}
	var attrs []tagtree.Attribute
	if na := alloc.attrs + len(root.Attrs); na > 0 {
		attrs = make([]tagtree.Attribute, na)
	}
	// fill copies src's own fields into dst and carves dst's Children and
	// Attrs slices off the blocks.
	fill := func(dst, src *tagtree.Node) {
		dst.Type, dst.Tag, dst.Content = src.Type, src.Tag, src.Content
		if n := len(src.Attrs); n > 0 {
			dst.Attrs = attrs[:n:n]
			copy(dst.Attrs, src.Attrs)
			attrs = attrs[n:]
		}
		if n := len(src.Children); n > 0 {
			dst.Children = kids[:0:n]
			kids = kids[n:]
		}
	}
	top := nodes.at(0)
	fill(top, root)
	next := 1
	src, dst := root, top
	for {
		if i := len(dst.Children); i < len(src.Children) {
			child := nodes.at(next)
			next++
			fill(child, src.Children[i])
			child.Parent = dst
			dst.Children = append(dst.Children, child)
			src, dst = src.Children[i], child
			continue
		}
		if src == root {
			break
		}
		src, dst = src.Parent, dst.Parent
	}

	size := 0
	for _, slot := range alloc.inBytes {
		size += len(*slot.field(nodes))
	}
	if size > 0 {
		text := make([]byte, 0, size)
		for _, slot := range alloc.inBytes {
			s := slot.field(nodes)
			start := len(text)
			text = append(text, *s...)
			*s = byteView(text[start:])
		}
	}
	return top
}

// preorder holds a tree's nodes in preorder in two blocks, so that the
// allocator rounds neither up by much. Go rounds a block up to its size
// class, by up to 14% (plus a header past 512 bytes). So the head block
// asks for 7/8 of the nodes and takes all the room its size class holds,
// which but for the smallest trees stays below the whole count, and the
// tail block holds the rest. Over 1,100 probed pages a tree retained
// 12,432 bytes with one node block and 11,906 with two; built node by
// node on the heap, it retained 11,793.
type preorder struct{ head, tail []tagtree.Node }

// newPreorder returns the blocks for n nodes.
func newPreorder(n int) preorder {
	head := slices.Grow([]tagtree.Node(nil), n*7/8)
	p := preorder{head: head[:min(cap(head), n)]}
	if len(p.head) < n {
		p.tail = make([]tagtree.Node, n-len(p.head))
	}
	return p
}

// at returns the i-th node in preorder.
func (p preorder) at(i int) *tagtree.Node {
	if i < len(p.head) {
		return &p.head[i]
	}
	return &p.tail[i-len(p.head)]
}
