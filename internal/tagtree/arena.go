package tagtree

// Arena is a slab allocator for Nodes, built for parse-apply-release
// cycles: a server parses a fresh page into arena nodes, extracts from the
// tree, and then releases every node at once with Reset instead of leaving
// a page-sized object graph for the garbage collector. Slabs are retained
// across Reset, so a warmed arena parses page after page without
// allocating nodes at all; the per-node Children and Attrs slices keep
// their capacity too, because Reset truncates them instead of dropping
// them.
//
// Ownership rule: every node handed out by NewTag/NewContent — and every
// slice reachable from it — belongs to the arena and dies at the next
// Reset. Callers that need a tree to outlive the arena cycle must copy
// what they keep (Node.Clone, Node.Path, ...). An Arena is not safe for
// concurrent use; pool whole arenas instead of sharing one.
type Arena struct {
	slabs [][]Node
	// slab and next locate the first never-handed-out node: slabs[slab][next].
	slab int
	next int
}

// arenaSlabNodes is the slab granularity. A slab comfortably covers a
// small page; large pages chain slabs and keep them after Reset.
const arenaSlabNodes = 512

// NewTag returns an arena-owned tag node with the given (already
// lowercase) tag name.
func (a *Arena) NewTag(tag string) *Node {
	n := a.alloc()
	n.Type = TagNode
	n.Tag = tag
	return n
}

// NewContent returns an arena-owned content node holding text.
func (a *Arena) NewContent(text string) *Node {
	n := a.alloc()
	n.Type = ContentNode
	n.Content = text
	return n
}

// Len returns the number of nodes handed out since the last Reset; the
// next node handed out is the Len()-th, counting from zero.
func (a *Arena) Len() int { return a.slab*arenaSlabNodes + a.next }

// alloc hands out the next node. Nodes are clean by invariant: fresh slab
// memory is zero-valued, and Reset scrubs recycled nodes before they can
// be handed out again.
func (a *Arena) alloc() *Node {
	if a.slab == len(a.slabs) {
		a.slabs = append(a.slabs, make([]Node, arenaSlabNodes))
	}
	slab := a.slabs[a.slab]
	n := &slab[a.next]
	a.next++
	if a.next == len(slab) {
		a.slab++
		a.next = 0
	}
	return n
}

// Reset releases every node handed out since the last Reset, retaining the
// slabs for reuse. Each used node is scrubbed: string fields and attribute
// pairs are cleared so the previous page's HTML can be collected, and the
// Children/Attrs slices are truncated to length zero with their capacity
// kept — the whole point of the arena is that a re-parse of a similar page
// appends into the same backing arrays.
func (a *Arena) Reset() {
	for si := 0; si < len(a.slabs); si++ {
		slab := a.slabs[si]
		used := len(slab)
		if si > a.slab {
			break
		}
		if si == a.slab {
			used = a.next
		}
		for i := 0; i < used; i++ {
			n := &slab[i]
			n.Type = TagNode
			n.Tag = ""
			n.Content = ""
			n.Parent = nil
			for j := range n.Attrs {
				n.Attrs[j] = Attribute{}
			}
			n.Attrs = n.Attrs[:0]
			for j := range n.Children {
				n.Children[j] = nil
			}
			n.Children = n.Children[:0]
		}
	}
	a.slab, a.next = 0, 0
}
