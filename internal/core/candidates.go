package core

import (
	"strconv"
	"strings"

	"thor/internal/strdist"
	"thor/internal/tagtree"
)

// candidateWalk is single-page analysis (Section 3.2.1) as one iterative
// walk, shared by SinglePageCandidates in training and the wrapper's
// serve pass. It yields the candidates — tag nodes whose subtree holds a
// word token and whose text is not all carried by a single tag-node
// child — each with its depth, node count and document-order rank, and
// renders a candidate's path on demand.
//
// On the way down each tag node is pushed with its step index, counted
// once per parent by appendStepIndexes; on the way up a node's word and
// text flags and node count fold into its parent, and the node is yielded
// if it qualifies. A candidate is therefore yielded when it is popped, in
// post-order; rank is its position in document order among the tag
// nodes.
//
// Paths are rendered lazily along the open-element stack: the stacked
// ancestors' steps are rendered once, root first, from the lowest one a
// previous candidate left rendered, so each tag node's step is rendered
// at most once per walk. The steps reach the renderer in document order
// of the nodes, exactly the order in which per-candidate root-to-leaf
// walks, run in document order, first meet them; a simplifier renderer
// therefore assigns its identifiers in that order too.
type candidateWalk struct {
	stack []walkFrame
	steps []int32 // the step indexes of every stacked node's children
	tally stepTally
	// simp selects the rendering: nil renders indexed paths (Node.Path),
	// non-nil simplified ones (simp.SimplifyPath of Node.Path).
	simp *strdist.Simplifier
	root *tagtree.Node
	// path holds the rendered prefix of every stack[:rendered] entry
	// (entry i's ends at stack[i].end), then the last rendered
	// candidate's own step.
	path     []byte
	rendered int
	baseEnd  int // path[:baseEnd] renders root's ancestors; -1 until rendered
	depth    int // root's depth
	ranks    int // tag nodes pushed so far
	// cur is the candidate the last successful next stopped at.
	cur walkFrame
}

// walkFrame is one open tag node of the walk.
type walkFrame struct {
	n        *tagtree.Node
	next     int   // the next child to visit
	step     int32 // n's path-step index, 0 when the step carries none
	steps    int   // n's children's step indexes start at steps[steps]
	rank     int   // n's position in document order among the tag nodes
	nodes    int   // n's subtree size so far
	end      int   // path[:end] renders n's path, once rendered
	word     bool  // some text below holds a word token
	text     bool  // some text below is not all white space
	textKids int   // children holding text, counted up to 2
	onlyTag  bool  // the first child holding text is a tag node
}

// start aims the walk at tree, rendering paths through simp (nil for
// indexed paths). A tree that is not a tag node yields nothing.
func (w *candidateWalk) start(tree *tagtree.Node, simp *strdist.Simplifier) {
	w.stack, w.steps, w.path = w.stack[:0], w.steps[:0], w.path[:0]
	w.simp, w.root, w.rendered, w.baseEnd, w.ranks = simp, tree, 0, -1, 0
	w.cur = walkFrame{}
	w.tally.reset()
	if tree.Type != tagtree.TagNode {
		return
	}
	w.depth = tree.Depth()
	var step int32
	if tree.Parent != nil {
		if idx, total := tree.StepIndex(); total > 1 {
			step = int32(idx)
		}
	}
	w.push(tree, step)
}

func (w *candidateWalk) push(n *tagtree.Node, step int32) {
	off := len(w.steps)
	w.steps = appendStepIndexes(w.steps, n.Children, &w.tally)
	w.stack = append(w.stack, walkFrame{n: n, step: step, steps: off, rank: w.ranks, nodes: 1})
	w.ranks++
}

// next advances to the next candidate in post-order and reports whether
// there was one; the candidate is w.cur, at depth w.curDepth().
func (w *candidateWalk) next() bool {
	for len(w.stack) > 0 {
		f := &w.stack[len(w.stack)-1]
		if k := f.next; k < len(f.n.Children) {
			f.next++
			c := f.n.Children[k]
			if c.Type != tagtree.TagNode {
				f.nodes++
				word := tagtree.HasWordToken(c.Content)
				text := word || strings.TrimSpace(c.Content) != ""
				f.word = f.word || word
				f.text = f.text || text
				f.hold(text, false)
				continue
			}
			w.push(c, w.steps[f.steps+k])
			continue
		}
		// f stays readable after the pop: nothing is pushed over it
		// before it is copied out.
		w.stack = w.stack[:len(w.stack)-1]
		w.steps = w.steps[:f.steps]
		w.rendered = min(w.rendered, len(w.stack))
		if len(w.stack) > 0 {
			p := &w.stack[len(w.stack)-1]
			p.nodes += f.nodes
			p.word = p.word || f.word
			p.text = p.text || f.text
			p.hold(f.text, true)
		}
		if f.word && !(f.textKids == 1 && f.onlyTag) {
			w.cur = *f
			return true
		}
	}
	return false
}

// hold folds a child's text flag into the frame's minimality count.
func (f *walkFrame) hold(text, tag bool) {
	if !text || f.textKids == 2 {
		return
	}
	if f.textKids++; f.textKids == 1 {
		f.onlyTag = tag
	}
}

// curDepth is the current candidate's depth in its whole tree.
func (w *candidateWalk) curDepth() int { return w.depth + len(w.stack) }

// curPath renders the current candidate's path into the walk's buffer,
// valid until the next call to next or curPath.
func (w *candidateWalk) curPath() []byte {
	if w.baseEnd < 0 {
		w.path = w.appendAncestors(w.path, w.root.Parent)
		w.baseEnd = len(w.path)
	}
	end := w.baseEnd
	if w.rendered > 0 {
		end = w.stack[w.rendered-1].end
	}
	for ; w.rendered < len(w.stack); w.rendered++ {
		f := &w.stack[w.rendered]
		w.path = w.appendStep(w.path[:end], f.n.Tag, f.step, w.rendered > 0 || w.root.Parent != nil)
		end = len(w.path)
		f.end = end
	}
	w.path = w.appendStep(w.path[:end], w.cur.n.Tag, w.cur.step, len(w.stack) > 0 || w.root.Parent != nil)
	return w.path
}

// appendAncestors renders the path of n, an ancestor of the walk's root
// (nil for none), onto dst: steps the walk never visits, so their indexes
// come from StepIndex, once per walk.
func (w *candidateWalk) appendAncestors(dst []byte, n *tagtree.Node) []byte {
	if n == nil {
		return dst
	}
	dst = w.appendAncestors(dst, n.Parent)
	var step int32
	if n.Parent != nil {
		if idx, total := n.StepIndex(); total > 1 {
			step = int32(idx)
		}
	}
	return w.appendStep(dst, n.Tag, step, n.Parent != nil)
}

// appendStep renders one path step onto dst: the tag with its index
// (when step > 0), after a '/' when sep is set and the rendering is not
// simplified.
func (w *candidateWalk) appendStep(dst []byte, tag string, step int32, sep bool) []byte {
	if w.simp != nil {
		dst = append(dst, w.simp.ID(tag)...)
		if step > 0 {
			dst = strconv.AppendInt(dst, int64(step), 10)
		}
		return dst
	}
	if sep {
		dst = append(dst, '/')
	}
	dst = append(dst, tag...)
	if step > 0 {
		dst = append(strconv.AppendInt(append(dst, '['), int64(step), 10), ']')
	}
	return dst
}

// appendStepIndexes appends, for each of children, the positional index
// its path step carries: its 1-based position among its same-tag
// siblings when it has any (tagtree's Path rule), else 0. Content
// children, which never head a tag path, get 0.
func appendStepIndexes(steps []int32, children []*tagtree.Node, t *stepTally) []int32 {
	if len(children) < 2 {
		if len(children) == 1 {
			steps = append(steps, 0)
		}
		return steps
	}
	// First each child's slot (-1 for content), then, in place, its
	// index.
	t.parent++
	off := len(steps)
	for _, c := range children {
		k := int32(-1)
		if c.Type == tagtree.TagNode {
			k = t.slot(c.Tag)
			t.counts[k].n++
		}
		steps = append(steps, k)
	}
	// A tag with several children holds their count until its first
	// child is met, then minus the last position handed out.
	for i := off; i < len(steps); i++ {
		k := steps[i]
		if k < 0 {
			steps[i] = 0
			continue
		}
		switch c := &t.counts[k]; {
		case c.n > 1:
			steps[i] = 1
			c.n = -1
		case c.n < 0:
			steps[i] = 1 - c.n
			c.n--
		default:
			steps[i] = 0
		}
	}
	return steps
}

// stepTally counts each parent's children per tag for appendStepIndexes.
// It gives every tag name a walk meets one slot, kept from parent to
// parent; a slot's count belongs to the parent stamped on it, so a new
// parent starts from zero without clearing a map. (Clearing a map costs
// its capacity, not its length: after one parent of many distinct child
// tags, a per-parent clear would make every later parent pay for it.)
type stepTally struct {
	slots  map[string]int32
	counts []slotCount
	parent int32 // the current parent's stamp
}

type slotCount struct{ parent, n int32 }

// maxKeptSlots bounds the slot map a tally clears for its next walk: a
// bigger one, left by a page of unusually many distinct tag names, is
// dropped instead, so that clearing stays cheap.
const maxKeptSlots = 256

// reset readies the tally for a walk. The slots' keys may be views of
// the previous page's text, since overwritten, so the map is emptied
// before any lookup.
func (t *stepTally) reset() {
	if t.slots == nil || len(t.slots) > maxKeptSlots {
		t.slots = make(map[string]int32)
	} else {
		clear(t.slots)
	}
	t.counts, t.parent = t.counts[:0], 0
}

// slot returns tag's slot, its count zeroed if a previous parent left it.
func (t *stepTally) slot(tag string) int32 {
	k, ok := t.slots[tag]
	if !ok {
		k = int32(len(t.counts))
		t.slots[tag] = k
		t.counts = append(t.counts, slotCount{})
	}
	if c := &t.counts[k]; c.parent != t.parent {
		*c = slotCount{parent: t.parent}
	}
	return k
}
