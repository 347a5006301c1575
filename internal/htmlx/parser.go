package htmlx

import (
	"strings"

	"thor/internal/tagtree"
)

// Parse converts HTML text into a tag tree. It never fails: arbitrarily
// malformed input yields a best-effort tree, exactly as a Tidy-then-parse
// pipeline would. The returned root is always an <html> element (one is
// synthesized when the input lacks it). Whitespace-only text is dropped and
// surrounding whitespace in text nodes is trimmed, matching Tidy's
// normalization. Comments, doctypes, and processing instructions are
// discarded, as are <script> and <style> bodies, none of which participate
// in THOR's page model.
func Parse(src string) *tagtree.Node {
	z := &tokenizer{src: src}
	open := openElements{nodes: make([]*tagtree.Node, 0, 16), infos: make([]*tagInfo, 0, 16)}
	return build(z, heapAllocator{}, &open)
}

// nodeAllocator abstracts where tree nodes — and the strings they hold —
// come from: the heap for Parse (trees with unbounded lifetime) or arenas
// for Parser (trees released wholesale after extraction). Both paths
// share build, so the trees are identical node for node and byte for
// byte.
type nodeAllocator interface {
	NewTag(tag string) *tagtree.Node
	NewContent(text string) *tagtree.Node
	// text materializes one text token's content: character references
	// decoded (unless verbatim — raw-text element bodies are never
	// decoded), then whitespace collapsed.
	text(raw string, verbatim bool) string
	// attrVal materializes one attribute value: references decoded,
	// whitespace kept.
	attrVal(raw string) string
}

// heapAllocator allocates ordinary garbage-collected nodes and strings.
type heapAllocator struct{}

func (heapAllocator) NewTag(tag string) *tagtree.Node      { return tagtree.NewTag(tag) }
func (heapAllocator) NewContent(text string) *tagtree.Node { return tagtree.NewContent(text) }

func (heapAllocator) text(raw string, verbatim bool) string {
	if !verbatim {
		raw = DecodeEntities(raw)
	}
	return collapseSpace(raw)
}

func (heapAllocator) attrVal(raw string) string { return DecodeEntities(raw) }

// openElements is the builder's stack of open elements, with each
// element's tag-table entry on a parallel stack. A Parser keeps one
// across calls so the grown capacity is reused.
type openElements struct {
	nodes []*tagtree.Node
	infos []*tagInfo
}

// build runs the tree-construction loop over z's tokens, allocating nodes
// from alloc and using open as the open-element stack. It leaves open
// empty, with its capacity kept.
func build(z *tokenizer, alloc nodeAllocator, open *openElements) *tagtree.Node {
	root := alloc.NewTag("html")
	stack := append(open.nodes[:0], root)
	infos := append(open.infos[:0], lookupTag("html"))

	sawHTML := false
	for z.next() {
		tok := &z.tok
		switch tok.kind {
		case tokText:
			if infos[len(infos)-1].flags&dropText != 0 {
				continue
			}
			text := alloc.text(tok.data, tok.verbatim)
			if text == "" {
				continue
			}
			stack[len(stack)-1].AppendChild(alloc.NewContent(text))
		case tokComment, tokDoctype:
			// Dropped: Tidy-cleaned trees carry no comments or doctype.
		case tokStartTag, tokSelfClosingTag:
			name := tok.data
			if name == "html" {
				// Merge attributes onto the synthesized root; never nest.
				if !sawHTML {
					sawHTML = true
					for _, a := range tok.attrs {
						root.SetAttr(a.key, alloc.attrVal(a.val))
					}
				}
				continue
			}
			if tok.info.closes != 0 {
				n := openAfterImpliedEnds(infos, tok.info.closes)
				stack, infos = stack[:n], infos[:n]
			}
			node := alloc.NewTag(name)
			for _, a := range tok.attrs {
				node.Attrs = append(node.Attrs, tagtree.Attribute{Key: a.key, Val: alloc.attrVal(a.val)})
			}
			stack[len(stack)-1].AppendChild(node)
			if tok.kind == tokStartTag && tok.info.flags&void == 0 {
				stack = append(stack, node)
				infos = append(infos, tok.info)
			}
		case tokEndTag:
			name := tok.data
			if name == "html" {
				stack, infos = stack[:1], infos[:1]
				continue
			}
			// Find the matching open element; ignore the end tag if none.
			for i := len(stack) - 1; i >= 1; i-- {
				if stack[i].Tag == name {
					stack, infos = stack[:i], infos[:i]
					break
				}
			}
		}
	}
	open.nodes, open.infos = stack[:0], infos[:0]
	return root
}

// openAfterImpliedEnds returns how many open elements stay open when a
// tag that implicitly closes the set closes arrives, given the open
// elements' tag-table entries (infos[0] is the root, which never closes).
func openAfterImpliedEnds(infos []*tagInfo, closes closeSet) int {
	n := len(infos)
	for n > 1 {
		cur := infos[n-1]
		if closes&cur.bit != 0 {
			n--
			continue
		}
		if cur.flags&scopeStop != 0 {
			break
		}
		// A non-matching, non-scoping element (e.g. <b>) blocks nothing
		// for table parts but does for list items; be conservative and
		// only look through inline formatting elements.
		if cur.flags&inline != 0 {
			// Keep scanning upward without popping: implicit closing in
			// Tidy unwinds through inline wrappers.
			found := false
			for i := n - 2; i >= 1; i-- {
				if closes&infos[i].bit != 0 {
					found = true
					n = i
					break
				}
				if infos[i].flags&scopeStop != 0 || infos[i].flags&inline == 0 {
					break
				}
			}
			if found {
				continue
			}
		}
		break
	}
	return n
}

// collapseSpace trims text and collapses internal whitespace runs to single
// spaces, mirroring Tidy's text normalization. Text that is already in
// collapsed form — the common case for template-generated pages — is
// returned as-is without allocating.
func collapseSpace(s string) string {
	if isCollapsed(s) {
		return s
	}
	return strings.Join(strings.Fields(s), " ")
}

// isCollapsed reports whether s is already in collapsed form — the common
// case for template-generated pages — so collapseSpace can return it
// without allocating: no leading, trailing or doubled space, and no
// classBreak byte.
func isCollapsed(s string) bool {
	// A space before the first byte makes a leading space a doubled one.
	prev := byte(classSpace)
	for i := 0; i < len(s); i++ {
		c := collapseClass[s[i]]
		if c == classPlain {
			prev = c
			continue
		}
		if c == classBreak || prev == classSpace {
			return false
		}
		prev = c
	}
	return prev == classPlain || s == ""
}

// The byte classes of isCollapsed.
const (
	classPlain = iota
	classSpace
	// classBreak bytes need collapsing wherever they stand: ASCII
	// white space other than ' ', and the lead bytes of the non-ASCII
	// Unicode spaces (NBSP, en/em spaces, ideographic space, ...), which
	// defer to strings.Fields rather than decode here. Common text lead
	// bytes (Latin-1 0xC3, CJK 0xE4+) stay plain.
	classBreak
)

var collapseClass = func() (t [256]byte) {
	t[' '] = classSpace
	for _, c := range []byte{'\t', '\n', '\r', '\f', '\v', 0xC2, 0xE1, 0xE2, 0xE3} {
		t[c] = classBreak
	}
	return t
}()
