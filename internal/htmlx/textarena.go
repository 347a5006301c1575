package htmlx

import (
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"
	"unsafe"

	"thor/internal/tagtree"
)

// arenaAllocator is where a parse's nodes and strings come from: nodes
// from a tagtree.Arena, and the strings those nodes hold — decoded
// attribute values and normalized text content — from a flat byte arena
// with exactly the same lifetime. Both are recycled wholesale on reset,
// so a warmed Parser materializes a whole tree without allocating.
type arenaAllocator struct {
	nodes tagtree.Arena
	bytes textArena
	// decodeBuf holds one text token's entity-decoded bytes while
	// deciding whether they also need whitespace collapsing; it is
	// overwritten on every token, so anything kept is copied into bytes.
	decodeBuf []byte
	// inBytes names every string of the current tree that lives in bytes
	// rather than in the source, so that ownTree knows which strings to
	// copy out.
	inBytes []textSlot
	// attrs counts the current tree's attributes, the root's aside.
	attrs int
}

// textSlot names one string field of a tree: the Content of the node
// created ordinal-th (attr < 0), or the value of its attr-th attribute.
// Nodes are created in document order, so the ordinal is also the
// node's position in a preorder walk.
type textSlot struct {
	ordinal, attr int32
}

// field returns the slot's string field among a tree's nodes.
func (s textSlot) field(nodes preorder) *string {
	n := nodes.at(int(s.ordinal))
	if s.attr < 0 {
		return &n.Content
	}
	return &n.Attrs[s.attr].Val
}

// content returns a new content node for one text token, or nil when
// the token normalizes to nothing.
func (a *arenaAllocator) content(raw string, verbatim bool) *tagtree.Node {
	s, inBytes := a.text(raw, verbatim)
	if s == "" {
		return nil
	}
	if inBytes {
		a.inBytes = append(a.inBytes, textSlot{ordinal: int32(a.nodes.Len()), attr: -1})
	}
	return a.nodes.NewContent(s)
}

// appendAttr appends the attribute key=raw, references decoded, to n,
// the node created last.
func (a *arenaAllocator) appendAttr(n *tagtree.Node, key, raw string) {
	val, inBytes := a.attrVal(raw)
	if inBytes {
		a.inBytes = append(a.inBytes, textSlot{ordinal: int32(a.nodes.Len() - 1), attr: int32(len(n.Attrs))})
	}
	n.Attrs = append(n.Attrs, tagtree.Attribute{Key: key, Val: val})
	a.attrs++
}

// setRootAttr sets (or replaces) the root's attribute key to raw,
// references decoded.
func (a *arenaAllocator) setRootAttr(root *tagtree.Node, key, raw string) {
	val, inBytes := a.attrVal(raw)
	i := slices.IndexFunc(root.Attrs, func(at tagtree.Attribute) bool { return at.Key == key })
	if i < 0 {
		i = len(root.Attrs)
		root.Attrs = append(root.Attrs, tagtree.Attribute{Key: key})
	}
	root.Attrs[i].Val = val
	if inBytes {
		a.inBytes = append(a.inBytes, textSlot{ordinal: 0, attr: int32(i)})
	}
}

// reset recycles nodes and text bytes together. The node arena scrubs
// every string field first, so no node can dangle into the byte arena
// (or the previous document's source) after the bytes are reused.
func (a *arenaAllocator) reset() {
	a.nodes.Reset()
	a.bytes.reset()
	a.inBytes = a.inBytes[:0]
	a.attrs = 0
}

// text materializes one text token's content: character references
// decoded (unless verbatim — raw-text element bodies are never decoded),
// then whitespace collapsed, with every produced byte living in the
// arena. Already-clean text (the common case) is returned as a slice of
// the source string without copying, which is why a tree may alias the
// src passed to Parser.Parse; inBytes reports the other case.
func (a *arenaAllocator) text(raw string, verbatim bool) (s string, inBytes bool) {
	s = raw
	decoded := false
	if !verbatim && strings.IndexByte(s, '&') >= 0 {
		a.decodeBuf = appendDecodedEntities(a.decodeBuf[:0], s)
		s = byteView(a.decodeBuf)
		decoded = true
	}
	if isCollapsed(s) {
		if !decoded {
			return s, false // slice of src; stable for the tree's lifetime
		}
		return a.bytes.copyIn(s), true // decodeBuf is volatile: move it in
	}
	return a.bytes.collapseIn(s), true
}

// attrVal materializes one attribute value: references decoded,
// whitespace kept. A value without references is a slice of the source.
func (a *arenaAllocator) attrVal(raw string) (val string, inBytes bool) {
	if strings.IndexByte(raw, '&') < 0 {
		return raw, false // slice of src
	}
	return a.bytes.decodeIn(raw), true
}

// textArena is an append-only byte buffer whose contents are viewed as
// strings without copying. The returned strings are immutable as far as
// any reader is concerned — the buffer region backing a string is never
// written again until reset, and reset is only legal once the tree
// holding the strings has been scrubbed (arenaAllocator.reset orders
// exactly that). Growth is safe too: when append moves the buffer to a
// bigger array, previously returned strings keep the old array alive.
type textArena struct{ buf []byte }

func (t *textArena) reset() { t.buf = t.buf[:0] }

// copyIn appends s and returns the arena's view of it.
func (t *textArena) copyIn(s string) string {
	start := len(t.buf)
	t.buf = append(t.buf, s...)
	return byteView(t.buf[start:])
}

// decodeIn appends s with character references decoded.
func (t *textArena) decodeIn(s string) string {
	start := len(t.buf)
	t.buf = appendDecodedEntities(t.buf, s)
	return byteView(t.buf[start:])
}

// collapseIn appends s with whitespace collapsed.
func (t *textArena) collapseIn(s string) string {
	start := len(t.buf)
	t.buf = appendCollapsed(t.buf, s)
	return byteView(t.buf[start:])
}

// byteView reinterprets b as a string without copying. Callers must
// guarantee b is not written afterwards for as long as the string is
// readable — the textArena contract above.
func byteView(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// appendCollapsed appends s to dst with whitespace collapsed, producing
// exactly the bytes of strings.Join(strings.Fields(s), " ") without the
// intermediate slice of fields.
func appendCollapsed(dst []byte, s string) []byte {
	i := 0
	first := true
	for {
		// Skip a whitespace run.
		for i < len(s) {
			if c := s[i]; c < utf8.RuneSelf {
				if !asciiSpaceByte(c) {
					break
				}
				i++
				continue
			}
			r, size := utf8.DecodeRuneInString(s[i:])
			if !unicode.IsSpace(r) {
				break
			}
			i += size
		}
		if i >= len(s) {
			return dst
		}
		// Copy a field.
		start := i
		for i < len(s) {
			if c := s[i]; c < utf8.RuneSelf {
				if asciiSpaceByte(c) {
					break
				}
				i++
				continue
			}
			r, size := utf8.DecodeRuneInString(s[i:])
			if unicode.IsSpace(r) {
				break
			}
			i += size
		}
		if !first {
			dst = append(dst, ' ')
		}
		first = false
		dst = append(dst, s[start:i]...)
	}
}

// asciiSpaceByte matches unicode.IsSpace over the ASCII range — the set
// strings.Fields splits on (note '\v', which HTML's own isSpace omits).
func asciiSpaceByte(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}
