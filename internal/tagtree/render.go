package tagtree

import "strings"

// voidTagNames are the elements that never have children or end tags in
// HTML.
var voidTagNames = [...]string{
	"area", "base", "br", "col", "embed", "hr", "img", "input", "link",
	"meta", "param", "source", "track", "wbr",
}

var voidTags = func() map[string]bool {
	m := make(map[string]bool, len(voidTagNames))
	for _, tag := range voidTagNames {
		m[tag] = true
	}
	return m
}()

// IsVoidTag reports whether tag is an HTML void element (one with no end
// tag and no children).
func IsVoidTag(tag string) bool { return voidTags[tag] }

// VoidTags returns the names of the HTML void elements, the tags
// IsVoidTag reports, in a fresh slice.
func VoidTags() []string { return append([]string(nil), voidTagNames[:]...) }

// Render serializes the subtree rooted at n back to HTML. Attributes are
// emitted with double-quoted values; special characters in text and
// attribute values are escaped. The output of Render parses back to an
// equivalent tree (see the round-trip property test in htmlx).
func (n *Node) Render() string {
	var b strings.Builder
	n.render(&b)
	return b.String()
}

// Size returns the size in bytes of the rendered subtree. It implements the
// page-size statistic used by the size-based clustering baseline and the
// "average page size" ranking criterion (Section 3.1.3).
func (n *Node) Size() int { return len(n.Render()) }

func (n *Node) render(b *strings.Builder) {
	if n.Type == ContentNode {
		escapeText(b, n.Content)
		return
	}
	b.WriteByte('<')
	b.WriteString(n.Tag)
	for _, a := range n.Attrs {
		b.WriteByte(' ')
		b.WriteString(a.Key)
		b.WriteString(`="`)
		escapeAttr(b, a.Val)
		b.WriteByte('"')
	}
	b.WriteByte('>')
	if voidTags[n.Tag] {
		return
	}
	for _, c := range n.Children {
		c.render(b)
	}
	b.WriteString("</")
	b.WriteString(n.Tag)
	b.WriteByte('>')
}

func escapeText(b *strings.Builder, s string) {
	for _, r := range s {
		switch r {
		case '&':
			b.WriteString("&amp;")
		case '<':
			b.WriteString("&lt;")
		case '>':
			b.WriteString("&gt;")
		default:
			b.WriteRune(r)
		}
	}
}

func escapeAttr(b *strings.Builder, s string) {
	for _, r := range s {
		switch r {
		case '&':
			b.WriteString("&amp;")
		case '"':
			b.WriteString("&quot;")
		case '<':
			b.WriteString("&lt;")
		default:
			b.WriteRune(r)
		}
	}
}

// Outline returns an indented textual sketch of the subtree, useful for
// debugging and for the example programs. Content nodes are elided to a
// short prefix.
func (n *Node) Outline() string {
	var b strings.Builder
	n.outline(&b, 0)
	return b.String()
}

func (n *Node) outline(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	if n.Type == ContentNode {
		text := strings.TrimSpace(n.Content)
		if len(text) > 40 {
			text = text[:40] + "…"
		}
		b.WriteString("#text ")
		b.WriteString(text)
	} else {
		b.WriteString(n.Tag)
	}
	b.WriteByte('\n')
	for _, c := range n.Children {
		c.outline(b, depth+1)
	}
}
